import pytest

from gltcomb.caps import D_inverse, D_matrix, inverse_row, lift_row
from gltcomb.grothendieck import b_matrix
from gltcomb.matrices import BipartitionMatrix, sort_key
from gltcomb.partitions import Bipartition, bipartitions_up_to

VAC = Bipartition.of((), ())
BOX = Bipartition.of((1,), ())
WBOX = Bipartition.of((), (1,))
ONE = Bipartition.of((1,), (1,))


def test_equal_size_off_diagonal_is_not_unitriangular():
    m = BipartitionMatrix.identity(1)
    m.set(Bipartition.of((), (1,)), Bipartition.of((1,), ()), 5)
    assert not m.is_unitriangular()


def test_setting_a_rows_last_entry_to_zero_removes_the_row():
    m = BipartitionMatrix(2)
    m.set(ONE, VAC, 3)
    m.set(ONE, BOX, 2)
    m.set(ONE, VAC, 0)
    assert m.rows == {ONE: {BOX: 2}}
    m.set(ONE, BOX, 0)
    assert m.rows == {}
    m.set(ONE, BOX, 0)  # zeroing an absent entry stores nothing
    assert m.rows == {} and m == BipartitionMatrix(2)


def test_mul_drops_cancelled_entries_and_rows():
    left = BipartitionMatrix(2, {ONE: {BOX: 1, WBOX: 1}, BOX: {BOX: 1}})
    right = BipartitionMatrix(2, {BOX: {VAC: 1, ONE: 2}, WBOX: {VAC: -1}})
    assert left.mul(right).rows == {ONE: {ONE: 2}, BOX: {VAC: 1, ONE: 2}}
    cancel = BipartitionMatrix(2, {WBOX: {VAC: 1}})
    assert left.mul(right).mul(cancel).rows == {}


def test_restrict_drops_the_rows_it_empties():
    m = BipartitionMatrix(2, {BOX: {ONE: 4}, WBOX: {ONE: 1, VAC: 2}, ONE: {VAC: 1}})
    assert m.restrict(1).rows == {WBOX: {VAC: 2}}
    assert m.restrict(0).rows == {}


def test_fill_order_does_not_change_equality():
    entries = [(r, c, v) for r in bipartitions_up_to(3) for c, v in inverse_row(r, 0).items()]
    forward, backward = BipartitionMatrix(3), BipartitionMatrix(3)
    for r, c, v in entries:
        forward.set(r, c, v)
    for r, c, v in reversed(entries):
        backward.set(r, c, v)
    backward.set(ONE, BOX, 7)
    backward.set(ONE, BOX, 0)
    assert forward == backward == D_inverse(0, 3)
    backward.set(ONE, VAC, 5)
    assert forward != backward


@pytest.mark.parametrize("t", [-2, 0, 1])
def test_transpose_twice_is_the_identity(t):
    for m in (D_inverse(t, 5), b_matrix(t, 5)):
        transposed = m.transpose()
        assert all(transposed.get(c, r) == v for r, c, v in m.items())
        assert sum(len(row) for row in transposed.rows.values()) == sum(len(row) for row in m.rows.values())
        assert transposed.transpose() == m


def test_to_json_is_ordered_by_size_black_white():
    index = bipartitions_up_to(3)
    m = BipartitionMatrix(3)
    for r in reversed(index):
        for c in reversed(index):
            if c.size <= r.size:
                m.set(r, c, 1 + index.index(c))
    keys = [(Bipartition.of(*e["row"]), Bipartition.of(*e["col"])) for e in m.to_json()["entries"]]
    assert keys == sorted(keys, key=lambda rc: (sort_key(rc[0]), sort_key(rc[1])))
    assert len(keys) == sum(len(row) for row in m.rows.values())


@pytest.mark.parametrize("t", [-3, 0, 2, "generic"])
def test_d_and_its_inverse_share_their_row_rules(t):
    """D(t, n) and D(t, n)^-1 hand out the cached rows themselves, not copies."""
    d, d_inv = D_matrix(t, 5), D_inverse(t, 5)
    for lam in bipartitions_up_to(5):
        assert d.rows[lam] is lift_row(lam, t)
        assert d_inv.rows[lam] is inverse_row(lam, t)
