from copy import deepcopy

import pytest

from gltcomb.caps import D_inverse, D_matrix, inverse_row, lift_row
from gltcomb.grothendieck import a_matrix, b_matrix
from gltcomb.lr import B_matrix, lr_product
from gltcomb.matrices import BipartitionMatrix, add_into, product, sort_key
from gltcomb.partitions import Bipartition, bipartitions_up_to, partitions_up_to

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
    assert forward != forward.rows  # the dataclass compares (n, rows) with matrices only
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


def test_add_into_deletes_a_key_whose_sum_cancels():
    vec = {BOX: 2}
    add_into(vec, ONE, 3)
    add_into(vec, ONE, -3)
    assert vec == {BOX: 2}
    add_into(vec, VAC, 0)  # adding 0 to an absent key stores nothing
    assert vec == {BOX: 2}
    add_into(vec, BOX, -2)
    assert vec == {}


def test_product_leaves_out_a_row_that_cancels():
    right = {BOX: {VAC: 1, ONE: 2}, WBOX: {VAC: -1, ONE: -2}}
    rows = {ONE: {BOX: 1, WBOX: 1}, BOX: {BOX: 3}}
    assert product(rows, right.get, {}) == {BOX: {VAC: 3, ONE: 6}}


def test_product_keeps_row_order_and_first_insertion_order():
    """Rows come back in the order of the input, and each row's entries in
    the order they were first stored: an entry that cancels and comes back
    goes to the end."""
    right = {VAC: {VAC: 1, BOX: 1}, BOX: {VAC: -1, WBOX: 2}, WBOX: {VAC: 5}}
    rows = {ONE: {VAC: 1, BOX: 1, WBOX: 1}, WBOX: {WBOX: 1}, VAC: {BOX: 1, VAC: 1}}
    got = product(rows, right.get, {})
    assert list(got) == [ONE, WBOX, VAC]
    assert list(got[ONE].items()) == [(BOX, 1), (WBOX, 2), (VAC, 5)]
    assert list(got[VAC].items()) == [(WBOX, 2), (BOX, 1)]


@pytest.mark.parametrize("t", [-2, 0, 3, "generic"])
def test_product_with_a_row_rule_and_its_args(t):
    """product(rows, inverse_row, t) reads D^-1's rows through their rule:
    D's rows times them are the identity, and B's rows times them are b."""
    n = 5
    assert product(D_matrix(t, n).rows, inverse_row, t) == BipartitionMatrix.identity(n).rows
    B = B_matrix(n).rows
    assert product(B, inverse_row, t) == b_matrix(t, n).rows


def test_product_leaves_its_inputs_unchanged():
    rows = {ONE: {BOX: 1, WBOX: 1}, BOX: {BOX: 3, WBOX: -1}}
    right = {BOX: {VAC: 1, ONE: 2}, WBOX: {VAC: -1, ONE: 1}}
    before = deepcopy((rows, right))
    product(rows, right.get, {})
    assert (rows, right) == before


def test_derived_tables_leave_the_cached_rows_unmutated():
    """lift_row, inverse_row and lr_product hand out their cached rows, which
    callers must not mutate: building D^-1, b, every A_a and two products at
    n = 5 leaves every such row that n + 1 reaches as it was, and still the
    cached one."""
    n, ts = 5, range(-3, 4)
    index = bipartitions_up_to(n + 1)
    parts = partitions_up_to(n + 1)
    cached = [(rule, args) for t in ts for lam in index
              for rule, args in ((lift_row, (lam, t)), (inverse_row, (lam, t)))]
    cached += [(lr_product, (mu, kappa)) for mu in parts for kappa in parts
               if mu.size + kappa.size <= n + 1]
    before = [(rule(*args), deepcopy(rule(*args))) for rule, args in cached]
    for t in ts:
        d_inv = D_inverse(t, n)
        b_matrix(t, n)
        for a in range(-3, 4):
            a_matrix(a, t, n)
        D_matrix(t, n).mul(d_inv)
        B_matrix(n).mul(d_inv)
    for (rule, args), (row, copy) in zip(cached, before):
        assert rule(*args) is row and row == copy, (rule.__name__, args)
