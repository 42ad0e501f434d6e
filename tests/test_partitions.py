import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gltcomb.partitions import (
    Bipartition,
    Partition,
    bipartitions_up_to,
    n_weight,
    partitions_of,
    partitions_up_to,
)


partitions = st.integers(min_value=0, max_value=6).map(
    lambda n: partitions_of(n)
).flatmap(st.sampled_from)


def test_parse_and_str():
    assert Partition.parse("[3,1]") == Partition.of(3, 1)
    assert Partition.parse("[]") == Partition.of()
    assert str(Partition.of(3, 1)) == "[3,1]"
    with pytest.raises(ValueError):
        Partition.parse("[1,3]")
    with pytest.raises(ValueError):
        Partition.parse("3,1")


def test_of_drops_only_trailing_zeros():
    assert Partition.of(2, 1, 0, 0) == Partition.of(2, 1)
    assert Partition.parse("[1,1,0]") == Partition.of(1, 1)
    assert Bipartition.of((1, 0), (0,)) == Bipartition.of((1,), ())
    for rows in [(1, 0, 1), (0, 1), (2, 0, 1, 0)]:
        with pytest.raises(ValueError):
            Partition.of(*rows)
    with pytest.raises(ValueError):
        Partition.parse("[1,0,1]")
    with pytest.raises(ValueError):
        Partition.parse("[0,1]")


def test_basic_stats():
    nu = Partition.of(4, 2, 1)
    assert nu.size == 7
    assert nu.length == 3
    assert nu.row(1) == 4
    assert nu.row(10) == 0


def test_transpose():
    assert Partition.of(3, 1).transpose() == Partition.of(2, 1, 1)
    assert Partition.of().transpose() == Partition.of()


@given(partitions)
def test_transpose_involution(nu):
    assert nu.transpose().transpose() == nu


def test_contains():
    assert Partition.of(3, 1).contains(Partition.of(2, 1))
    assert not Partition.of(3, 1).contains(Partition.of(1, 1, 1))


def test_corner_contents():
    nu = Partition.of(3, 1)
    # addable cells: (1,4) content 3, (2,2) content 0, (3,1) content -2
    assert nu.addable_contents() == [3, 0, -2]
    # removable cells: (1,3) content 2, (2,1) content -1
    assert nu.removable_contents() == [2, -1]


def test_add_remove_box():
    nu = Partition.of(1)
    assert nu.add_box(1) == Partition.of(2)
    assert nu.add_box(-1) == Partition.of(1, 1)
    assert nu.add_box(0) is None
    assert Partition.of(2).remove_box(1) == Partition.of(1)
    assert Partition.of(2).remove_box(0) is None


@given(partitions, st.integers(min_value=-7, max_value=7))
def test_add_remove_roundtrip(nu, a):
    plus = nu.add_box(a)
    if plus is not None:
        assert plus.size == nu.size + 1
        assert plus.remove_box(a) == nu
    minus = nu.remove_box(a)
    if minus is not None:
        assert minus.add_box(a) == nu


@given(partitions)
def test_exactly_one_more_addable_than_removable(nu):
    assert len(nu.addable_contents()) == len(nu.removable_contents()) + 1


def test_n_weight():
    # +1 at an addable content, -1 at a removable content, 0 elsewhere
    nu = Partition.of(2, 1)
    assert n_weight(nu, 2) == 1
    assert n_weight(nu, 0) == 1
    assert n_weight(nu, -2) == 1
    assert n_weight(nu, 1) == -1
    assert n_weight(nu, -1) == -1
    assert n_weight(nu, 5) == 0


def test_partition_counts():
    for n, count in enumerate([1, 1, 2, 3, 5, 7, 11, 15]):
        assert len(partitions_of(n)) == count
    assert len(partitions_up_to(4)) == 1 + 1 + 2 + 3 + 5


def test_bipartition_parse_and_conjugate():
    lam = Bipartition.parse("[[3,1],[2]]")
    assert lam.black == Partition.of(3, 1)
    assert lam.white == Partition.of(2)
    assert lam.size == 6
    conj = lam.conjugate()
    assert conj.black == Partition.of(3, 1)
    assert conj.white == Partition.of(1, 1)


def test_bipartitions_up_to_sorted_and_complete():
    index = bipartitions_up_to(3)
    assert len(index) == 1 + 2 + 5 + 10
    sizes = [bp.size for bp in index]
    assert sizes == sorted(sizes)
    assert len(set(index)) == len(index)


def test_json_roundtrip():
    lam = Bipartition.of((3, 1), (2,))
    assert lam.to_json() == [[3, 1], [2]]
    assert Partition.of(3, 1).to_json() == [3, 1]


def _move_cell(nu, a, step):
    """Reference box move: grow (step 1) or shrink (step -1) the row whose
    end cell has content a, keeping the result only if it is a partition."""
    rows = list(nu.rows) + [0]
    for i in range(len(rows)):
        end = rows[i] + (1 if step == 1 else 0)  # column of the cell moved
        if end - (i + 1) == a and end > 0:
            rows[i] += step
            if all(rows[k] >= rows[k + 1] for k in range(len(rows) - 1)):
                return Partition(tuple(r for r in rows if r))
            return None
    return None


def test_box_moves_match_reference():
    for nu in partitions_up_to(8):
        for a in range(-10, 11):
            assert nu.add_box(a) == _move_cell(nu, a, 1), (nu, a)
            assert nu.remove_box(a) == _move_cell(nu, a, -1), (nu, a)
        for a in (0.5, 1.0, "0", None):
            assert nu.add_box(a) is None
            assert nu.remove_box(a) is None


def test_hash_is_the_dataclass_hash():
    # set and dict iteration orders, and so every output, depend on this value
    for bp in bipartitions_up_to(5):
        for p in (bp.black, bp.white):
            assert hash(p) == hash((p.rows,))
        assert hash(bp) == hash((bp.black, bp.white))


def test_equal_values_hash_equal_however_built():
    p = Partition((3, 1))
    assert hash(Partition.of(3, 1, 0)) == hash(Partition.parse("[3, 1]")) == hash(p)
    bp = Bipartition(p, Partition((1,)))
    built = [Bipartition.of((3, 1), (1, 0)), Bipartition.parse("[[3,1],[1]]"), bp]
    assert all(b == bp and hash(b) == hash(bp) for b in built)


def test_copies_keep_equality_and_hash():
    bp = Bipartition.of((2, 1), (1,))
    for copy_of in (pickle.loads(pickle.dumps(bp)), copy.deepcopy(bp), copy.copy(bp)):
        assert copy_of == bp and hash(copy_of) == hash(bp)
        assert copy_of.black == bp.black and hash(copy_of.black) == hash(bp.black)


def test_repr_unchanged():
    assert repr(Partition((2, 1))) == "Partition(rows=(2, 1))"
    assert repr(Bipartition.of((1,), ())) == (
        "Bipartition(black=Partition(rows=(1,)), white=Partition(rows=()))"
    )


def test_size_is_stored_and_survives_copies():
    for bp in bipartitions_up_to(5):
        assert bp.black.size == sum(bp.black.rows) and bp.white.size == sum(bp.white.rows)
        assert bp.size == bp.black.size + bp.white.size
    bp = Bipartition.of((2, 1), (1,))
    for copy_of in (pickle.loads(pickle.dumps(bp)), copy.deepcopy(bp), copy.copy(bp)):
        assert (copy_of.size, copy_of.black.size, copy_of.white.size) == (4, 3, 1)
    # size is no dataclass field: equality, ordering and JSON ignore it
    assert Partition((2, 1)).to_json() == [2, 1] and bp.to_json() == [[2, 1], [1]]
    assert Partition((2,)) < Partition((2, 1)) < Partition((3,))


# The row scans the box table replaced, kept as references.
def _scan_addable_contents(nu):
    out = []
    for i in range(1, nu.length + 2):
        if nu.row(i - 1) > nu.row(i) or i == 1:
            out.append(nu.row(i) + 1 - i)
    return out


def _scan_removable_contents(nu):
    out = []
    for i in range(1, nu.length + 1):
        if nu.row(i) > nu.row(i + 1):
            out.append(nu.row(i) - i)
    return out


def _scan_add_box(nu, a):
    if not isinstance(a, int):
        return None
    rows = nu.rows
    for i, r in enumerate(rows):
        c = r - i
        if c <= a:
            if c < a or (i and rows[i - 1] == r):
                return None
            return Partition(rows[:i] + (r + 1,) + rows[i + 1 :])
    if a == -len(rows):
        return Partition(rows + (1,))
    return None


def _scan_remove_box(nu, a):
    if not isinstance(a, int):
        return None
    rows = nu.rows
    last = len(rows) - 1
    for i, r in enumerate(rows):
        c = r - i - 1
        if c <= a:
            if c < a or (i < last and rows[i + 1] == r):
                return None
            return Partition(rows[:i] + ((r - 1,) if r > 1 else ()) + rows[i + 1 :])
    return None


def _scan_n_weight(nu, a):
    if _scan_add_box(nu, a) is not None:
        return 1
    if _scan_remove_box(nu, a) is not None:
        return -1
    return 0


NON_INTEGERS = (1.0, Fraction(1), "generic", True, None)


def test_box_table_matches_row_scans():
    for nu in partitions_up_to(8):
        assert nu.addable_contents() == _scan_addable_contents(nu), nu
        assert nu.removable_contents() == _scan_removable_contents(nu), nu
        for a in (*range(-10, 11), *NON_INTEGERS):
            assert nu.add_box(a) == _scan_add_box(nu, a), (nu, a)
            assert nu.remove_box(a) == _scan_remove_box(nu, a), (nu, a)
            assert n_weight(nu, a) == _scan_n_weight(nu, a), (nu, a)


def test_box_table_is_built_once_and_kept():
    nu = Partition((3, 1, 1))
    assert "box_table" not in nu.__dict__
    plus = nu.add_box(3)
    assert nu.box_table is nu.box_table
    assert nu.add_box(3) is plus and plus == Partition((4, 1, 1))


def test_box_table_leaves_object_contracts_unchanged():
    fresh = Partition((3, 1, 1))
    before = [pickle.dumps(fresh, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    nu = Partition((3, 1, 1))
    nu.add_box(0)
    assert "box_table" in nu.__dict__
    assert [pickle.dumps(nu, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)] == before
    for copy_of in (pickle.loads(pickle.dumps(nu)), copy.copy(nu), copy.deepcopy(nu)):
        assert "box_table" not in copy_of.__dict__
        assert copy_of == nu == fresh and hash(copy_of) == hash(nu) == hash(fresh)
        assert repr(copy_of) == repr(nu) == "Partition(rows=(3, 1, 1))"
        assert copy_of.add_box(0) == nu.add_box(0)
    assert sorted([Partition((3, 2)), nu, Partition((1,))]) == [Partition((1,)), nu, Partition((3, 2))]
    assert Partition((3, 2)) > nu > Partition((3, 1)) and nu >= fresh and nu <= fresh
    lam = Bipartition(nu, Partition((2,)))
    for copy_of in (pickle.loads(pickle.dumps(lam)), copy.copy(lam), copy.deepcopy(lam)):
        assert copy_of == lam and hash(copy_of) == hash(lam) and repr(copy_of) == repr(lam)
        assert copy_of.black.remove_box(-2) == Partition((3, 1))
