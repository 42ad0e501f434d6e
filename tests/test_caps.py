from itertools import combinations

import pytest

from gltcomb import caps
from gltcomb.caps import D_inverse, D_matrix, cap_scan, inverse_row, lift_row, mult_D
from gltcomb.diagrams import FAMILY_DPRIME, GENERIC, build_diagram
from gltcomb.matrices import BipartitionMatrix
from gltcomb.partitions import Bipartition, bipartitions_up_to
from reference import diagram_to_bipartition

VAC = Bipartition.of((), ())
ONE = Bipartition.of((1,), (1,))


def _caps_of(lam, t):
    """lam's dprime diagram and its caps, as cap_scan reads them."""
    d = build_diagram(lam, t, FAMILY_DPRIME)
    return d, tuple(cap_scan(d.symbols, d.window[0])[0])


# cap_scan pairs each cross with the nearest open circle to its left; these
# are the mirrors of the left-to-right strings "xoxo", "oxxoo", "xxo" and
# "x><o".
def test_cap_scan_basic():
    caps, open_crosses = cap_scan("oxox", 0)
    assert caps == [(0, 1), (2, 3)]
    assert open_crosses == []


def test_cap_scan_nested_and_unclosed():
    caps, open_crosses = cap_scan("ooxxo", 0)
    assert caps == [(0, 3), (1, 2)]  # the circle at 4 closes nothing
    assert open_crosses == []
    assert cap_scan("ooxxo", -4) == ([(-4, -1), (-3, -2)], [])
    _, leftover = cap_scan("oxx", 0)
    assert leftover == [2]


def test_cap_scan_ignores_arrows():
    caps, _ = cap_scan("o<>x", 0)
    assert caps == [(0, 3)]


def test_lambda_cap_goldens():
    goldens = {
        "[[],[]]": (),
        "[[1],[1]]": ((-1, 0),),
        "[[2,2],[2,2]]": ((-2, 1), (-1, 0)),
        "[[2,1],[2,1]]": ((-2, -1), (0, 1)),
    }
    for lam, caps in goldens.items():
        assert _caps_of(Bipartition.parse(lam), 0)[1] == caps
    row = {"[[2,2],[2,2]]", "[[2,1],[2,1]]", "[[1],[1]]", "[[],[]]"}
    assert lift_row(Bipartition.parse("[[2,2],[2,2]]"), 0).keys() == {Bipartition.parse(s) for s in row}


def test_worked_multiplicity_example():
    assert mult_D(ONE, VAC, 0) == 1
    assert mult_D(VAC, ONE, 0) == 0


def test_diagonal_is_one():
    for lam in bipartitions_up_to(3):
        for t in (-2, 0, 2, GENERIC):
            assert mult_D(lam, lam, t) == 1


def test_generic_t_is_delta():
    for lam in bipartitions_up_to(3):
        for mu in bipartitions_up_to(3):
            want = 1 if lam == mu else 0
            assert mult_D(lam, mu, GENERIC) == want


def test_stability_band():
    index = bipartitions_up_to(3)
    for lam in index:
        for mu in index:
            for t in range(-8, 9):
                if abs(t) > lam.size + mu.size:
                    want = 1 if lam == mu else 0
                    assert mult_D(lam, mu, t) == want


def test_nested_move_needs_inner_cap():
    # the vacuum block at t=0: moving only the outer cap of a nested pair is
    # not a standard-filtration multiplicity
    lam = Bipartition.of((2, 1), (2, 1))
    assert mult_D(lam, VAC, 0) == 0
    assert mult_D(lam, ONE, 0) == 1
    both = Bipartition.of((2, 2), (2, 2))
    assert mult_D(both, VAC, 0) == 1


def test_nested_caps_lift_to_both_ends():
    # [[2,2],[2,2]] at t=0 has two nested caps; moving only the inner one
    # gives [[2,1],[2,1]], moving only the outer one gives [[1],[1]]
    assert mult_D(Bipartition.of((2, 2), (2, 2)), ONE, 0) == 1


def test_moves_increase_size():
    for t in (-2, 0, 1):
        for lam in bipartitions_up_to(4):
            for mu in bipartitions_up_to(4):
                if lam != mu and mult_D(lam, mu, t):
                    assert lam.size > mu.size


def test_d_matrix_unitriangular_and_inverse():
    for t in (-1, 0, 2):
        d = D_matrix(t, 4)
        assert d.is_unitriangular()
        inv = D_inverse(t, 4)
        assert d.mul(inv) == BipartitionMatrix.identity(4)
        assert inv.mul(d) == BipartitionMatrix.identity(4)


def test_inverse_row_rejects_equal_size_off_diagonal(monkeypatch):
    """A row of D with an off-diagonal entry of its own size is not
    unitriangular in the size order: inverse_row raises instead of recursing."""
    lam, nu = Bipartition.of((), (1,)), Bipartition.of((1,), ())
    monkeypatch.setattr(caps, "lift_row", lambda lam_, t_: frozenset({lam_, nu}))
    with pytest.raises(ValueError):
        inverse_row.__wrapped__(lam, 0)  # past the cache, so the patched row is read


def all_pairs_d_matrix(t, n):
    """D(t) by brute force: mult_D on every pair of the index."""
    m = BipartitionMatrix(n)
    index = bipartitions_up_to(n)
    for lam in index:
        for mu in index:
            if mu.size <= lam.size and (v := mult_D(lam, mu, t)):
                m.set(lam, mu, v)
    return m


@pytest.mark.parametrize("n, t_values", [(6, range(-3, 4)), (5, range(-6, 7))])
def test_d_matrix_matches_all_pairs(n, t_values):
    for t in t_values:
        assert D_matrix(t, n) == all_pairs_d_matrix(t, n)


def test_d_matrix_generic_is_identity():
    assert D_matrix(GENERIC, 3) == BipartitionMatrix.identity(3)


def _reference_scan(symbols, offset=0):
    """The left-to-right parenthesis scan cap_scan replaced, kept as an
    independent reference: a cross opens and a circle closes."""
    stack, found = [], []
    for k, sym in enumerate(symbols):
        if sym == "x":
            stack.append(offset + k)
        elif sym == "o" and stack:
            found.append((stack.pop(), offset + k))
    return sorted(found)


def _reference_caps(lam, t):
    """lam's caps by the reference scan run on its mirrored diagram."""
    base = build_diagram(lam, t, FAMILY_DPRIME)
    found = _reference_scan(list(reversed(base.symbols)), offset=-base.window[1])
    return tuple(sorted((-r, -l) for l, r in found))


def _reference_row(lam, t):
    """A row of D built through the cap diagram: build_diagram's dprime
    window and cap_scan's caps, the symbol of every window position, then
    the tests' own decoder for every subset."""
    if t == GENERIC:
        return {lam: 1}
    diagram, caps = _caps_of(lam, t)
    left, right = diagram.window
    base = {s: diagram.symbol(s) for s in range(left, right + 1)}
    row = {lam: 1}
    for k in range(1, len(caps) + 1):
        for moved in combinations(caps, k):
            symbols = dict(base)
            for l, r in moved:
                symbols[l], symbols[r] = "x", "o"
            row[diagram_to_bipartition(symbols, t)] = 1
    return row


def test_lift_row_matches_the_cap_diagram_construction():
    # size 8 holds the first rows with two caps, whose order a subset order shows
    for lam in bipartitions_up_to(8):
        for t in [*range(-8, 9), GENERIC]:
            row, want = lift_row(lam, t), _reference_row(lam, t)
            assert row == want and list(row) == list(want), (lam, t)
            if t != GENERIC:
                assert _caps_of(lam, t)[1] == _reference_caps(lam, t), (lam, t)
