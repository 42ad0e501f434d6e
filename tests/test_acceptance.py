"""Acceptance suite: twelve numbered criteria, one reported line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines; each criterion is also an ordinary assertion.
"""

from itertools import combinations

from gltcomb import verify
from gltcomb.caps import mult_D
from gltcomb.grothendieck import hom_dim
from gltcomb.partitions import Bipartition

CFG = verify.VerifyConfig(t_values=tuple(range(-3, 4)), max_size=4, seed=0)

VAC = Bipartition.of((), ())
ONE = Bipartition.of((1,), (1,))


def report(num, name, result):
    ok = not result.failures if hasattr(result, "failures") else bool(result)
    line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if hasattr(result, "notes"):
        for note in result.notes:
            line += f"\n    note: {note}"
    print(line)
    if hasattr(result, "failures"):
        assert not result.failures, result.failures[:5]
    else:
        assert result


def test_criterion_01_golden_diagrams():
    report(1, "golden weight diagrams over -5..5", verify.check_golden_diagrams(CFG))


def test_criterion_02_transpose_lemma():
    res = verify.check_transpose_lemma(CFG, max_size=6, t_values=range(-4, 5))
    report(2, "transpose lemma, size <= 6, t in [-4,4]", res)


def test_criterion_03_equal_cores_weight_identity():
    res = verify.check_equal_cores_weights(CFG, pairs=500)
    assert res.instances >= 500
    report(3, "equal-cores weight identity on 500 cap-move pairs", res)


def test_criterion_04_worked_multiplicity_example():
    ok = mult_D(ONE, VAC, 0) == 1 and mult_D(VAC, ONE, 0) == 0
    report(4, "worked multiplicity example at t=0", ok)


def test_criterion_05_stability():
    res = verify.check_stability(CFG, max_size=4, t_range=10)
    report(5, "mult is delta outside the band |t| <= |lam|+|mu|", res)


def test_criterion_06_lr_oracle():
    res = verify.check_lr_oracle(CFG, total=8)
    report(6, "LR coefficients match the Schur product oracle, total <= 8", res)


def test_criterion_07_positivity_of_derived_matrices():
    res = verify.check_nonnegative(CFG, gen_range=4, t_values=range(-4, 5), max_size=5)
    above = verify.check_above_diagonal(CFG, gen_range=4, t_values=range(-4, 5), max_size=5)
    res.failures += above.failures
    res.instances += above.instances
    res.notes += above.notes
    report(7, "b(t), A_a(t) nonnegative and above-diagonal A = Atilde, N=5", res)


def test_criterion_08_fock_grothendieck_cross_check():
    res = verify.check_fock_consistency(CFG, gen_range=4, max_size=5, t_values=range(-3, 4))
    report(8, "tensor Fock matrices equal the box-calculus matrices, N=5", res)


def test_criterion_09_sl_relations():
    res = verify.check_commutators(CFG, gen_range=4, max_size=5)
    mats = verify.check_matrix_commutators(CFG, gen_range=4, max_size=5, t_values=range(-3, 4))
    res.failures += mats.failures
    res.instances += mats.instances
    report(9, "commutator relations in all modes and truncated matrices", res)


def _walled_brauer_matchings(vertices):
    """Perfect matchings where horizontal arcs join opposite colours on one
    row and vertical edges join equal colours across rows."""
    if not vertices:
        return 1
    first, rest = vertices[0], vertices[1:]
    total = 0
    for i, other in enumerate(rest):
        row1, colour1 = first
        row2, colour2 = other
        same_row = row1 == row2
        if (same_row and colour1 != colour2) or (not same_row and colour1 == colour2):
            total += _walled_brauer_matchings(rest[:i] + rest[i + 1:])
    return total


def test_criterion_10_hom_dimension_oracle():
    # End(V (x) V*): diagrams on one black and one white strand, two rows
    end_dim = _walled_brauer_matchings(
        [("top", "b"), ("top", "w"), ("bot", "b"), ("bot", "w")]
    )
    # Hom(1, V (x) V*): diagrams with an empty bottom row
    hom_one = _walled_brauer_matchings([("top", "b"), ("top", "w")])
    ok = (
        end_dim == 2
        and hom_one == 1
        and hom_dim(ONE, ONE, 0) == end_dim
        and hom_dim(VAC, ONE, 0) == hom_one
    )
    report(10, "Hom dimensions match walled-Brauer diagram counts", ok)


def test_criterion_11_cap_matching_uniqueness():
    res = verify.check_matching_uniqueness(CFG, diagrams=200)
    assert res.instances >= 200
    report(11, "nearest matching is the unique admissible matching", res)


def test_criterion_12_wedge_limit():
    res = verify.check_wedge_limit(CFG, max_k=5)
    report(12, "pi_n bijective onto the wedge basis for n >= k <= 5", res)


def test_cap_move_reachability_brute_force():
    """The 0/1 multiplicity equals brute-force reachability by moving the
    crosses of any subset of lam's caps to their circle ends (support for
    criteria 4, 5, 7).  The caps are scanned here from the diagram symbols
    on a wide window, not taken from gltcomb.caps."""
    from gltcomb.diagrams import CIRC, CROSS, FAMILY_DPRIME, build_diagram
    from gltcomb.partitions import bipartitions_up_to
    from reference import diagram_to_bipartition

    index = bipartitions_up_to(4)
    for t in (-1, 0, 1):
        for lam in index:
            d = build_diagram(lam, t, FAMILY_DPRIME)
            base = {s: d.symbol(s) for s in range(-8, 9)}
            open_circles, lam_caps = [], []
            for s in range(-8, 9):
                if base[s] == CIRC:
                    open_circles.append(s)
                elif base[s] == CROSS and open_circles:
                    lam_caps.append((open_circles.pop(), s))
            reachable = set()
            for k in range(len(lam_caps) + 1):
                for sub in combinations(lam_caps, k):
                    syms = dict(base)
                    for l, r in sub:
                        syms[l], syms[r] = CROSS, CIRC
                    reachable.add(diagram_to_bipartition(syms, t))
            for mu in index:
                assert mult_D(lam, mu, t) == (1 if mu in reachable else 0)


def test_positivity_at_n8():
    """b(t) and A_a(t) stay nonnegative at N=8; b(0,8) at
    ([[2,2],[2,2]], [[],[]]) needs the entry D_0([[2,2],[2,2]], [[1],[1]])."""
    res = verify.check_nonnegative(CFG, gen_range=4, t_values=range(-3, 4), max_size=8)
    assert res.failures == []
