"""The sparse verify checks: default-config counts, and injected defects that
each rewritten check must still report with its usual message."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import gltcomb
from gltcomb import caps, fock, grothendieck, lr, verify
from gltcomb.matrices import BipartitionMatrix, add_into
from gltcomb.partitions import Bipartition, Partition, bipartitions_up_to
from reference import commutator_defect

VAC = Bipartition.of((), ())
ONE = Bipartition.of((1,), (1,))
SMALL = verify.VerifyConfig(t_values=(-1, 0, 1), max_size=3)


@pytest.mark.parametrize("check, instances, notes", [
    (verify.check_above_diagonal, 28791, ["below-diagonal extra support entries observed: 2"]),
    (verify.check_matrix_commutators, 6174, []),
    (verify.check_eigen_support, 10108, []),
    (verify.check_order_compatibility, 285, []),
    (verify.check_commutators, 31104, []),
    (verify.check_lr_oracle, 1110, []),
    (verify.check_stability, 10336, []),
])
def test_default_config_counts(check, instances, notes):
    res = check(verify.VerifyConfig())
    assert (res.instances, res.failures, res.notes) == (instances, [], notes)


def test_above_diagonal_reports_extra_entries_in_index_order(monkeypatch):
    real = grothendieck.a_matrix

    def a_matrix(a, t, n, family=None):
        m = real(a, t, n, family)
        if (a, t) == (0, 0):
            m.set(VAC, Bipartition.of((2,), ()), 1)
            m.set(VAC, Bipartition.of((1, 1), ()), 1)
        return m

    monkeypatch.setattr(grothendieck, "a_matrix", a_matrix)
    res = verify.check_above_diagonal(SMALL, gen_range=1)
    assert res.instances == 873
    assert res.failures == [
        "above-diagonal differs: [[],[]], [[1,1],[]], a=0, t=0",
        "above-diagonal differs: [[],[]], [[2],[]], a=0, t=0",
    ]


def test_matrix_commutators_report_dropped_entry(monkeypatch):
    real = grothendieck.e_tilde

    def e_tilde(a, t, n, family=None):
        m = real(a, t, n, family)
        if (a, t) == (0, 0):
            m.set(Bipartition.of((1,), ()), VAC, 0)
        return m

    monkeypatch.setattr(grothendieck, "e_tilde", e_tilde)
    res = verify.check_matrix_commutators(SMALL, gen_range=1)
    assert res.instances == 216
    assert res.failures == [
        "matrix commutator: a=0, b=0, t=0, [[],[]]->[[],[]]",
        "matrix commutator: a=0, b=0, t=0, [[1],[]]->[[1],[]]",
        "matrix commutator: a=0, b=0, t=0, [[1],[1]]->[[],[]]",
    ]


def test_lr_checks_report_dropped_term(monkeypatch):
    real = lr.lr_product
    mu, kappa, dropped = Partition.of(2, 1), Partition.of(1), Partition.of(2, 2)

    def lr_product(mu_, kappa_):
        terms = real(mu_, kappa_)
        if (mu_, kappa_) == (mu, kappa):
            terms = {lam: c for lam, c in terms.items() if lam != dropped}
        return terms

    monkeypatch.setattr(lr, "lr_product", lr_product)
    assert verify.check_lr_oracle(SMALL).failures == ["lr mismatch: [2,2], [2,1], [1]"]
    assert verify.check_lr_symmetry(SMALL).failures == [
        "symmetry fails: [2,2], [1], [2,1]",
        "symmetry fails: [2,2], [2,1], [1]",
    ]


def test_eigen_support_reports_missing_label(monkeypatch):
    real = grothendieck.x_eigenvalue
    box = Bipartition.of((1,), ())
    monkeypatch.setattr(
        grothendieck, "x_eigenvalue",
        lambda lam, mu, t: None if (lam, mu, t) == (VAC, box, 0) else real(lam, mu, t),
    )
    res = verify.check_eigen_support(SMALL)
    assert res.failures == ["missing label: [[],[]]->[[1],[]], t=0"]


def test_order_compatibility_reports_wrong_way_lift(monkeypatch):
    real = caps.lift_row
    monkeypatch.setattr(
        caps, "lift_row", lambda lam, t: {**real(lam, t), ONE: 1} if (lam, t) == (VAC, 0) else real(lam, t)
    )
    res = verify.check_order_compatibility(SMALL)
    assert res.instances == 60
    assert res.failures == [
        "size order violated: [[],[]], [[1],[1]], t=0",
        "partial sums violated: [[],[]], [[1],[1]], t=0",
        "dominance violated: [[],[]], [[1],[1]], t=0",
    ]


def test_matrix_commutators_report_first_offending_column(monkeypatch):
    # E_1 gains vacuum -> [[],[1]], so row vacuum of E_1 F_0 picks up both
    # entries of F_0 [[],[1]]; the report names the first in index order
    real = grothendieck.e_tilde

    def e_tilde(a, t, n, family=None):
        m = real(a, t, n, family)
        if (a, t) == (1, 0):
            m.set(VAC, Bipartition.of((), (1,)), 1)
        return m

    monkeypatch.setattr(grothendieck, "e_tilde", e_tilde)
    res = verify.check_matrix_commutators(SMALL, gen_range=1)
    assert res.failures == [
        "matrix commutator: a=1, b=0, t=0, [[],[]]->[[],[]]",
        "matrix commutator: a=1, b=0, t=0, [[],[1]]->[[],[1]]",
    ]


def test_above_diagonal_ignores_equal_sizes_and_counts_below(monkeypatch):
    real = grothendieck.a_matrix

    def a_matrix(a, t, n, family=None):
        m = real(a, t, n, family)
        if (a, t) == (0, 0):
            m.set(Bipartition.of((1,), ()), Bipartition.of((), (1,)), 1)
            m.set(Bipartition.of((2,), ()), VAC, 1)
        return m

    monkeypatch.setattr(grothendieck, "a_matrix", a_matrix)
    res = verify.check_above_diagonal(SMALL, gen_range=1)
    assert res.failures == []
    assert res.notes == ["below-diagonal extra support entries observed: 1"]


def test_dimension_oracle_at_n8():
    # without D_0([[2,2],[2,2]], [[1],[1]]) the sum at [[2,2],[2,2]], t=0 is 1, not 0
    cfg = verify.VerifyConfig(t_values=tuple(range(0, 6)), max_size=8)
    res = verify.check_dimension_oracle(cfg)
    assert (res.instances, res.failures) == (6 * 434, [])


def test_dimension_oracle_reports_dropped_entry(monkeypatch):
    real = caps.D_matrix

    def D_matrix(t, n):
        m = BipartitionMatrix(n, dict(real(t, n).rows))
        if t == 0:
            m.rows[ONE] = dict(m.rows[ONE])  # D's rows are lift_row's own: edit a copy
            m.set(ONE, VAC, 0)
        return m

    monkeypatch.setattr(caps, "D_matrix", D_matrix)
    res = verify.check_dimension_oracle(SMALL)
    assert res.failures == ["dimension sum -1 != 0: [[1],[1]], t=0"]
    assert VAC in caps.lift_row(ONE, 0)  # the defect did not reach the shared row


def _lagrange_at(low, values, m):
    """The polynomial through (low + k, values[k]) at m, by exact Fraction
    Lagrange interpolation."""
    nodes = range(low, low + len(values))
    total = Fraction(0)
    for xi, yi in zip(nodes, values):
        num, den = yi, 1
        for xj in nodes:
            if xj != xi:
                num *= m - xj
                den *= xi - xj
        total += Fraction(num, den)
    return total


def test_dimension_polynomial_matches_lagrange():
    """P_nu(m), El Samra-King's product, against the Lagrange interpolant of
    Weyl dimensions at the ranks L, ..., L + |nu| with L = l(black) +
    l(white), for m in [-6, 6]: negative ranks and ranks below L included."""
    for nu in bipartitions_up_to(8):
        low = nu.black.length + nu.white.length
        values = [verify._weyl_dim(nu, low + k) for k in range(nu.size + 1)]
        for m in range(-6, 7):
            got = verify._dim_polynomial_at(nu, m)
            assert type(got) is int and got == _lagrange_at(low, values, m), (nu, m)


def _commutators_reference(cfg, gen_range=None, max_size=None):
    """The loop check_commutators replaced: commutator_defect per instance."""
    res = verify.CheckResult("fock.commutators", 0)
    rng = gen_range if gen_range is not None else min(cfg.max_size, 4)
    bound = max_size if max_size is not None else cfg.max_size
    for mode in verify._modes(cfg):
        for key in verify._mode_basis(mode, bound):
            vec = {key: 1}
            for a in range(-rng, rng + 1):
                for b in range(-rng, rng + 1):
                    res.instances += 1
                    if commutator_defect(a, b, mode, vec):
                        res.failures.append(f"mode {mode.kind}, key {key}, a={a}, b={b}")
    return res


ACCEPTANCE = verify.VerifyConfig(t_values=tuple(range(-3, 4)), max_size=4, seed=0)


@pytest.mark.parametrize("cfg, kwargs, instances", [
    (verify.VerifyConfig(), {}, 31104),
    (ACCEPTANCE, {"gen_range": 4, "max_size": 5}, 56619),
])
def test_commutators_match_commutator_defect(cfg, kwargs, instances):
    got = verify.check_commutators(cfg, **kwargs)
    assert got == _commutators_reference(cfg, **kwargs)
    assert (got.instances, got.failures) == (instances, [])


@pytest.mark.parametrize("gen, a, key, stray", [
    ("f", 0, Partition.of(1), Partition.of(3)),
    ("e", -1, Bipartition.of((1,), (1,)), Bipartition.of((2,), ())),
])
def test_commutators_report_stray_term_like_commutator_defect(monkeypatch, gen, a, key, stray):
    # a stray term in one key's image, which check_commutators reads
    # directly and commutator_defect through apply_generator's linear
    # extension
    real = fock.images

    def images(g, mode, k):
        out = real(g, mode, k)
        if g == gen and k == key:
            out[a] = dict(out.get(a, {}))
            add_into(out[a], stray, 1)
        return out

    monkeypatch.setattr(fock, "images", images)
    got = verify.check_commutators(SMALL, gen_range=2)
    want = _commutators_reference(SMALL, gen_range=2)
    assert got.failures and got == want


def test_commutators_report_wrong_weight_where_no_generator_moves(monkeypatch):
    # h_2 off by one on the empty partition, where e_2 and f_2 both give 0
    # in the plain and shifted modules, so only the a = b term
    # carries the defect
    real = fock.h_eigenvalue

    def h_eigenvalue(a, mode, key):
        return real(a, mode, key) + (1 if (a, key) == (2, Partition()) else 0)

    monkeypatch.setattr(fock, "h_eigenvalue", h_eigenvalue)
    got = verify.check_commutators(SMALL, gen_range=2)
    want = _commutators_reference(SMALL, gen_range=2)
    assert got.failures and got == want


def _matrix_commutators_reference(cfg, gen_range=None, max_size=None, t_values=None):
    """The whole-matrix products check_matrix_commutators replaced: F_b E_a
    and E_a F_b by BipartitionMatrix.mul, read on the rows of size below the
    bound."""
    res = verify.CheckResult("grothendieck.matrix-commutators", 0)
    rng = gen_range if gen_range is not None else min(cfg.max_size, 3)
    bound = max_size if max_size is not None else cfg.max_size
    index = bipartitions_up_to(bound)
    pos = {bp: i for i, bp in enumerate(index)}
    interior = [bp for bp in index if bp.size <= bound - 1]
    gens = range(-rng, rng + 1)
    for t in t_values if t_values is not None else cfg.t_values:
        f_mats = {b: grothendieck.a_tilde(b, t, bound) for b in gens}
        e_mats = {a: grothendieck.e_tilde(a, t, bound) for a in gens}
        for a in gens:
            for b in gens:
                # row-vector convention: F then E is f_mat.mul(e_mat)
                fe, ef = f_mats[b].mul(e_mats[a]).rows, e_mats[a].mul(f_mats[b]).rows
                res.instances += len(interior)
                for lam in interior:
                    diff = dict(fe.get(lam, {}))
                    for mu, v in ef.get(lam, {}).items():
                        diff[mu] = diff.get(mu, 0) - v
                    if a == b:
                        diff[lam] = diff.get(lam, 0) - fock.h_eigenvalue(a, fock.Mode.tensor(t), lam)
                    bad = [pos[mu] for mu, v in diff.items() if v]
                    if bad:
                        res.failures.append(f"matrix commutator: a={a}, b={b}, t={t}, {lam}->{index[min(bad)]}")
    return res


@pytest.mark.parametrize("cfg, kwargs, instances", [
    (verify.VerifyConfig(), {}, 6174),
    (ACCEPTANCE, {"gen_range": 4, "max_size": 5, "t_values": range(-3, 4)}, 21546),
    (SMALL, {"gen_range": 1}, 216),
])
def test_matrix_commutators_match_whole_matrix_products(cfg, kwargs, instances):
    got = verify.check_matrix_commutators(cfg, **kwargs)
    assert got == _matrix_commutators_reference(cfg, **kwargs)
    assert (got.instances, got.failures) == (instances, [])


def test_matrix_commutators_report_f_side_defect_like_whole_matrix_products(monkeypatch):
    # F_0 gains vacuum -> [[],[1]] at t = 0; the defects already pinned
    # above all edit E
    real = grothendieck.a_tilde

    def a_tilde(a, t, n, family=None):
        m = real(a, t, n, family)
        if (a, t) == (0, 0):
            m.set(VAC, Bipartition.of((), (1,)), 1)
        return m

    monkeypatch.setattr(grothendieck, "a_tilde", a_tilde)
    got = verify.check_matrix_commutators(SMALL, gen_range=1)
    assert got == _matrix_commutators_reference(SMALL, gen_range=1)
    assert len(got.failures) == 3
    assert got.failures[0] == "matrix commutator: a=-1, b=0, t=0, [[],[]]->[[],[2]]"


def _stability_reference(cfg, max_size=None, t_range=10):
    """The index x index x t loop check_stability replaced."""
    res = verify.CheckResult("caps.stability", 0)
    index = bipartitions_up_to(max_size if max_size is not None else cfg.max_size)
    for lam in index:
        for mu in index:
            for t in range(-t_range, t_range + 1):
                if abs(t) <= lam.size + mu.size:
                    continue
                res.instances += 1
                if caps.mult_D(lam, mu, t) != (1 if lam == mu else 0):
                    res.failures.append(f"stability fails: {lam}, {mu}, t={t}")
    return res


@pytest.mark.parametrize("kwargs", [{}, {"max_size": 3, "t_range": 8}, {"max_size": 5, "t_range": 12}])
def test_stability_matches_triple_loop(kwargs):
    got = verify.check_stability(verify.VerifyConfig(), **kwargs)
    assert got == _stability_reference(verify.VerifyConfig(), **kwargs)
    assert not got.failures


def test_stability_reports_row_defects_like_triple_loop(monkeypatch):
    # drop lam from its own row at one t, and add mu before and after lam in
    # index order at others, and one outside the index, which no loop reaches
    real = caps.lift_row
    lam = Bipartition.of((1,), ())

    def lift_row(row_lam, t):
        row = dict(real(row_lam, t))
        if row_lam == lam and t == -6:
            row.pop(lam, None)
        if row_lam == lam and t in (5, 7):
            row.update(dict.fromkeys([VAC, ONE, Bipartition.of((2, 1), (1,)), Bipartition.of((5,), ())], 1))
        if row_lam == ONE and t == 9:
            row[Bipartition.of((), (1,))] = 1
        return row

    monkeypatch.setattr(caps, "lift_row", lift_row)
    got = verify.check_stability(verify.VerifyConfig())
    assert got == _stability_reference(verify.VerifyConfig())
    assert got.failures == [
        "stability fails: [[1],[]], [[],[]], t=5",
        "stability fails: [[1],[]], [[],[]], t=7",
        "stability fails: [[1],[]], [[1],[]], t=-6",
        "stability fails: [[1],[]], [[1],[1]], t=5",
        "stability fails: [[1],[]], [[1],[1]], t=7",
        "stability fails: [[1],[]], [[2,1],[1]], t=7",
        "stability fails: [[1],[1]], [[],[1]], t=9",
    ]


# Every box rule reads Partition.box_table, so one content missing from one
# partition's table must show in run_all.  A fresh interpreter builds every
# table under the defect and leaves this process's tables intact.
DROPPED_CONTENT = """
from gltcomb import partitions, verify

real = partitions._box_table


def box_table(rows):
    adds, removes = real(rows)
    if rows == (2, 1):
        del adds[0]
    return adds, removes


partitions._box_table = box_table
cfg = verify.VerifyConfig(t_values=(-1, 0, 1), max_size=4)
print(" ".join(r.name for r in verify.run_all(cfg) if r.failures))
"""


def test_run_all_reports_a_content_missing_from_a_box_table():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gltcomb.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", DROPPED_CONTENT], env=env,
                          capture_output=True, text=True, check=True)
    failing = set(proc.stdout.split())
    assert {"partitions.corner-count", "partitions.add-remove-inverse", "fock.commutators"} <= failing


# lift_row and check_matching_uniqueness both read caps.cap_scan, so one cap
# dropped by the scan must show in run_all's dimension oracle and in the
# matching-uniqueness check, both in a fresh interpreter as above.
DROPPED_CAP = """
from gltcomb import caps, verify

real = caps.cap_scan


def cap_scan(symbols, left):
    found, stack = real(symbols, left)
    return found[1:], stack


caps.cap_scan = cap_scan
cfg = verify.VerifyConfig(t_values=(-1, 0, 1), max_size=4)
print(" ".join(r.name for r in verify.run_all(cfg) if r.failures))
print("uniqueness", "pass" if verify.check_matching_uniqueness(cfg, diagrams=200).ok else "fail")
"""


def test_run_all_reports_a_cap_dropped_by_the_scan():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gltcomb.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", DROPPED_CAP], env=env,
                          capture_output=True, text=True, check=True)
    failing, uniqueness = proc.stdout.splitlines()
    assert {"caps.dimension-oracle", "caps.matching-uniqueness"} <= set(failing.split())
    assert uniqueness == "uniqueness fail"
