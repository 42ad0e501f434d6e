"""Named invariant checks runnable from the CLI.

Each check exercises one documented property over a configurable range and
reports the number of instances tested plus any failures; the report order
is fixed so identical arguments produce identical output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import prod

from . import caps as caps_mod
from . import diagrams as diag_mod
from . import fock as fock_mod
from . import grothendieck as groth_mod
from . import lr as lr_mod
from .diagrams import CIRC, CROSS, FAMILY_D, FAMILY_DPRIME, GENERIC, build_diagram
from .matrices import BipartitionMatrix, add_into
from .partitions import (
    Bipartition,
    bipartitions_up_to,
    n_weight,
    partitions_of,
    partitions_up_to,
    sort_key,
)


@dataclass
class CheckResult:
    name: str
    instances: int
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class VerifyConfig:
    t_values: tuple[int, ...] = (-3, -2, -1, 0, 1, 2, 3)
    max_size: int = 4
    seed: int = 0


GOLDEN_DIAGRAMS = [
    (FAMILY_D, Bipartition.of((), ()), 0, "xxxxxoooooo"),
    (FAMILY_DPRIME, Bipartition.of((), ()), 0, "xxxxxoooooo"),
    (FAMILY_D, Bipartition.of((2,), (2,)), 1, "xxxx>o<>ooo"),
    (FAMILY_DPRIME, Bipartition.of((2,), (2,)), 1, "xxx>x<o>ooo"),
    (FAMILY_DPRIME, Bipartition.of((2,), (1, 1)), 1, "xxxx>o<>ooo"),
]


def check_box_roundtrip(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("partitions.add-remove-inverse", 0)
    for nu in partitions_up_to(cfg.max_size):
        for a in range(-cfg.max_size - 1, cfg.max_size + 2):
            res.instances += 1
            plus = nu.add_box(a)
            if plus is not None and plus.remove_box(a) != nu:
                res.failures.append(f"add/remove at {a} not inverse on {nu}")
            minus = nu.remove_box(a)
            if minus is not None and minus.add_box(a) != nu:
                res.failures.append(f"remove/add at {a} not inverse on {nu}")
    return res


def check_corner_count(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("partitions.corner-count", 0)
    for nu in partitions_up_to(cfg.max_size):
        res.instances += 1
        if len(nu.addable_contents()) != len(nu.removable_contents()) + 1:
            res.failures.append(f"corner count off for {nu}")
    return res


def check_transpose_corners(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("partitions.transpose-corners", 0)
    for nu in partitions_up_to(cfg.max_size):
        for a in range(-cfg.max_size - 1, cfg.max_size + 2):
            res.instances += 1
            plus = nu.add_box(a)
            mirror = nu.transpose().add_box(-a)
            if (plus is None) != (mirror is None):
                res.failures.append(f"transpose corner mismatch on {nu}, a={a}")
            elif plus is not None and plus.transpose() != mirror:
                res.failures.append(f"transpose add differs on {nu}, a={a}")
    return res


def check_golden_diagrams(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("diagrams.golden-examples", 0)
    for family, lam, t, expected in GOLDEN_DIAGRAMS:
        res.instances += 1
        d = build_diagram(lam, t, family)
        got = "".join(d.symbol(s) for s in range(-5, 6))
        if got != expected:
            res.failures.append(f"{family} of {lam} at t={t}: {got} != {expected}")
    return res


def check_transpose_lemma(cfg: VerifyConfig, max_size: int | None = None, t_values=None) -> CheckResult:
    res = CheckResult("diagrams.transpose-lemma", 0)
    for lam in bipartitions_up_to(max_size if max_size is not None else cfg.max_size):
        conj = lam.conjugate()
        for t in t_values if t_values is not None else cfg.t_values:
            d = build_diagram(lam, t, FAMILY_D)
            dp = build_diagram(conj, t, FAMILY_DPRIME)
            left = min(d.window[0], dp.window[0])
            right = max(d.window[1], dp.window[1])
            for s in range(left, right + 1):
                res.instances += 1
                if d.symbol(s) != dp.symbol(s):
                    res.failures.append(f"{lam}, t={t}, s={s}")
    return res


def check_partition_of_z(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("diagrams.partition-of-z", 0)
    bound = 2 * cfg.max_size + 4
    for kappa in partitions_up_to(cfg.max_size):
        trans = kappa.transpose()
        lo = max(kappa.length, kappa.size) + 2
        beta = {kappa.row(i) - i for i in range(1, lo + bound)}
        cobeta = {i - trans.row(i) - 1 for i in range(1, lo + bound)}
        for s in range(-bound, bound + 1):
            res.instances += 1
            if (s in beta) == (s in cobeta):
                res.failures.append(f"kappa={kappa}, s={s}")
    return res


def cap_move_pair(rng: random.Random, t: int, max_size: int) -> tuple[Bipartition, Bipartition]:
    """A random bipartition and a partner drawn uniformly from its row of
    D(t), one per subset of its caps, so each subset of cap moves is equally
    likely (cross moves preserve the core)."""
    pool = partitions_up_to(max_size)
    lam = Bipartition(rng.choice(pool), rng.choice(pool))
    return lam, rng.choice(list(caps_mod.lift_row(lam, t)))


def check_equal_cores_weights(cfg: VerifyConfig, pairs: int = 200) -> CheckResult:
    res = CheckResult("diagrams.equal-cores-weights", 0)
    rng = random.Random(cfg.seed)
    for _ in range(pairs):
        t = rng.choice(cfg.t_values)
        lam, mu = cap_move_pair(rng, t, cfg.max_size)
        res.instances += 1
        if not diag_mod.same_core(lam, mu, t):
            res.failures.append(f"cap move broke the core: {lam}, {mu}, t={t}")
            continue
        lhs, rhs = fock_mod.tensor_weight(lam, t), fock_mod.tensor_weight(mu, t)
        differ = [a for a in lhs.keys() | rhs.keys() if lhs.get(a, 0) != rhs.get(a, 0)]
        if differ:
            res.failures.append(f"weight identity fails: {lam}, {mu}, t={t}, a={min(differ)}")
    return res


def check_generic_symbols(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("diagrams.generic-symbols", 0)
    for lam in bipartitions_up_to(cfg.max_size):
        for family in (FAMILY_D, FAMILY_DPRIME):
            left, right = diag_mod.stable_window(lam, GENERIC, family)
            for s in range(left - 2, right + 3):
                res.instances += 1
                sym = diag_mod.symbol_at(lam, GENERIC, family, s)
                if sym not in (CIRC, "<"):
                    res.failures.append(f"{family} of {lam}: symbol {sym} at {s}")
    return res


def check_tails(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("diagrams.tails", 0)
    for lam in bipartitions_up_to(cfg.max_size):
        for t in cfg.t_values:
            for family in (FAMILY_D, FAMILY_DPRIME):
                left, right = diag_mod.stable_window(lam, t, family)
                for s in list(range(left - 4, left)) + list(range(right + 1, right + 5)):
                    res.instances += 1
                    sym = diag_mod.symbol_at(lam, t, family, s)
                    want = CROSS if s < left else CIRC
                    if sym != want:
                        res.failures.append(f"{family} of {lam}, t={t}, s={s}: {sym}")
    return res


def check_example_multiplicity(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("caps.example-multiplicity", 2)
    one = Bipartition.of((1,), (1,))
    vac = Bipartition.of((), ())
    if caps_mod.mult_D(one, vac, 0) != 1:
        res.failures.append("mult(box-box, vacuum, 0) != 1")
    if caps_mod.mult_D(vac, one, 0) != 0:
        res.failures.append("mult(vacuum, box-box, 0) != 0")
    return res


def check_unitriangular(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("caps.unitriangular", 0)
    for t in cfg.t_values:
        res.instances += 1
        if not caps_mod.D_matrix(t, cfg.max_size).is_unitriangular():
            res.failures.append(f"D matrix not unitriangular at t={t}")
    return res


def check_stability(cfg: VerifyConfig, max_size: int | None = None, t_range: int = 10) -> CheckResult:
    """D_t(lam, mu) = [lam == mu] for every lam, mu in the index with
    |t| > |lam| + |mu|.  Each row lift_row(lam, t) the range reaches is read
    once; failures are reported by lam, then mu in index order, then t."""
    res = CheckResult("caps.stability", 0)
    bound = max_size if max_size is not None else cfg.max_size
    for lam in bipartitions_up_to(bound):
        bad: list[tuple[Bipartition, int]] = []
        for t in range(-t_range, t_range + 1):
            # the mu tested at t are the prefix of the index of size below room
            room = min(abs(t) - lam.size, bound + 1)
            if room <= 0:
                continue
            res.instances += len(bipartitions_up_to(room - 1))
            row = caps_mod.lift_row(lam, t)
            if lam.size < room and lam not in row:
                bad.append((lam, t))
            bad.extend((mu, t) for mu in row if mu != lam and mu.size < room)
        bad.sort(key=lambda mu_t: (sort_key(mu_t[0]), mu_t[1]))
        res.failures.extend(f"stability fails: {lam}, {mu}, t={t}" for mu, t in bad)
    return res


def _weyl_dim(lam: Bipartition, m: int) -> int:
    """Weyl's dimension of the GL_m irreducible of highest weight
    (lam.black, 0, ..., 0, -reversed lam.white); needs l(black) + l(white) <= m."""
    zeros = m - lam.black.length - lam.white.length
    w = list(lam.black.rows) + [0] * zeros + [-r for r in reversed(lam.white.rows)]
    num = den = 1
    for j in range(m):
        for i in range(j):
            num *= w[i] - w[j] + j - i
            den *= j - i
    return num // den


def _dim_polynomial_at(nu: Bipartition, m: int) -> int:
    """P_nu(m), the generic dimension polynomial of the standard of nu, by El
    Samra-King's product (J. Phys. A 12, 1979): for each part, the factors
    m + c over its box contents c divided by its hook lengths; times, for each
    row i of black and j of white, with x = m + 1 - i - j,
    (x + black_i + white_j) x / ((x + black_i)(x + white_j)).  Every factor
    is a nonzero constant or monic linear in m, so at an integer m the
    vanishing ones cancel in pairs: P_nu(m) is 0 when the numerator has more
    of them, and otherwise the exact quotient of the nonzero factors."""
    num: list[int] = []
    den: list[int] = []
    for part in (nu.black, nu.white):
        cols = part.transpose().rows
        for i, row in enumerate(part.rows, start=1):
            for j in range(1, row + 1):
                num.append(m + j - i)
                den.append(row - j + cols[j - 1] - i + 1)
    for i, a in enumerate(nu.black.rows, start=1):
        for j, b in enumerate(nu.white.rows, start=1):
            x = m + 1 - i - j
            num += (x + a + b, x)
            den += (x + a, x + b)
    if num.count(0) > den.count(0):
        return 0
    return prod(f for f in num if f) // prod(f for f in den if f)


def check_dimension_oracle(cfg: VerifyConfig) -> CheckResult:
    """Deligne's functor at t = m >= 0 sends the tilting of lam to V_m(lam),
    or to 0 when l(black) + l(white) > m, and a standard of nu has dimension
    P_nu(m); so each row of D(m) must weigh the P_nu to dim V_m(lam).  The
    dimensions come from Weyl's and El Samra-King's products, with no cap
    diagram."""
    res = CheckResult("caps.dimension-oracle", 0)
    index = bipartitions_up_to(cfg.max_size)
    for m in cfg.t_values:
        if m < 0:
            continue
        rows = caps_mod.D_matrix(m, cfg.max_size).rows
        for lam in index:
            res.instances += 1
            got = sum(v * _dim_polynomial_at(nu, m) for nu, v in rows.get(lam, {}).items())
            want = _weyl_dim(lam, m) if lam.black.length + lam.white.length <= m else 0
            if got != want:
                res.failures.append(f"dimension sum {got} != {want}: {lam}, t={m}")
    return res


def _enumerate_matchings(symbols: str) -> list[tuple[tuple[int, int], ...]]:
    """All matchings of every cross to a circle on its left, as (circle,
    cross) pairs, satisfying the non-crossing and covered-circle conditions."""
    xs = [i for i, s in enumerate(symbols) if s == CROSS]
    os = [i for i, s in enumerate(symbols) if s == CIRC]
    found: list[tuple[tuple[int, int], ...]] = []

    def ok(caps: list[tuple[int, int]]) -> bool:
        for i, (a, b) in enumerate(caps):
            for c, d in caps[i + 1 :]:
                if a < c < b < d or c < a < d < b:
                    return False
        circles = {a for a, _ in caps}
        for a, b in caps:
            for p in range(a + 1, b):
                if symbols[p] == CIRC and p not in circles:
                    return False
        return True

    def rec(k: int, used: set[int], caps: list[tuple[int, int]]):
        if k == len(xs):
            if ok(caps):
                found.append(tuple(sorted(caps)))
            return
        x = xs[k]
        for o in os:
            if o < x and o not in used:
                used.add(o)
                caps.append((o, x))
                rec(k + 1, used, caps)
                caps.pop()
                used.remove(o)

    rec(0, set(), [])
    return found


def check_matching_uniqueness(cfg: VerifyConfig, diagrams: int = 60) -> CheckResult:
    res = CheckResult("caps.matching-uniqueness", 0)
    rng = random.Random(cfg.seed + 2)
    for _ in range(diagrams):
        length = rng.randrange(4, 11)
        symbols = "".join(rng.choice([CROSS, CIRC, "<", ">"]) for _ in range(length))
        _, open_crosses = caps_mod.cap_scan(symbols, 0)
        symbols = CIRC * len(open_crosses) + symbols
        if len(symbols) > 12:
            symbols = symbols[-12:]
            _, open_crosses = caps_mod.cap_scan(symbols, 0)
            symbols = CIRC * len(open_crosses) + symbols
        res.instances += 1
        scan_caps, _ = caps_mod.cap_scan(symbols, 0)
        matchings = _enumerate_matchings(symbols)
        if len(matchings) != 1 or matchings[0] != tuple(scan_caps):
            res.failures.append(f"matching not unique/nearest for {symbols}")
    return res


def check_order_compatibility(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("caps.order-compatibility", 0)
    for t in cfg.t_values:
        # every mu of lam's row in the index, in index order; a wrong-way
        # lift is caught
        for lam in bipartitions_up_to(cfg.max_size):
            row = caps_mod.lift_row(lam, t)
            for mu in sorted((mu for mu in row if mu.size <= cfg.max_size), key=sort_key):
                res.instances += 1
                if lam.size < mu.size:
                    res.failures.append(f"size order violated: {lam}, {mu}, t={t}")
                if not fock_mod.black_sums_dominate(lam, mu):
                    res.failures.append(f"partial sums violated: {lam}, {mu}, t={t}")
                if not fock_mod.dominance_leq(lam, mu, t):
                    res.failures.append(f"dominance violated: {lam}, {mu}, t={t}")
    return res


def check_lr_oracle(cfg: VerifyConfig, total: int | None = None) -> CheckResult:
    res = CheckResult("lr.oracle-agreement", 0)
    bound = total if total is not None else min(cfg.max_size + 2, 8)
    for mu in partitions_up_to(bound):
        for kappa in partitions_up_to(bound - mu.size):
            nvars = max(mu.length + kappa.length, 1)
            expansion = lr_mod.schur_product_oracle(mu, kappa, nvars)
            terms = lr_mod.lr_product(mu, kappa)
            for lam in partitions_of(mu.size + kappa.size):
                res.instances += 1
                if terms.get(lam, 0) != expansion.get(lam, 0):
                    res.failures.append(f"lr mismatch: {lam}, {mu}, {kappa}")
    return res


def check_lr_symmetry(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("lr.symmetry", 0)
    bound = min(cfg.max_size + 2, 7)
    for mu in partitions_up_to(bound):
        for kappa in partitions_up_to(bound - mu.size):
            terms, swapped = lr_mod.lr_product(mu, kappa), lr_mod.lr_product(kappa, mu)
            for lam in partitions_up_to(mu.size + kappa.size):
                res.instances += 1
                if terms.get(lam, 0) != swapped.get(lam, 0):
                    res.failures.append(f"symmetry fails: {lam}, {mu}, {kappa}")
    return res


def check_lr_grading(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("lr.grading", 0)
    bound = min(cfg.max_size + 1, 5)
    for lam in partitions_up_to(bound):
        for mu in partitions_up_to(bound):
            for kappa in partitions_up_to(bound):
                res.instances += 1
                c = lr_mod.lr_coeff(lam, mu, kappa)
                if c < 0 or (c != 0 and lam.size != mu.size + kappa.size):
                    res.failures.append(f"grading fails: {lam}, {mu}, {kappa}")
    return res


def check_b_unitriangular(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("lr.b-unitriangular", 1)
    if not lr_mod.B_matrix(cfg.max_size).is_unitriangular():
        res.failures.append("B is not unitriangular")
    return res


def _modes(cfg: VerifyConfig) -> list[fock_mod.Mode]:
    modes = [fock_mod.Mode.plain(), fock_mod.Mode.shifted_dual(0), fock_mod.Mode.tautological()]
    for t in cfg.t_values:
        modes.append(fock_mod.Mode.shifted_dual(t))
        modes.append(fock_mod.Mode.tensor(t))
    modes.append(fock_mod.Mode.wedge(3))
    return list(dict.fromkeys(modes))  # shifted_dual(0) is also the t-loop's at t = 0


def _mode_basis(mode: fock_mod.Mode, max_size: int):
    if mode.kind in ("plain", "shifted"):
        return partitions_up_to(max_size)
    if mode.kind == "tensor":
        return bipartitions_up_to(max_size)
    if mode.kind == "taut":
        return range(-max_size - 1, max_size + 2)
    if mode.kind == "wedge":
        return fock_mod.wedge_basis(mode.n, max_size)
    raise ValueError(mode.kind)


def _commutator_defects(keys, gens, images_of, h):
    """Every (v, a, b, defect) with a nonzero defect (e_a f_b - f_b e_a -
    delta_ab h_a)(v), for v in keys and a, b in gens: the one assembly of the
    sl_Z relation, by linearity from images_of(gen, key), the nonzero images
    {a: gen_a(key)} under gen "e" or "f", and h(a, v), the h_a eigenvalue.
    The defect on v is 0 unless e_a v != 0, f_b v != 0 or a = b, so only those
    (a, b) are assembled, in the order of the full loop over keys, a and b."""
    for key in keys:
        # e_a f_b v sums the e-images of the terms of f_b v, and f_b e_a v
        # the f-images of the terms of e_a v
        e_after_f = {
            b: [(c, images_of("e", mid)) for mid, c in f_v.items()]
            for b, f_v in images_of("f", key).items()
            if b in gens
        }
        f_after_e = {
            a: [(c, images_of("f", mid)) for mid, c in e_v.items()]
            for a, e_v in images_of("e", key).items()
            if a in gens
        }
        for a in gens:
            e_side = f_after_e.get(a, ())
            for b in gens if e_side else sorted({a, *e_after_f}):
                defect: fock_mod.Vector = {}
                for c, e_images in e_after_f.get(b, ()):
                    for out, c2 in e_images.get(a, {}).items():
                        add_into(defect, out, c * c2)
                for c, f_images in e_side:
                    for out, c2 in f_images.get(b, {}).items():
                        add_into(defect, out, -c * c2)
                if a == b:
                    add_into(defect, key, -h(a, key))
                if defect:
                    yield key, a, b, defect


def check_commutators(cfg: VerifyConfig, gen_range: int | None = None, max_size: int | None = None) -> CheckResult:
    """[e_a, f_b] = delta_ab h_a on every basis vector of every mode, from the
    images of single basis vectors, each built once per mode; every (a, b)
    counts as an instance."""
    res = CheckResult("fock.commutators", 0)
    rng = gen_range if gen_range is not None else min(cfg.max_size, 4)
    bound = max_size if max_size is not None else cfg.max_size
    gens = range(-rng, rng + 1)
    for mode in _modes(cfg):
        memo: dict = {}

        def images_of(gen: str, key) -> dict[int, fock_mod.Vector]:
            got = memo.get((gen, key))
            if got is None:
                got = memo[(gen, key)] = fock_mod.images(gen, mode, key)
            return got

        keys = _mode_basis(mode, bound)
        res.instances += len(gens) ** 2 * len(keys)
        for key, a, b, _ in _commutator_defects(
                keys, gens, images_of, lambda a, key: fock_mod.h_eigenvalue(a, mode, key)):
            res.failures.append(f"mode {mode.kind}, key {key}, a={a}, b={b}")
    return res


def check_serre(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("fock.serre", 0)
    mode = fock_mod.Mode.plain()
    rng = min(cfg.max_size, 3)

    def f(a, v):
        return fock_mod.apply_generator("f", a, mode, v)

    for nu in partitions_up_to(min(cfg.max_size, 4)):
        vec = {nu: 1}
        for a in range(-rng, rng + 1):
            for b in range(-rng, rng + 1):
                if abs(a - b) >= 2:
                    res.instances += 1
                    lhs = f(a, f(b, vec))
                    rhs = f(b, f(a, vec))
                    if lhs != rhs:
                        res.failures.append(f"[f{a}, f{b}] != 0 on {nu}")
                elif abs(a - b) == 1:
                    res.instances += 1
                    out = f(a, f(a, f(b, vec)))
                    for key, c in f(a, f(b, f(a, vec))).items():
                        add_into(out, key, -2 * c)
                    for key, c in f(b, f(a, f(a, vec))).items():
                        add_into(out, key, c)
                    if out:
                        res.failures.append(f"Serre fails for a={a}, b={b} on {nu}")
    return res


def check_omega(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("fock.omega-recompute", 0)
    for nu in partitions_up_to(cfg.max_size):
        w = fock_mod.omega(nu)
        for a, val in w.items():
            res.instances += 1
            if val != n_weight(nu, a):
                res.failures.append(f"omega wrong at {nu}, a={a}")
        for a in nu.addable_contents():
            res.instances += 1
            new = fock_mod.omega(nu.add_box(a))
            diff = {c: new.get(c, 0) - w.get(c, 0) for c in set(new) | set(w)}
            diff = {c: v for c, v in diff.items() if v}
            if diff != {a: -2, a - 1: 1, a + 1: 1}:
                res.failures.append(f"box covariance fails at {nu}, a={a}")
    return res


def check_wedge_limit(cfg: VerifyConfig, max_k: int | None = None) -> CheckResult:
    res = CheckResult("fock.wedge-limit", 0)
    top = max_k if max_k is not None else min(cfg.max_size, 5)
    for k in range(1, top + 1):
        fock_basis = partitions_up_to(k)
        for n in range(k, k + 3):
            res.instances += 1
            images = {fock_mod.partition_to_sequence(nu, n) for nu in fock_basis}
            target = set(fock_mod.wedge_basis(n, k))
            if len(images) != len(fock_basis):
                res.failures.append(f"pi_{n} not injective on energy <= {k}")
            if images != target:
                res.failures.append(f"pi_{n} not onto wedge basis at energy <= {k}")
        # The n = k - 1 outcome is reported but does not fail the check.
        if k >= 2:
            n = k - 1
            images = [fock_mod.partition_to_sequence(nu, n) for nu in fock_basis]
            inj = len(set(images)) == len(images)
            res.notes.append(f"k={k}, n=k-1={n}: injective={inj}")
    return res


def check_phi_pi(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("fock.phi-pi-compat", 0)
    for nu in partitions_up_to(cfg.max_size):
        for n in range(1, cfg.max_size + 2):
            res.instances += 1
            via = fock_mod.phi_n(fock_mod.pi_n({nu: 1}, n + 1))
            direct = fock_mod.pi_n({nu: 1}, n)
            if via != direct:
                res.failures.append(f"phi after pi_{n + 1} differs from pi_{n} on {nu}")
    return res


def check_taut_weights(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("fock.tautological-weights", 0)
    mode = fock_mod.Mode.tautological()
    for i in range(-cfg.max_size - 1, cfg.max_size + 2):
        for a in range(-cfg.max_size - 1, cfg.max_size + 2):
            res.instances += 1
            want = (1 if a == i else 0) - (1 if a == i - 1 else 0)
            if fock_mod.h_eigenvalue(a, mode, i) != want:
                res.failures.append(f"u_{i} weight wrong at a={a}")
    return res


def check_fock_consistency(cfg: VerifyConfig, gen_range: int | None = None, max_size: int | None = None, t_values=None) -> CheckResult:
    """f_a and e_a on the tensor module, cut to size at most the bound, are
    a_tilde and e_tilde; the matrices of one t come from one pass over the
    keys' images."""
    res = CheckResult("grothendieck.fock-consistency", 0)
    rng = gen_range if gen_range is not None else min(cfg.max_size, 4)
    bound = max_size if max_size is not None else cfg.max_size
    gens = range(-rng, rng + 1)
    for t in t_values if t_values is not None else cfg.t_values:
        mode = fock_mod.Mode.tensor(t)
        mats = {gen: {a: BipartitionMatrix(bound) for a in gens} for gen in "fe"}
        for lam in bipartitions_up_to(bound):
            for gen, by_a in mats.items():
                for a, image in fock_mod.images(gen, mode, lam).items():
                    if a in by_a:
                        for mu, coeff in image.items():
                            if mu.size <= bound:
                                by_a[a].set(lam, mu, coeff)
        for a in gens:
            res.instances += 2
            if mats["f"][a] != groth_mod.a_tilde(a, t, bound):
                res.failures.append(f"f matrix differs: a={a}, t={t}")
            if mats["e"][a] != groth_mod.e_tilde(a, t, bound):
                res.failures.append(f"e matrix differs: a={a}, t={t}")
    return res


def check_etilde_transpose(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("grothendieck.etilde-transpose", 0)
    rng = min(cfg.max_size, 4)
    for t in cfg.t_values:
        for a in range(-rng, rng + 1):
            res.instances += 1
            if groth_mod.e_tilde(a, t, cfg.max_size) != groth_mod.a_tilde(a, t, cfg.max_size).transpose():
                res.failures.append(f"e_tilde not the transpose: a={a}, t={t}")
    return res


def check_nonnegative(cfg: VerifyConfig, gen_range: int | None = None, t_values=None, max_size: int | None = None) -> CheckResult:
    res = CheckResult("grothendieck.nonnegative", 0)
    rng = gen_range if gen_range is not None else min(cfg.max_size, 4)
    bound = max_size if max_size is not None else cfg.max_size
    for t in t_values if t_values is not None else cfg.t_values:
        res.instances += 1
        try:
            groth_mod.b_matrix(t, bound)
        except groth_mod.InternalInconsistencyError as exc:
            res.failures.append(str(exc))
        for a in range(-rng, rng + 1):
            res.instances += 1
            try:
                groth_mod.a_matrix(a, t, bound)
            except groth_mod.InternalInconsistencyError as exc:
                res.failures.append(str(exc))
    return res


def check_above_diagonal(cfg: VerifyConfig, gen_range: int | None = None, t_values=None, max_size: int | None = None) -> CheckResult:
    res = CheckResult("grothendieck.above-diagonal", 0)
    rng = gen_range if gen_range is not None else min(cfg.max_size, 4)
    bound = max_size if max_size is not None else cfg.max_size
    # the pairs (lam, mu) with |lam| < |mu|: for each mu, the prefix of the
    # index below its size
    above_pairs = sum(len(bipartitions_up_to(mu.size - 1)) for mu in bipartitions_up_to(bound))
    below_support = 0
    for t in t_values if t_values is not None else cfg.t_values:
        for a in range(-rng, rng + 1):
            res.instances += above_pairs
            try:
                big = groth_mod.a_matrix(a, t, bound)
            except groth_mod.InternalInconsistencyError as exc:
                res.failures.append(str(exc))
                continue
            tilde = groth_mod.a_tilde(a, t, bound)
            differ = [
                (lam, mu)
                for lam in big.rows.keys() | tilde.rows.keys()
                for mu in big.rows.get(lam, {}).keys() | tilde.rows.get(lam, {}).keys()
                if lam.size < mu.size and big.get(lam, mu) != tilde.get(lam, mu)
            ]
            differ.sort(key=lambda key: (sort_key(key[0]), sort_key(key[1])))
            for lam, mu in differ:
                res.failures.append(f"above-diagonal differs: {lam}, {mu}, a={a}, t={t}")
            below_support += sum(
                1
                for lam, row in big.rows.items()
                for mu in row
                if lam.size > mu.size and not tilde.get(lam, mu)
            )
    res.notes.append(f"below-diagonal extra support entries observed: {below_support}")
    return res


def check_b_roundtrip(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("grothendieck.b-roundtrip", 0)
    for t in cfg.t_values:
        res.instances += 1
        try:
            b = groth_mod.b_matrix(t, cfg.max_size)
        except groth_mod.InternalInconsistencyError as exc:
            res.failures.append(str(exc))
            continue
        if b.mul(caps_mod.D_matrix(t, cfg.max_size)) != lr_mod.B_matrix(cfg.max_size):
            res.failures.append(f"b(t) D(t) != B at t={t}")
        if not b.is_unitriangular():
            res.failures.append(f"b(t) not unitriangular at t={t}")
    return res


def check_matrix_commutators(cfg: VerifyConfig, gen_range: int | None = None, max_size: int | None = None, t_values=None) -> CheckResult:
    """[e_a, f_b] = delta_ab h_a on the Grothendieck group: the rows of the
    truncated a_tilde (f) and e_tilde (e) are the images of the rows of size
    below the bound, fed to the assembly of check_commutators.  A failure
    names the first offending column in index order."""
    res = CheckResult("grothendieck.matrix-commutators", 0)
    rng = gen_range if gen_range is not None else min(cfg.max_size, 3)
    bound = max_size if max_size is not None else cfg.max_size
    interior = bipartitions_up_to(bound - 1)
    gens = range(-rng, rng + 1)
    for t in t_values if t_values is not None else cfg.t_values:
        mode = fock_mod.Mode.tensor(t)
        table: dict = {}  # (gen, lam) -> {a: row lam of gen_a}
        for gen, tilde in (("f", groth_mod.a_tilde), ("e", groth_mod.e_tilde)):
            for a in gens:
                for lam, row in tilde(a, t, bound).rows.items():
                    table.setdefault((gen, lam), {})[a] = row
        res.instances += len(gens) ** 2 * len(interior)
        found = sorted(
            ((a, b, lam, min(defect, key=sort_key))
             for lam, a, b, defect in _commutator_defects(
                 interior, gens, lambda gen, lam: table.get((gen, lam), {}),
                 lambda a, lam: fock_mod.h_eigenvalue(a, mode, lam))),
            key=lambda f: (f[0], f[1], sort_key(f[2])),
        )
        for a, b, lam, mu in found:
            res.failures.append(f"matrix commutator: a={a}, b={b}, t={t}, {lam}->{mu}")
    return res


def check_eigen_support(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("grothendieck.eigen-support", 0)
    index = bipartitions_up_to(cfg.max_size)
    for t in cfg.t_values:
        span = cfg.max_size + abs(t) + 2
        # (lam, mu) -> the a, ascending, whose translation matrix connects them
        hits: dict[tuple[Bipartition, Bipartition], list[int]] = {}
        for a in range(-span, span + 1):
            for lam, row in groth_mod.a_tilde(a, t, cfg.max_size).rows.items():
                for mu in row:
                    hits.setdefault((lam, mu), []).append(a)
        for lam in index:
            for mu in index:
                res.instances += 1
                label = groth_mod.x_eigenvalue(lam, mu, t)
                found = hits.get((lam, mu), [])
                if label is None:
                    if found:
                        res.failures.append(f"missing label: {lam}->{mu}, t={t}")
                elif found != [label.value(t)]:
                    res.failures.append(f"label {label} disagrees with connections: {lam}->{mu}, t={t}")
    return res


def check_homdim(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("grothendieck.homdim-symmetry", 0)
    index = bipartitions_up_to(min(cfg.max_size, 3))
    for t in list(cfg.t_values) + [GENERIC]:
        for lam in index:
            for mu in index:
                res.instances += 1
                if groth_mod.hom_dim(lam, mu, t) != groth_mod.hom_dim(mu, lam, t):
                    res.failures.append(f"hom dim asymmetric: {lam}, {mu}, t={t}")
    one = Bipartition.of((1,), (1,))
    vac = Bipartition.of((), ())
    res.instances += 2
    if groth_mod.hom_dim(one, one, 0) != 2:
        res.failures.append("End(V (x) V*) dimension != 2 at t=0")
    if groth_mod.hom_dim(vac, one, 0) != 1:
        res.failures.append("Hom(1, V (x) V*) dimension != 1 at t=0")
    return res


def check_f_on_standard(cfg: VerifyConfig) -> CheckResult:
    res = CheckResult("grothendieck.f-on-standard", 0)
    rng = min(cfg.max_size, 3)
    for t in cfg.t_values:
        for a in range(-rng, rng + 1):
            tilde_rows = groth_mod.a_tilde(a, t, cfg.max_size + 1).rows
            for lam in bipartitions_up_to(cfg.max_size):
                res.instances += 1
                sub, quot = groth_mod.f_on_standard(lam, a, t)
                if {x for x in (sub, quot) if x is not None} != tilde_rows.get(lam, {}).keys():
                    res.failures.append(f"standard filtration mismatch: {lam}, a={a}, t={t}")
    return res


ALL_CHECKS = [
    check_box_roundtrip,
    check_corner_count,
    check_transpose_corners,
    check_golden_diagrams,
    check_transpose_lemma,
    check_partition_of_z,
    check_equal_cores_weights,
    check_generic_symbols,
    check_tails,
    check_example_multiplicity,
    check_unitriangular,
    check_stability,
    check_dimension_oracle,
    check_matching_uniqueness,
    check_order_compatibility,
    check_lr_oracle,
    check_lr_symmetry,
    check_lr_grading,
    check_b_unitriangular,
    check_commutators,
    check_serre,
    check_omega,
    check_wedge_limit,
    check_phi_pi,
    check_taut_weights,
    check_fock_consistency,
    check_etilde_transpose,
    check_nonnegative,
    check_above_diagonal,
    check_b_roundtrip,
    check_matrix_commutators,
    check_eigen_support,
    check_homdim,
    check_f_on_standard,
]


def run_all(cfg: VerifyConfig) -> list[CheckResult]:
    return [check(cfg) for check in ALL_CHECKS]


def report_lines(results: list[CheckResult]) -> list[str]:
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{status}  {r.name}  ({r.instances} instances)")
        for f in r.failures[:5]:
            lines.append(f"      failure: {f}")
        if len(r.failures) > 5:
            lines.append(f"      ... {len(r.failures) - 5} more failures")
        for note in r.notes:
            lines.append(f"      note: {note}")
    return lines
