"""Littlewood-Richardson coefficients and the tilting-in-tensor matrix B.

lr_product and lr_coeff count LR tableaux as horizontal strips under a
lattice-word condition (Macdonald I.9); schur_product_oracle expands products
of Schur polynomials by Brauer's formula over exact integers and serves as an
independent check: it uses no LR tableau.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .matrices import BipartitionMatrix, add_into
from .partitions import Bipartition, Partition, bipartitions_up_to, partitions_of


def _lr_shapes(mu: Partition, kappa: Partition, outer: Partition | None = None) -> dict[tuple[int, ...], int]:
    """The rows of each lam (inside outer, when given) with the number of LR
    tableaux of shape lam/mu and weight kappa.

    Adds kappa's rows to mu as horizontal strips labelled 1, 2, ... whose
    reverse reading word is a lattice word: in rows 1..r the j's number at
    most the (j-1)'s in rows 1..r-1.  Label j enters rows j and below, so once
    it is placed rows 1..j are final.  Tableaux that agree on the shape and on
    where the last label lies are counted together."""
    # (rows, the last label's running count down the rows) -> tableaux
    states = {(mu.rows, None): 1}
    for j, k in enumerate(kappa.rows, start=1):
        grown = {}
        for (rows, above), ways in states.items():
            for key in _strips(rows, k, j, above, outer):
                grown[key] = grown.get(key, 0) + ways
        states = grown
    shapes: dict[tuple[int, ...], int] = {}
    for (rows, _), ways in states.items():
        shapes[rows] = shapes.get(rows, 0) + ways
    return shapes


def _strips(rows: tuple[int, ...], k: int, j: int, above: tuple[int, ...] | None,
            outer: Partition | None) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each way to add k cells labelled j to rows as a horizontal strip in rows
    j and below, keeping the lattice condition against above and staying
    inside outer: (the new rows, the running count of j's down the rows)."""
    old = rows + (0,)
    new = list(old)
    found = []

    def place(i: int, left: int, counts: list[int]) -> None:
        if i == len(old):
            found.append((tuple(new[:-1] if new[-1] == 0 else new), tuple(counts)))
            return
        lo = max(0, left - old[i])  # rows below i take at most old[i] cells between them
        hi = left if i == 0 else min(left, old[i - 1] - old[i])
        if above is not None:
            hi = min(hi, above[i - 1] - counts[-1])
        if outer is not None:
            room = outer.row(i + 1) - old[i]
            hi = min(hi, room)
            if i == j - 1:  # row j is final once label j is placed
                lo = max(lo, room)
        for c in range(lo, hi + 1):
            new[i] = old[i] + c
            place(i + 1, left - c, counts + [(counts[-1] if counts else 0) + c])
        new[i] = old[i]

    place(j - 1, k, [0] * (j - 1))
    return found


@lru_cache(maxsize=None)
def lr_product(mu: Partition, kappa: Partition) -> dict[Partition, int]:
    """s_mu * s_kappa as {lam: c^lam_{mu kappa}}, nonzero terms only, largest
    lam first.  Cached and shared by every caller, so do not mutate it."""
    shapes = _lr_shapes(mu, kappa)
    # partitions_of's own instances, so equal keys downstream are identical.
    return {lam: shapes[lam.rows] for lam in partitions_of(mu.size + kappa.size) if lam.rows in shapes}


def lr_coeff(lam: Partition, mu: Partition, kappa: Partition) -> int:
    """Multiplicity of s_lam in s_mu * s_kappa: the number of LR skew tableaux
    of shape lam/mu and weight kappa, counted inside lam alone."""
    if lam.size != mu.size + kappa.size or not lam.contains(mu):
        return 0
    return _lr_shapes(mu, kappa, lam).get(lam.rows, 0)


Monomial = tuple[int, ...]


@lru_cache(maxsize=None)
def schur_polynomial(nu: Partition, nvars: int) -> dict[Monomial, int]:
    """The Schur polynomial of nu in nvars variables by the branching rule
    s_nu(x_1..x_m) = sum_rho x_m^|nu/rho| s_rho(x_1..x_{m-1}) over the rho
    with nu/rho a horizontal strip (Macdonald I.5); exponent vectors map to
    integer coefficients.  Cached, with the rho of every step."""
    if nu.length > nvars:
        return {}
    if nvars == 0:
        return {(): 1}
    poly: dict[Monomial, int] = {}
    # rho_i lies between nu_{i+1} and nu_i; rows from nvars on are empty.
    ranges = [range(nu.row(i + 1), nu.row(i) + 1) for i in range(1, min(nu.length, nvars - 1) + 1)]
    for rho in product(*ranges):
        last = nu.size - sum(rho)
        for w, coeff in schur_polynomial(Partition.of(*rho), nvars - 1).items():
            poly[w + (last,)] = poly.get(w + (last,), 0) + coeff
    return poly


def schur_product_oracle(mu: Partition, kappa: Partition, nvars: int) -> dict[Partition, int]:
    """Expand s_mu * s_kappa into Schur polynomials in nvars variables by
    Brauer's formula a_{mu+rho} s_kappa = sum_lam c^lam_{mu kappa} a_{lam+rho}.

    Each monomial x^w of s_kappa contributes a_{mu+rho+w}: zero when two
    exponents coincide, else the sign of the sorting permutation times
    a_{lam+rho} with lam the sorted exponents minus rho.  The product is
    symmetric, so the factor whose polynomial has fewer monomials is expanded."""
    # c^lam_{mu kappa} != 0 forces len(lam) <= len(mu) + len(kappa), so that
    # many variables keep every a_{lam+rho} of the product independent and nonzero.
    if nvars < mu.length + kappa.length:
        raise ValueError(f"need at least {mu.length + kappa.length} variables, got {nvars}")
    if len(schur_polynomial(mu, nvars)) < len(schur_polynomial(kappa, nvars)):
        mu, kappa = kappa, mu
    rho = range(nvars - 1, -1, -1)
    shifted = [mu.row(i + 1) + r for i, r in enumerate(rho)]
    result: dict[Partition, int] = {}
    for w, coeff in schur_polynomial(kappa, nvars).items():
        alpha = [s + e for s, e in zip(shifted, w)]
        if len(set(alpha)) < nvars:
            continue
        inversions = sum(x < y for i, x in enumerate(alpha) for y in alpha[i + 1 :])
        lam = Partition.of(*(v - r for v, r in zip(sorted(alpha, reverse=True), rho)))
        add_into(result, lam, -coeff if inversions % 2 else coeff)
    # Largest shape first, whatever the order of the monomials of s_kappa.
    return {lam: result[lam] for lam in sorted(result, reverse=True)}


@lru_cache(maxsize=None)
def B_matrix(n: int) -> BipartitionMatrix:
    """Tilting multiplicities of the formal-parameter mixed tensor objects.

    Generated from each column mu: for every kappa with |mu| + 2|kappa| <= n,
    the terms of s_{mu black} * s_kappa and s_{mu white} * s_kappa pair up
    into the entry B((alpha, beta), mu), the sum over kappa of
    lr(alpha; mu black, kappa) * lr(beta; mu white, kappa)."""
    m = BipartitionMatrix(n)
    for mu in bipartitions_up_to(n):
        for d in range((n - mu.size) // 2 + 1):
            for kappa in partitions_of(d):
                white_terms = lr_product(mu.white, kappa).items()
                for alpha, c in lr_product(mu.black, kappa).items():
                    for beta, c2 in white_terms:
                        row = m.rows.setdefault(Bipartition(alpha, beta), {})
                        row[mu] = row.get(mu, 0) + c * c2
    return m
