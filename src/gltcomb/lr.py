"""Littlewood-Richardson coefficients and the tilting-in-tensor matrix B.

lr_coeff enumerates LR skew tableaux directly; schur_product_oracle expands
products of Schur polynomials by Brauer's formula over exact integers and
serves as an independent check: it uses no LR tableau.
"""

from __future__ import annotations

from functools import cache, lru_cache

from .matrices import BipartitionMatrix
from .partitions import Bipartition, Partition, bipartitions_up_to, partitions_of


def lr_coeff(lam: Partition, mu: Partition, kappa: Partition) -> int:
    """Multiplicity of s_lam in s_mu * s_kappa: the number of LR skew tableaux
    of shape lam/mu and weight kappa."""
    if lam.size != mu.size + kappa.size or not lam.contains(mu):
        return 0
    if kappa.size == 0:
        return 1 if lam == mu else 0
    rows = lam.length
    cells = []  # reverse reading order: rows top to bottom, right to left
    for i in range(1, rows + 1):
        for j in range(lam.row(i), mu.row(i), -1):
            cells.append((i, j))
    weight_cap = list(kappa.rows)
    n_colors = len(weight_cap)
    filling: dict[tuple[int, int], int] = {}
    counts = [0] * n_colors

    def feasible(cell: tuple[int, int], v: int) -> bool:
        i, j = cell
        if v > i:  # entries in row i of an LR tableau never exceed i
            return False
        right = filling.get((i, j + 1))  # filled earlier in reverse reading order
        if right is not None and v > right:  # weakly increasing along rows
            return False
        up = filling.get((i - 1, j))
        if up is not None and up >= v:  # strictly increasing down columns
            return False
        if counts[v - 1] >= weight_cap[v - 1]:
            return False
        if v > 1 and counts[v - 1] >= counts[v - 2]:  # lattice word condition
            return False
        return True

    def backtrack(k: int) -> int:
        if k == len(cells):
            return 1
        total = 0
        cell = cells[k]
        for v in range(1, n_colors + 1):
            if feasible(cell, v):
                filling[cell] = v
                counts[v - 1] += 1
                total += backtrack(k + 1)
                counts[v - 1] -= 1
                del filling[cell]
        return total

    # Entries in row i come from the cap min(i, n_colors); cells right of the
    # inner shape in row 1 must all be 1, handled by the generic pruning.
    return backtrack(0)


Monomial = tuple[int, ...]


@lru_cache(maxsize=None)
def schur_polynomial(nu: Partition, nvars: int) -> dict[Monomial, int]:
    """The Schur polynomial of nu in nvars variables as a sum over
    semistandard tableaux; exponent vectors map to integer coefficients."""
    if nu.length > nvars:
        return {}
    if nu.size == 0:
        return {(0,) * nvars: 1}
    poly: dict[Monomial, int] = {}
    cols = nu.transpose().rows

    # Fill column by column (strictly increasing down a column, weakly
    # increasing along rows) tracking only the previous column.
    def fill_columns(c: int, prev: tuple[int, ...], expo: tuple[int, ...]):
        if c == len(cols):
            poly[expo] = poly.get(expo, 0) + 1
            return
        height = cols[c]

        def fill_cells(i: int, last: int, acc: tuple[int, ...]):
            if i == height:
                fill_columns(c + 1, acc, _bump(expo, acc))
                return
            lo = max(last + 1, 1)
            if i < len(prev):
                lo = max(lo, prev[i])
            for v in range(lo, nvars + 1):
                fill_cells(i + 1, v, acc + (v,))

        fill_cells(0, 0, ())

    def _bump(expo: tuple[int, ...], column: tuple[int, ...]) -> tuple[int, ...]:
        e = list(expo)
        for v in column:
            e[v - 1] += 1
        return tuple(e)

    fill_columns(0, (), (0,) * nvars)
    return poly


def schur_product_oracle(mu: Partition, kappa: Partition, nvars: int) -> dict[Partition, int]:
    """Expand s_mu * s_kappa into Schur polynomials in nvars variables by
    Brauer's formula a_{mu+rho} s_kappa = sum_lam c^lam_{mu kappa} a_{lam+rho}.

    Each monomial x^w of s_kappa contributes a_{mu+rho+w}: zero when two
    exponents coincide, else the sign of the sorting permutation times
    a_{lam+rho} with lam the sorted exponents minus rho."""
    # c^lam_{mu kappa} != 0 forces len(lam) <= len(mu) + len(kappa), so that
    # many variables keep every a_{lam+rho} of the product independent and nonzero.
    if nvars < mu.length + kappa.length:
        raise ValueError(f"need at least {mu.length + kappa.length} variables, got {nvars}")
    rho = range(nvars - 1, -1, -1)
    shifted = [mu.row(i + 1) + r for i, r in enumerate(rho)]
    result: dict[Partition, int] = {}
    for w, coeff in schur_polynomial(kappa, nvars).items():
        alpha = [s + e for s, e in zip(shifted, w)]
        if len(set(alpha)) < nvars:
            continue
        inversions = sum(x < y for i, x in enumerate(alpha) for y in alpha[i + 1 :])
        lam = Partition.of(*(v - r for v, r in zip(sorted(alpha, reverse=True), rho)))
        acc = result.get(lam, 0) + (-coeff if inversions % 2 else coeff)
        if acc:
            result[lam] = acc
        else:
            del result[lam]
    # Largest shape first, whatever the order of the monomials of s_kappa.
    return {lam: result[lam] for lam in sorted(result, reverse=True)}


def _lr_terms(mu: Partition, kappa: Partition) -> list[tuple[Partition, int]]:
    """The nonzero terms (lam, c) of s_mu * s_kappa."""
    terms = ((lam, lr_coeff(lam, mu, kappa)) for lam in partitions_of(mu.size + kappa.size))
    return [(lam, c) for lam, c in terms if c]


@lru_cache(maxsize=None)
def B_matrix(n: int) -> BipartitionMatrix:
    """Tilting multiplicities of the formal-parameter mixed tensor objects.

    Generated from each column mu: for every kappa with |mu| + 2|kappa| <= n,
    the terms of s_{mu black} * s_kappa and s_{mu white} * s_kappa pair up
    into the entry B((alpha, beta), mu), the sum over kappa of
    lr(alpha; mu black, kappa) * lr(beta; mu white, kappa)."""
    # Columns sharing a black or a white part expand the same products.
    lr_terms = cache(_lr_terms)
    m = BipartitionMatrix(n)
    for mu in bipartitions_up_to(n):
        for d in range((n - mu.size) // 2 + 1):
            for kappa in partitions_of(d):
                white_terms = lr_terms(mu.white, kappa)
                for alpha, c in lr_terms(mu.black, kappa):
                    for beta, c2 in white_terms:
                        row = m.rows.setdefault(Bipartition(alpha, beta), {})
                        row[mu] = row.get(mu, 0) + c * c2
    return m
