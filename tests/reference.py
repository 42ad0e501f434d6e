"""The tests' own references, each independent of the code it checks.

`diagram_to_bipartition` decodes dprime weight diagrams back to
bipartitions: it reads the symbols position by position, pads both tails and
validates the rows itself, and imports nothing from gltcomb.caps, so the rows
the tests rebuild with it check `caps.lift_row`'s beta-number swaps instead of
sharing their decode.

`lr_coeff` fills the cells of lam/mu one at a time by backtracking, and
`schur_polynomial` enumerates semistandard tableaux column by column.  Neither
imports gltcomb.lr, so they check its horizontal-strip enumerator and its
branching rule instead of sharing them.

`commutator_defect` applies the generators to a whole vector, one
`fock.apply_generator` call per factor, and subtracts h_a; it is the
reference for the assembly `verify.check_commutators` makes from the images
of single basis vectors.  It reads `fock` through the module, so a test that
patches `fock.images` or `fock.h_eigenvalue` changes both sides.
"""

from functools import lru_cache

from gltcomb import fock
from gltcomb.diagrams import CIRC, CROSS, GT
from gltcomb.matrices import add_into
from gltcomb.partitions import Bipartition, Partition


def diagram_to_bipartition(symbols: dict[int, str], t: int) -> Bipartition:
    """Recover the bipartition from dprime diagram symbols on a window covering
    the active region (left tail all crosses, right tail all circles assumed)."""
    positions = sorted(symbols)
    left, right = positions[0], positions[-1]
    c_vals = [s for s in positions if symbols[s] in (CROSS, GT)]
    # Left tail: every position below the window is a cross, hence in both sets.
    black_rows = []
    for i, c in enumerate(sorted(c_vals, reverse=True), start=1):
        black_rows.append(c - t + i)
    pad = len(black_rows) + 1
    for j in range(1, pad + 1):
        black_rows.append((left - j) - t + len(c_vals) + j)
    black = _rows_to_partition(black_rows, "black")
    # Complement of D': circles and '>' in the window plus everything above it.
    m_vals = [s for s in positions if symbols[s] in (CIRC, GT)]
    white_rows = [i - m - 1 for i, m in enumerate(sorted(m_vals), start=1)]
    n_in = len(m_vals)
    for j in range(1, pad + 1):
        white_rows.append((n_in + j) - (right + j) - 1)
    white = _rows_to_partition(white_rows, "white")
    return Bipartition(black, white)


def _rows_to_partition(rows: list[int], side: str) -> Partition:
    while rows and rows[-1] == 0:
        rows.pop()
    if any(r <= 0 for r in rows) or any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
        raise ValueError(f"symbols do not encode a valid {side} partition: {rows}")
    return Partition(tuple(rows))


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


def apply_h(a, mode, vec):
    out = {}
    for key, coeff in vec.items():
        fock._check_key(mode, key)
        add_into(out, key, coeff * fock.h_eigenvalue(a, mode, key))
    return out


def commutator_defect(a, b, mode, vec):
    """(e_a f_b - f_b e_a)(v) minus delta_ab h_a(v); zero when the sl_Z
    relations hold."""
    ef = fock.apply_generator("e", a, mode, fock.apply_generator("f", b, mode, vec))
    fe = fock.apply_generator("f", b, mode, fock.apply_generator("e", a, mode, vec))
    out = dict(ef)
    for key, coeff in fe.items():
        add_into(out, key, -coeff)
    if a == b:
        for key, coeff in apply_h(a, mode, vec).items():
            add_into(out, key, -coeff)
    return out
