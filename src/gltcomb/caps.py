"""Cap diagrams on dprime weight diagrams and the 0/1 lift multiplicity."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .diagrams import CIRC, CROSS, FAMILY_DPRIME, ParamT, _symbol_run, is_generic
from .matrices import BipartitionMatrix, add_into
from .partitions import Bipartition, bipartitions_up_to


def cap_scan(symbols: str, left: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The one cap scan: the symbols at positions left, left + 1, ... read
    right to left, where a cross opens a cap and a circle closes the nearest
    open cross to its right.  Arrows and circles that close nothing are
    skipped.

    Returns (the caps as (circle, cross) pairs, ascending; the crosses left
    open, right to left)."""
    stack: list[int] = []
    caps: list[tuple[int, int]] = []
    pos = left + len(symbols)
    for sym in reversed(symbols):
        pos -= 1
        if sym == CROSS:
            stack.append(pos)
        elif sym == CIRC and stack:
            caps.append((pos, stack.pop()))
    caps.reverse()  # closed right to left, so by descending circle
    return caps, stack


@lru_cache(maxsize=None)
def lift_row(lam: Bipartition, t: ParamT) -> dict[Bipartition, int]:
    """lam's row of D(t), {mu: 1} for the mu with D_t(lam, mu) = 1: lam, then
    for each subset of lam's caps in combinations order, lam with those
    crosses moved to their circle ends.  Shared by every caller and by
    D(t, n); do not mutate it.

    A circle lies outside C and D', so at or right of both t - l(black) and
    -white_1; a cross lies in both, so at or left of both l(white) - 1 and
    t + black_1 - 1.  Every cap lies in the span [lo, hi] between them, at
    most l(white) + white_1 positions long, and only that span is scanned.
    Moving cap (l, r) swaps r for l in black's beta-numbers black_i + t - i
    and l for r in white's i - 1 - white_i: circles lie right of C's tail and
    crosses left of the tail of Z minus D', so the explicit values suffice.
    So a row's cost does not grow with |t|, while the diagram and caps
    commands print the whole stable window by contract, linear in |t|.
    At generic t C lies off the lattice: no cross, no cap, the row is {lam: 1}."""
    row = {lam: 1}
    if is_generic(t):
        return row
    black, white = lam.black.rows, lam.white.rows
    lo = max(t - len(black), -lam.white.row(1))
    hi = min(len(white) - 1, t + lam.black.row(1) - 1)
    caps, _ = cap_scan(_symbol_run(lam, t, FAMILY_DPRIME, lo, hi), lo)
    if not caps:
        return row
    c_set = {r + t - i for i, r in enumerate(black, 1)}
    not_d = {i - 1 - r for i, r in enumerate(white, 1)}
    for k in range(1, len(caps) + 1):
        for moved in combinations(caps, k):
            circles, crosses = {l for l, _ in moved}, {r for _, r in moved}
            betas = sorted((c_set - crosses) | circles, reverse=True)
            gammas = sorted((not_d - circles) | crosses)
            row[Bipartition.of([b - t + i for i, b in enumerate(betas, 1)],
                               [i - 1 - g for i, g in enumerate(gammas, 1)])] = 1
    return row


def mult_D(lam: Bipartition, mu: Bipartition, t: ParamT) -> int:
    """The 0/1 multiplicity of the standard object of mu in the tilting of lam."""
    return lift_row(lam, t).get(mu, 0)


@lru_cache(maxsize=None)
def D_matrix(t: ParamT, n: int) -> BipartitionMatrix:
    """The rows lift_row(lam, t) over bipartitions of size at most n."""
    if n < 0:
        raise ValueError("size bound must be nonnegative")
    return BipartitionMatrix(n, {lam: lift_row(lam, t) for lam in bipartitions_up_to(n)})


@lru_cache(maxsize=None)
def inverse_row(lam: Bipartition, t: ParamT) -> dict[Bipartition, int]:
    """lam's row of D(t)^-1, the same in every truncation n >= |lam|: e_lam
    minus the inverse rows of the other nu in lift_row(lam, t), which are all
    smaller than lam.  Shared by every caller and by D(t, n)^-1; do not
    mutate it."""
    row = {lam: 1}
    for nu in lift_row(lam, t):
        if nu == lam:
            continue
        if nu.size >= lam.size:
            raise ValueError(f"D({t}) is not unitriangular in the size order at ({lam}, {nu})")
        for mu, w in inverse_row(nu, t).items():
            add_into(row, mu, -w)
    return row


def D_inverse(t: ParamT, n: int) -> BipartitionMatrix:
    """Exact integer inverse of the truncated multiplicity matrix."""
    return BipartitionMatrix(n, {lam: inverse_row(lam, t) for lam in bipartitions_up_to(n)})
