"""Cap diagrams on dprime weight diagrams and the 0/1 lift multiplicity."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .diagrams import (
    CIRC,
    CROSS,
    FAMILY_DPRIME,
    GENERIC,
    ParamT,
    WeightDiagram,
    build_diagram,
    core_blocks,
    is_generic,
    same_core,
)
from .matrices import BipartitionMatrix, unitriangular_inverse
from .partitions import Bipartition, bipartitions_up_to


@dataclass(frozen=True)
class CapDiagram:
    """A non-crossing matching of crosses (left ends) to circles (right ends).

    Circles that close a cross lying left of the scanned window are kept in
    `outside_matched`; every cross inside the window is the left end of
    exactly one cap.
    """

    base: WeightDiagram
    window: tuple[int, int]
    caps: tuple[tuple[int, int], ...]
    outside_matched: frozenset[int]

    def cap_end(self, left: int) -> int:
        for l, r in self.caps:
            if l == left:
                return r
        raise KeyError(f"no cap opens at position {left}")

    def to_json(self) -> dict:
        return {
            "diagram": self.base.to_json(),
            "window": list(self.window),
            "caps": [list(c) for c in self.caps],
            "outside_matched": sorted(self.outside_matched),
        }


def scan_matching(symbols: list[str], offset: int = 0) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Nearest-unmatched parenthesis scan over a symbol sequence.

    Returns (caps, circles matched to the outside, unclosed cross positions).
    Positions are offset so the first symbol sits at `offset`.
    """
    stack: list[int] = []
    caps: list[tuple[int, int]] = []
    outside: list[int] = []
    for k, sym in enumerate(symbols):
        pos = offset + k
        if sym == CROSS:
            stack.append(pos)
        elif sym == CIRC:
            if stack:
                caps.append((stack.pop(), pos))
            else:
                outside.append(pos)
    caps.sort()
    return caps, outside, stack


@lru_cache(maxsize=None)
def build_caps(mu: Bipartition, t: int, window_hint: Optional[tuple[int, int]] = None) -> CapDiagram:
    """The cap diagram of dprime of mu over an extended window."""
    if is_generic(t):
        raise ValueError("cap diagrams require integer t")
    base = build_diagram(mu, t, FAMILY_DPRIME)
    left, right = base.window
    if window_hint is not None:
        left = min(left, window_hint[0])
        right = max(right, window_hint[1])
    n_cross = sum(1 for s in range(left, right + 1) if base.symbol(s) == CROSS)
    right += n_cross  # the right tail is all circles, so every window cross closes
    symbols = [base.symbol(s) for s in range(left, right + 1)]
    caps, outside, open_crosses = scan_matching(symbols, offset=left)
    if open_crosses:
        raise AssertionError(f"unclosed crosses {open_crosses} in cap scan of {mu} at t={t}")
    return CapDiagram(base, (left, right), tuple(caps), frozenset(outside))


@lru_cache(maxsize=None)
def mult_D(lam: Bipartition, mu: Bipartition, t: ParamT) -> int:
    """The 0/1 multiplicity: 1 iff dprime of lam arises from dprime of mu by
    moving crosses from left cap ends to the matching right ends.

    The set of moved caps must be closed under nesting: moving a cap drags
    along every cap nested inside it. Dropping that closure condition admits
    extra pairs at total size 6 and up that break the positivity of the
    derived tilting multiplicity matrices."""
    if is_generic(t):
        return 1 if lam == mu else 0
    if lam == mu:
        return 1
    if not same_core(lam, mu, t):
        return 0
    dl = build_diagram(lam, t, FAMILY_DPRIME)
    dm = build_diagram(mu, t, FAMILY_DPRIME)
    left = min(dl.window[0], dm.window[0])
    right = max(dl.window[1], dm.window[1]) + lam.size + mu.size
    cap_diag = build_caps(mu, t, (left, right))
    left, right = cap_diag.window
    x_lam = dl.cross_positions(left, right)
    x_mu = dm.cross_positions(left, right)
    moved = x_mu - x_lam
    try:
        targets = {cap_diag.cap_end(x) for x in moved}
    except KeyError:
        return 0
    if targets != x_lam - x_mu:
        return 0
    for l, r in cap_diag.caps:
        if l in moved:
            for l2, r2 in cap_diag.caps:
                if l < l2 and r2 < r and l2 not in moved:
                    return 0
    return 1


@lru_cache(maxsize=None)
def D_matrix(t: ParamT, n: int) -> BipartitionMatrix:
    """All multiplicities mult_D over bipartitions of size at most n.

    mult_D vanishes between different cores, so only pairs inside one core
    block are tried."""
    if n < 0:
        raise ValueError("size bound must be nonnegative")
    m = BipartitionMatrix(n)
    index = bipartitions_up_to(n)
    if is_generic(t):
        return BipartitionMatrix.identity(n)
    blocks = core_blocks(index, t)
    for lam in index:
        for mu in blocks[lam]:
            if mu.size > lam.size:
                continue
            v = mult_D(lam, mu, t)
            if v:
                m.entries[(lam, mu)] = v
    return m


@lru_cache(maxsize=None)
def D_inverse(t: ParamT, n: int) -> BipartitionMatrix:
    """Exact integer inverse of the truncated multiplicity matrix."""
    return unitriangular_inverse(D_matrix(t, n))
