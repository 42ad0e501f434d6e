"""Weight diagrams of both families, their cores and stable windows.

A weight diagram labels every integer with one of the symbols
'x' (cross), '>' , '<', 'o' (circle).  The d-family is built from the sets
C = {black_i + t - i} and D = {white_i - i}; the dprime-family from
C' = {black_i + t - i} and D' = Z minus {i - white_i - 1}.  At generic t
C lies off the integer lattice, so no position holds 'x' or '>'.  At every t
one stable window [L, R] holds the diagram: each position outside it has the
symbol at the window's nearer end ('x', or '<' at generic t, then 'o').
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .partitions import Bipartition

GENERIC = "generic"
ParamT = Union[int, str]

CROSS = "x"
GT = ">"
LT = "<"
CIRC = "o"

FAMILY_D = "d"
FAMILY_DPRIME = "dprime"


def is_generic(t: ParamT) -> bool:
    if t == GENERIC:
        return True
    if isinstance(t, int) and not isinstance(t, bool):
        return False
    raise ValueError(f"parameter t must be an integer or {GENERIC!r}, got {t!r}")


def _symbol_run(lam: Bipartition, t: ParamT, family: str, left: int, right: int) -> str:
    """The symbols at positions left..right, read off the C set, the D set
    (d-family) or the complement of D' (dprime-family), each built once."""
    if family not in (FAMILY_D, FAMILY_DPRIME):
        raise ValueError(f"unknown diagram family {family!r}")
    black, white = lam.black.rows, lam.white.rows
    # For generic t the C-track lives off the integer lattice.
    if is_generic(t):
        c_below, c_set = left, frozenset()  # no position of the run is in C
    else:
        # C holds every s <= t - len(black) - 1, plus black_i + t - i.
        c_below = t - len(black)
        c_set = {r + t - i for i, r in enumerate(black, 1)}
    if family == FAMILY_D:
        # D holds every s <= -len(white) - 1, plus white_i - i.
        d_below = -len(white)
        d_set = {r - i for i, r in enumerate(white, 1)}
    else:
        # D' holds every s < len(white) except i - white_i - 1.
        d_below = len(white)
        not_d = {i - r - 1 for i, r in enumerate(white, 1)}
    out = []
    for s in range(left, right + 1):
        in_c = s < c_below or s in c_set
        if family == FAMILY_D:
            in_d = s < d_below or s in d_set
        else:
            in_d = s < d_below and s not in not_d
        if in_c:
            out.append(CROSS if in_d else GT)
        else:
            out.append(LT if in_d else CIRC)
    return "".join(out)


def symbol_at(lam: Bipartition, t: ParamT, family: str, s: int) -> str:
    """The symbol of the weight diagram of lam at integer position s."""
    return _symbol_run(lam, t, family, s, s)


def stable_window(lam: Bipartition, t: ParamT, family: str) -> tuple[int, int]:
    """An interval [L, R] outside of which the diagram equals its tails: the
    bounds of the D-type set, widened by the C set's at integer t (at generic
    t the C set puts nothing on the lattice)."""
    lw = lam.white
    if family == FAMILY_D:
        left, right = -lw.length, max(lw.row(1), 0)
    elif family == FAMILY_DPRIME:
        left, right = min(-lw.row(1), 0), max(lw.length, 0)
    else:
        raise ValueError(f"unknown diagram family {family!r}")
    if not is_generic(t):
        left, right = min(left, t - lam.black.length), max(right, lam.black.row(1) + t)
    return (left - 1, right)


@dataclass(frozen=True)
class WeightDiagram:
    """A weight diagram with a finite active window and stable tails."""

    t: ParamT
    family: str
    window: tuple[int, int]
    symbols: str

    def symbol(self, s: int) -> str:
        """The symbol at s; outside the window, the symbol at its nearer end."""
        left, right = self.window
        return self.symbols[min(max(s, left), right) - left]

    def render(self) -> str:
        """Symbols over position labels, one column per position."""
        labels = [str(s) for s in range(self.window[0], self.window[1] + 1)]
        top = "  ".join(sym.rjust(len(label)) for sym, label in zip(self.symbols, labels))
        return top + "\n" + "  ".join(labels)

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "family": self.family,
            "window": list(self.window),
            "symbols": self.symbols,
        }


@lru_cache(maxsize=None)
def build_diagram(lam: Bipartition, t: ParamT, family: str) -> WeightDiagram:
    """The weight diagram of lam, windowed to its stable region."""
    window = stable_window(lam, t, family)
    return WeightDiagram(t, family, window, _symbol_run(lam, t, family, *window))


def core_key(lam: Bipartition, t: int, family: str = FAMILY_DPRIME) -> tuple[tuple[int, str], ...]:
    """The core of lam's weight diagram as a hashable key: the (position,
    symbol) pairs of its '>' and '<' symbols, for integer t.

    Outside the stable window both tails are circles once crosses are cored,
    so two diagrams have the same core exactly when their keys are equal.
    """
    if is_generic(t):
        raise ValueError("core keys are defined for integer t only")
    d = build_diagram(lam, t, family)
    return tuple((s, sym) for s, sym in enumerate(d.symbols, d.window[0]) if sym in (GT, LT))


def same_core(lam: Bipartition, mu: Bipartition, t: ParamT, family: str = FAMILY_DPRIME) -> bool:
    """Whether the cores of the two weight diagrams agree at every integer."""
    if not is_generic(t):
        return core_key(lam, t, family) == core_key(mu, t, family)
    # At generic t the C-track lies off the lattice: its '>' symbols at
    # t + (black_i - i) pin the black partition, and the lattice has no
    # crosses to core, so its symbols pin the white one.
    return lam == mu
