"""Grothendieck-level matrix algebra: translation matrices on the standard
and tilting bases, mixed-tensor decompositions, Hom dimensions and the
eigenvalue labels of the content operator."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .caps import D_matrix, inverse_row, lift_row
from .diagrams import ParamT, is_generic
from .lr import B_matrix
from .matrices import BipartitionMatrix, add_into, product
from .partitions import Bipartition, bipartitions_up_to

INTEGER_FAMILY = "integer"
SHIFTED_FAMILY = "shifted"


def _contents(a: int, t: ParamT, family: Optional[str]) -> tuple[Optional[int], Optional[int]]:
    """The contents of f_a's two box moves, (black box added, white box
    removed), None for a track that is off: at generic t the action splits
    into sl_Z x sl_Z and the family picks the black or the white copy."""
    if not is_generic(t):
        return a, -(a + t)
    if family == INTEGER_FAMILY:
        return a, None
    if family == SHIFTED_FAMILY:
        return None, -a
    raise ValueError("generic t needs family 'integer' or 'shifted'")


@lru_cache(maxsize=None)
def _box_moves(n: int) -> tuple[dict[int, list], dict[int, list]]:
    """The one-box moves inside the truncation n, keyed by content and
    independent of t: the black additions (lam, lam + black box c) with
    |lam| < n, and the white removals (lam, lam - white box c).  Both ends are
    the index's own instances."""
    index = bipartitions_up_to(n)
    own = {bp: bp for bp in index}
    black: dict[int, list] = {}
    white: dict[int, list] = {}
    for lam in index:
        if lam.size < n:
            for c, nu in lam.black.box_table[0].items():
                black.setdefault(c, []).append((lam, own[Bipartition(nu, lam.white)]))
        for c, nu in lam.white.box_table[1].items():
            white.setdefault(c, []).append((lam, own[Bipartition(lam.black, nu)]))
    return black, white


def a_tilde(a: int, t: ParamT, n: int, family: Optional[str] = None) -> BipartitionMatrix:
    """Translation matrix on the standard basis: (lam, mu) entry 1 iff mu is
    lam plus a black content-a box or lam minus a white content -(a+t) box."""
    rows: dict[Bipartition, dict[Bipartition, int]] = {}
    for moves, c in zip(_box_moves(n), _contents(a, t, family)):
        if c is not None:
            for lam, mu in moves.get(c, ()):
                rows.setdefault(lam, {})[mu] = 1
    return BipartitionMatrix(n, rows)


def e_tilde(a: int, t: ParamT, n: int, family: Optional[str] = None) -> BipartitionMatrix:
    """(lam, mu) entry 1 iff mu is lam minus a black content-a box or lam plus
    a white content -(a+t) box."""
    m = BipartitionMatrix(n)
    black_c, white_c = _contents(a, t, family)
    for lam in bipartitions_up_to(n):
        if black_c is not None:
            black = lam.black.remove_box(black_c)
            if black is not None:
                m.set(lam, Bipartition(black, lam.white), 1)
        if white_c is not None:
            white = lam.white.add_box(white_c)
            if white is not None and lam.size + 1 <= n:
                m.set(lam, Bipartition(lam.black, white), 1)
    return m


class InternalInconsistencyError(RuntimeError):
    """A derived multiplicity came out negative."""


def _nonnegative(rows: dict, where: str) -> dict:
    """rows, checked nonnegative: the first negative entry in row order, then
    entry order, raises InternalInconsistencyError naming it and where."""
    for lam, row in rows.items():
        for mu, v in row.items():
            if v < 0:
                raise InternalInconsistencyError(
                    f"negative tilting multiplicity {v} at ({lam}, {mu}), {where}"
                )
    return rows


def a_matrix(a: int, t: ParamT, n: int, family: Optional[str] = None) -> BipartitionMatrix:
    """Translation matrix on the tilting basis, D * a_tilde * D^-1 computed at
    truncation n+1 and restricted to n.  Row lam is F_a T(lam) in the tilting
    basis: over the mu of D's row of lam, lift_row(lam, t), then the nu of
    a_tilde's row of mu, the sum of D^-1's rows of nu, cut to size at most n.
    At generic t, D = D^-1 = I, so this is a_tilde(a, t, n, family)."""
    tilde = a_tilde(a, t, n + 1, family).rows
    rows: dict[Bipartition, dict[Bipartition, int]] = {}
    for lam, lift in D_matrix(t, n + 1).rows.items():
        if lam.size > n:
            break  # D's rows run in index order, by ascending size
        row: dict[Bipartition, int] = {}
        for mu in lift:
            for nu in tilde.get(mu, ()):
                for kappa, w in inverse_row(nu, t).items():
                    if kappa.size <= n:
                        add_into(row, kappa, w)
        if row:
            rows[lam] = row
    return BipartitionMatrix(n, _nonnegative(rows, f"a={a}, t={t}"))


def b_row(lam: Bipartition, t: ParamT) -> dict[Bipartition, int]:
    """lam's row of b(t) = B D(t)^-1, the same in every truncation n >= |lam|:
    B(|lam|)'s row of lam times the rows of D(t)^-1, checked nonnegative."""
    row = product({lam: B_matrix(lam.size).rows[lam]}, inverse_row, t)
    return _nonnegative(row, f"t={t}").get(lam, {})


def b_matrix(t: ParamT, n: int) -> BipartitionMatrix:
    """Multiplicities of indecomposable tiltings in the mixed Schur-functor
    tensor objects: B's rows, in index order, times the inverse of the
    lift-multiplicity matrix."""
    B = B_matrix(n).rows
    rows = product({lam: B[lam] for lam in bipartitions_up_to(n)}, inverse_row, t)
    return BipartitionMatrix(n, _nonnegative(rows, f"t={t}"))


def hom_dim(lam: Bipartition, mu: Bipartition, t: ParamT) -> int:
    """dim Hom between the tiltings of lam and mu: paired standard
    multiplicities, which are 0/1, so the standards the two rows share."""
    return len(lift_row(lam, t).keys() & lift_row(mu, t).keys())


@dataclass(frozen=True)
class EigenLabel:
    """Content-operator eigenvalue: either the integer c, or c - t (formal in t)."""

    kind: str  # "int" | "shifted"
    c: int

    def value(self, t: int) -> int:
        return self.c if self.kind == "int" else self.c - t

    def to_json(self) -> dict:
        return {"kind": self.kind, "c": self.c}


def x_eigenvalue(lam: Bipartition, mu: Bipartition, t: ParamT) -> Optional[EigenLabel]:
    """Eigenvalue label of the content operator on the connection lam -> mu,
    absent when mu is not a single black addition or white removal."""
    if mu.white == lam.white and mu.black.size == lam.black.size + 1:
        for c, nu in lam.black.box_table[0].items():
            if nu == mu.black:
                return EigenLabel("int", c)
    if mu.black == lam.black and mu.white.size == lam.white.size - 1:
        for c, nu in lam.white.box_table[1].items():
            if nu == mu.white:
                return EigenLabel("shifted", -c)
    return None


def f_on_standard(
    lam: Bipartition, a: int, t: ParamT, family: Optional[str] = None
) -> tuple[Optional[Bipartition], Optional[Bipartition]]:
    """Sub and quotient of the standard filtration of the translated standard
    object: (lam plus black box_a, lam minus white box_{-(a+t)})."""
    black_c, white_c = _contents(a, t, family)
    black = None if black_c is None else lam.black.add_box(black_c)
    white = None if white_c is None else lam.white.remove_box(white_c)
    return (None if black is None else Bipartition(black, lam.white),
            None if white is None else Bipartition(lam.black, white))
