"""Fock-space style modules over sl_Z: tautological, plain, the shifted
duals F_t^v, the bipartition tensor module, and finite wedge truncations.
The restricted dual F^v of the t-not-in-Z picture F (x) F^v is the shifted
dual at t = 0, so it has no rule of its own.

Vectors are finite integer combinations stored as dicts from basis keys to
nonzero coefficients, kept so by matrices.add_into; the operators are
globally defined, so no truncation cutoff enters the action itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .matrices import add_into
from .partitions import Bipartition, Partition, n_weight

BasisKey = Union[Partition, Bipartition, int, tuple]
Vector = dict


@dataclass(frozen=True)
class Mode:
    """Which module the generators act on."""

    kind: str  # plain | shifted | tensor | taut | wedge
    t: Optional[int] = None
    n: Optional[int] = None

    @staticmethod
    def plain() -> "Mode":
        return Mode("plain")

    @staticmethod
    def shifted_dual(t: int) -> "Mode":
        return Mode("shifted", t=t)

    @staticmethod
    def tensor(t: int) -> "Mode":
        return Mode("tensor", t=t)

    @staticmethod
    def tautological() -> "Mode":
        return Mode("taut")

    @staticmethod
    def wedge(n: int) -> "Mode":
        return Mode("wedge", n=n)


def _check_key(mode: Mode, key: BasisKey) -> None:
    if mode.kind in ("plain", "shifted"):
        ok = isinstance(key, Partition)
    elif mode.kind == "tensor":
        ok = isinstance(key, Bipartition)
    elif mode.kind == "taut":
        ok = isinstance(key, int) and not isinstance(key, bool)
    elif mode.kind == "wedge":
        ok = (
            isinstance(key, tuple)
            and len(key) == mode.n
            and all(key[i] > key[i + 1] for i in range(len(key) - 1))
        )
    else:
        raise ValueError(f"unknown mode {mode.kind!r}")
    if not ok:
        raise TypeError(f"basis key {key!r} does not belong to mode {mode.kind!r}")


def images(gen: str, mode: Mode, key: BasisKey) -> dict[int, Vector]:
    """The nonzero images {a: gen_a(key)} of a basis key under every f_a (gen
    "f") or every e_a (gen "e"), read off the box tables.  f_a adds a box of
    content a (plain) or removes one of content -(a + t) (shifted); on the
    tensor module it does both, black then white, and e_a undoes each move.
    On u_i, f_i gives u_{i+1}; on a wedge, f_a turns an entry a into a + 1."""
    f = gen == "f"
    kind = mode.kind
    if kind == "plain":
        return {c: {nu: 1} for c, nu in key.box_table[0 if f else 1].items()}
    if kind == "shifted":
        return {-(c + mode.t): {nu: 1} for c, nu in key.box_table[1 if f else 0].items()}
    if kind == "tensor":
        black, white = key.black, key.white
        out = {c: {Bipartition(nu, white): 1} for c, nu in black.box_table[0 if f else 1].items()}
        for c, nu in white.box_table[1 if f else 0].items():
            out.setdefault(-(c + mode.t), {})[Bipartition(black, nu)] = 1
        return out
    if kind == "taut":
        return {key: {key + 1: 1}} if f else {key - 1: {key - 1: 1}}
    if kind == "wedge":
        # in-place replacement keeps strict decrease, so no sign arises
        step = 1 if f else -1
        return {
            v if f else v - 1: {tuple(v + step if u == v else u for u in key): 1}
            for v in key
            if v + step not in key
        }
    raise ValueError(f"unknown mode {kind!r}")


def apply_generator(gen: str, a: int, mode: Mode, vec: Vector) -> Vector:
    """Linear extension of the generator action f_a or e_a; the index a must
    be an integer."""
    if gen not in ("f", "e"):
        raise ValueError(f"generator must be 'f' or 'e', got {gen!r}")
    if not isinstance(a, int):
        raise ValueError(f"generator index must be an integer, got {a!r}")
    out: Vector = {}
    for key, coeff in vec.items():
        _check_key(mode, key)
        for new, c in images(gen, mode, key).get(a, {}).items():
            add_into(out, new, coeff * c)
    return out


def h_eigenvalue(a: int, mode: Mode, key: BasisKey) -> int:
    """Diagonal eigenvalue of h_a on a basis vector, per module."""
    if mode.kind == "plain":
        return n_weight(key, a)
    if mode.kind == "shifted":
        return -n_weight(key, -(a + mode.t))
    if mode.kind == "tensor":
        return n_weight(key.black, a) - n_weight(key.white, -(a + mode.t))
    if mode.kind == "taut":
        return (1 if key == a else 0) - (1 if key == a + 1 else 0)
    if mode.kind == "wedge":
        return sum(1 for v in key if v == a) - sum(1 for v in key if v == a + 1)
    raise ValueError(f"unknown mode {mode.kind!r}")


def omega(nu: Partition) -> dict[int, int]:
    """The fundamental-weight expansion of the weight of v_nu."""
    adds, removes = nu.box_table
    return {**dict.fromkeys(adds, 1), **dict.fromkeys(removes, -1)}


def tensor_weight(lam: Bipartition, t: int) -> dict[int, int]:
    """The h_a eigenvalues on the tensor basis vector lam, zeros left out:
    a -> n_weight(lam.black, a) - n_weight(lam.white, -(a + t))."""
    weight = omega(lam.black)
    for c, v in omega(lam.white).items():
        add_into(weight, -(c + t), -v)
    return weight


def black_sums_dominate(lam: Bipartition, mu: Bipartition) -> bool:
    """Whether every partial sum of lam's black rows is at least mu's."""
    acc_l = acc_m = 0
    for i in range(1, max(lam.black.length, mu.black.length) + 1):
        acc_l += lam.black.row(i)
        acc_m += mu.black.row(i)
        if acc_l < acc_m:
            return False
    return True


def dominance_leq(lam: Bipartition, mu: Bipartition, t: int) -> bool:
    """Whether lam <= mu: the signed corner-weight identity holds and the
    black partial sums of lam dominate those of mu."""
    return tensor_weight(lam, t) == tensor_weight(mu, t) and black_sums_dominate(lam, mu)


def partition_to_sequence(nu: Partition, n: int) -> tuple[int, ...]:
    """The first n entries of (nu_1, nu_2 - 1, nu_3 - 2, ...)."""
    return tuple(nu.row(i) - (i - 1) for i in range(1, n + 1))


def pi_n(vec: Vector, n: int) -> Vector:
    """Truncate each partition basis vector to its length-n wedge."""
    if n < 1:
        raise ValueError("wedge length must be at least 1")
    out: Vector = {}
    for nu, coeff in vec.items():
        _check_key(Mode.plain(), nu)
        add_into(out, partition_to_sequence(nu, n), coeff)
    return out


def phi_n(vec: Vector) -> Vector:
    """Drop the last entry of each wedge basis sequence."""
    out: Vector = {}
    for seq, coeff in vec.items():
        if not isinstance(seq, tuple) or len(seq) < 2:
            raise ValueError("phi needs wedge sequences of length at least 2")
        add_into(out, seq[:-1], coeff)
    return out


def wedge_basis(n: int, k: int) -> list[tuple[int, ...]]:
    """All length-n strictly decreasing sequences with i_{-s} + s in [0, k]
    and total energy at most k."""
    out: list[tuple[int, ...]] = []

    def rec(s: int, prev: int, used: int, acc: tuple[int, ...]):
        if s == n:
            out.append(acc)
            return
        hi = min(k - s - used, prev - 1 if acc else k)
        for v in range(hi, -s - 1, -1):
            rec(s + 1, v, used + v + s, acc + (v,))

    rec(0, 0, 0, ())
    return out
