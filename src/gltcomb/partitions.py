"""Partitions, bipartitions and the add/remove-box calculus.

Conventions: partitions are stored in canonical form (strictly positive,
weakly decreasing rows); the content of the cell in row i, column j
(both 1-based) is j - i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Optional


@dataclass(frozen=True, order=True)
class Partition:
    """A partition as a weakly decreasing tuple of positive integers."""

    rows: tuple[int, ...] = ()

    def __post_init__(self):
        for i, r in enumerate(self.rows):
            if r <= 0:
                raise ValueError(f"partition rows must be positive, got {r}")
            if i > 0 and self.rows[i - 1] < r:
                raise ValueError(f"partition rows must be weakly decreasing: {self.rows}")
        # The value the dataclass hash would compute on every call, so set
        # and dict orders are unchanged.
        object.__setattr__(self, "_hash", hash((self.rows,)))
        object.__setattr__(self, "size", sum(self.rows))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(*rows: int) -> "Partition":
        """Build a partition, dropping trailing zeros."""
        while rows and rows[-1] == 0:
            rows = rows[:-1]
        return Partition(rows)

    @property
    def length(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> int:
        """The i-th row (1-based), zero beyond the stored rows."""
        return self.rows[i - 1] if 1 <= i <= len(self.rows) else 0

    def transpose(self) -> "Partition":
        if not self.rows:
            return Partition()
        cols = [0] * self.rows[0]
        for r in self.rows:
            for j in range(r):
                cols[j] += 1
        return Partition(tuple(cols))

    def contains(self, other: "Partition") -> bool:
        return all(self.row(i + 1) >= r for i, r in enumerate(other.rows))

    @cached_property
    def box_table(self) -> tuple[dict[int, "Partition"], dict[int, "Partition"]]:
        """({a: self + box_a}, {a: self - box_a}), each in decreasing content
        a: the one implementation of the box rule.  Built on first use, kept
        for the life of the instance and left out of its pickled state;
        shared by every caller, so do not mutate it."""
        return _box_table(self.rows)

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "box_table"}

    def addable_contents(self) -> list[int]:
        """Contents of cells that may be added, in decreasing order."""
        return list(self.box_table[0])

    def removable_contents(self) -> list[int]:
        """Contents of corner cells that may be removed, in decreasing order."""
        return list(self.box_table[1])

    def add_box(self, a: int) -> Optional["Partition"]:
        """The unique partition in nu + box_a, or None (also for non-integer a)."""
        return self.box_table[0].get(a) if isinstance(a, int) else None

    def remove_box(self, a: int) -> Optional["Partition"]:
        """The unique partition in nu - box_a, or None (also for non-integer a)."""
        return self.box_table[1].get(a) if isinstance(a, int) else None

    def __str__(self) -> str:
        return "[" + ",".join(str(r) for r in self.rows) + "]"

    @staticmethod
    def parse(text: str) -> "Partition":
        """Parse '[3,1]' (whitespace-insensitive; trailing zeros dropped)."""
        text = "".join(text.split())
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"partition must look like '[3,1]', got {text!r}")
        body = text[1:-1]
        if not body:
            return Partition()
        try:
            rows = tuple(int(p) for p in body.split(","))
        except ValueError:
            raise ValueError(f"non-integer row in partition {text!r}") from None
        if any(r < 0 for r in rows):
            raise ValueError(f"negative row in partition {text!r}")
        return Partition.of(*rows)

    def to_json(self) -> list[int]:
        return list(self.rows)


EMPTY = Partition()


def _box_table(rows: tuple[int, ...]) -> tuple[dict[int, Partition], dict[int, Partition]]:
    """Partition.box_table of rows, in one pass: row i (0-based) offers the
    addable content rows[i] - i unless the row above has the same length,
    and the removable content rows[i] - i - 1 unless the row below does.
    Both strictly decrease with i; the empty row below the last adds -len."""
    adds: dict[int, Partition] = {}
    removes: dict[int, Partition] = {}
    last = len(rows) - 1
    for i, r in enumerate(rows):
        if i == 0 or rows[i - 1] > r:
            adds[r - i] = Partition(rows[:i] + (r + 1,) + rows[i + 1 :])
        if i == last or rows[i + 1] < r:
            removes[r - i - 1] = Partition(rows[:i] + ((r - 1,) if r > 1 else ()) + rows[i + 1 :])
    adds[-len(rows)] = Partition(rows + (1,))
    return adds, removes


def n_weight(nu: Partition, a: int) -> int:
    """The h_a eigenvalue on v_nu: +1 addable, -1 removable, 0 otherwise."""
    if not isinstance(a, int):
        return 0
    adds, removes = nu.box_table
    return 1 if a in adds else -1 if a in removes else 0


@dataclass(frozen=True, order=True)
class Bipartition:
    """A pair (black, white) of partitions."""

    black: Partition = EMPTY
    white: Partition = EMPTY

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.black, self.white)))
        object.__setattr__(self, "size", self.black.size + self.white.size)

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(black, white) -> "Bipartition":
        return Bipartition(Partition.of(*black), Partition.of(*white))

    def conjugate(self) -> "Bipartition":
        """(black, transpose of white); an involution."""
        return Bipartition(self.black, self.white.transpose())

    def __str__(self) -> str:
        return f"[{self.black},{self.white}]"

    @staticmethod
    def parse(text: str) -> "Bipartition":
        """Parse '[[3,1],[2]]' (black first, whitespace-insensitive)."""
        text = "".join(text.split())
        if not (text.startswith("[[") and text.endswith("]]")):
            raise ValueError(f"bipartition must look like '[[3,1],[2]]', got {text!r}")
        inner = text[1:-1]
        sep = inner.find("],[")
        if sep < 0:
            raise ValueError(f"bipartition must have two parts, got {text!r}")
        return Bipartition(Partition.parse(inner[: sep + 1]), Partition.parse(inner[sep + 2 :]))

    def to_json(self) -> list[list[int]]:
        return [self.black.to_json(), self.white.to_json()]


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in lexicographically decreasing order."""
    if n < 0:
        return ()

    def gen(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(Partition(rows) for rows in gen(n, n if n else 1))


@lru_cache(maxsize=None)
def partitions_up_to(n: int) -> tuple[Partition, ...]:
    """All partitions of size at most n, by (size, lex)."""
    out: list[Partition] = []
    for k in range(n + 1):
        out.extend(sorted(partitions_of(k), key=lambda p: p.rows))
    return tuple(out)


@lru_cache(maxsize=None)
def bipartitions_up_to(n: int) -> tuple[Bipartition, ...]:
    """All bipartitions of total size at most n, by (size, lex on black then white)."""
    out: list[Bipartition] = []
    for k in range(n + 1):
        layer = [
            Bipartition(b, w)
            for i in range(k + 1)
            for b in partitions_of(i)
            for w in partitions_of(k - i)
        ]
        out.extend(sorted(layer, key=lambda bp: (bp.black.rows, bp.white.rows)))
    return tuple(out)
