"""Sparse integer matrices indexed by bipartitions of bounded total size."""

from __future__ import annotations

from dataclasses import dataclass, field

from .partitions import Bipartition, bipartitions_up_to


def sort_key(bp: Bipartition):
    return (bp.size, bp.black.rows, bp.white.rows)


@dataclass
class BipartitionMatrix:
    """Sparse map (row, col) -> integer over bipartitions of size <= n."""

    n: int
    entries: dict[tuple[Bipartition, Bipartition], int] = field(default_factory=dict)

    def get(self, row: Bipartition, col: Bipartition) -> int:
        return self.entries.get((row, col), 0)

    def set(self, row: Bipartition, col: Bipartition, val: int) -> None:
        if val == 0:
            self.entries.pop((row, col), None)
        else:
            self.entries[(row, col)] = val

    def index(self) -> tuple[Bipartition, ...]:
        return bipartitions_up_to(self.n)

    @staticmethod
    def identity(n: int) -> "BipartitionMatrix":
        m = BipartitionMatrix(n)
        for bp in bipartitions_up_to(n):
            m.entries[(bp, bp)] = 1
        return m

    @staticmethod
    def from_rows(n: int, rows: dict[Bipartition, dict[Bipartition, int]]) -> "BipartitionMatrix":
        return BipartitionMatrix(n, {(r, c): v for r, row in rows.items() for c, v in row.items()})

    def rows(self) -> dict[Bipartition, dict[Bipartition, int]]:
        out: dict[Bipartition, dict[Bipartition, int]] = {}
        for (r, c), v in self.entries.items():
            out.setdefault(r, {})[c] = v
        return out

    def mul(self, other: "BipartitionMatrix") -> "BipartitionMatrix":
        if self.n != other.n:
            raise ValueError("size bounds differ")
        other_rows = other.rows()
        result = BipartitionMatrix(self.n)
        for (r, k), v in self.entries.items():
            for c, w in other_rows.get(k, {}).items():
                key = (r, c)
                acc = result.entries.get(key, 0) + v * w
                if acc:
                    result.entries[key] = acc
                else:
                    result.entries.pop(key, None)
        return result

    def transpose(self) -> "BipartitionMatrix":
        return BipartitionMatrix(self.n, {(c, r): v for (r, c), v in self.entries.items()})

    def restrict(self, n: int) -> "BipartitionMatrix":
        if n > self.n:
            raise ValueError("cannot grow a truncation")
        return BipartitionMatrix(
            n,
            {(r, c): v for (r, c), v in self.entries.items() if r.size <= n and c.size <= n},
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BipartitionMatrix)
            and self.n == other.n
            and self.entries == other.entries
        )

    def is_unitriangular(self) -> bool:
        """Unit diagonal and off-diagonal support only where row size > column size."""
        for bp in self.index():
            if self.get(bp, bp) != 1:
                return False
        return all(r == c or r.size > c.size or v == 0 for (r, c), v in self.entries.items())

    def to_json(self, t=None) -> dict:
        items = sorted(self.entries.items(), key=lambda kv: (sort_key(kv[0][0]), sort_key(kv[0][1])))
        out = {
            "N": self.n,
            "entries": [
                {"row": r.to_json(), "col": c.to_json(), "val": v} for (r, c), v in items
            ],
        }
        if t is not None:
            out = {"t": t, **out}
        return out

