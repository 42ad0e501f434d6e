"""Sparse integer matrices indexed by bipartitions of bounded total size."""

from __future__ import annotations

from dataclasses import dataclass, field

from .partitions import Bipartition, bipartitions_up_to


def sort_key(bp: Bipartition):
    return (bp.size, bp.black.rows, bp.white.rows)


def add_into(vec: dict, key, coeff: int) -> None:
    """vec[key] += coeff, deleting key when the sum is 0: the one update that
    keeps a sparse row or vector to its nonzero values."""
    acc = vec.get(key, 0) + coeff
    if acc:
        vec[key] = acc
    else:
        vec.pop(key, None)


def product(rows: dict, row_of, *args) -> dict:
    """The sparse product {r: sum over k of rows[r][k] * row_of(k, *args)},
    with zeros dropped and empty rows left out, in the order of rows.  Every
    output row is a new dict, so no row that is read is written.  The inner
    loop is add_into's update written out, as a call per entry costs the
    products about a tenth of their time."""
    out = {}
    for r, row in rows.items():
        acc: dict = {}
        for k, v in row.items():
            for c, w in row_of(k, *args).items():
                total = acc.get(c, 0) + v * w
                if total:
                    acc[c] = total
                else:
                    del acc[c]
        if acc:
            out[r] = acc
    return out


@dataclass
class BipartitionMatrix:
    """Sparse integer matrix over bipartitions of size <= n, stored by rows:
    row -> {col: value}, with nonzero values only and no empty row.

    A row may be shared with the rule that computed it (D's rows are
    caps.lift_row, D^-1's caps.inverse_row), so copy a row before editing it."""

    n: int
    rows: dict[Bipartition, dict[Bipartition, int]] = field(default_factory=dict)

    def get(self, row: Bipartition, col: Bipartition) -> int:
        entries = self.rows.get(row)
        return entries.get(col, 0) if entries else 0

    def set(self, row: Bipartition, col: Bipartition, val: int) -> None:
        if val:
            self.rows.setdefault(row, {})[col] = val
        elif col in self.rows.get(row, ()):
            del self.rows[row][col]
            if not self.rows[row]:
                del self.rows[row]

    def items(self):
        """Every (row, col, value), rows then columns in (size, black, white) order."""
        for r in sorted(self.rows, key=sort_key):
            row = self.rows[r]
            for c in sorted(row, key=sort_key):
                yield r, c, row[c]

    @staticmethod
    def identity(n: int) -> "BipartitionMatrix":
        return BipartitionMatrix(n, {bp: {bp: 1} for bp in bipartitions_up_to(n)})

    def mul(self, other: "BipartitionMatrix") -> "BipartitionMatrix":
        if self.n != other.n:
            raise ValueError("size bounds differ")
        return BipartitionMatrix(self.n, product(self.rows, other.rows.get, {}))

    def transpose(self) -> "BipartitionMatrix":
        result = BipartitionMatrix(self.n)
        for r, row in self.rows.items():
            for c, v in row.items():
                result.rows.setdefault(c, {})[r] = v
        return result

    def restrict(self, n: int) -> "BipartitionMatrix":
        if n > self.n:
            raise ValueError("cannot grow a truncation")
        result = BipartitionMatrix(n)
        for r, row in self.rows.items():
            if r.size <= n:
                kept = {c: v for c, v in row.items() if c.size <= n}
                if kept:
                    result.rows[r] = kept
        return result

    def is_unitriangular(self) -> bool:
        """Unit diagonal and off-diagonal support only where row size > column size."""
        for bp in bipartitions_up_to(self.n):
            if self.get(bp, bp) != 1:
                return False
        return all(r == c or r.size > c.size for r, row in self.rows.items() for c in row)

    def to_json(self, t=None) -> dict:
        out = {
            "N": self.n,
            "entries": [
                {"row": r.to_json(), "col": c.to_json(), "val": v} for r, c, v in self.items()
            ],
        }
        if t is not None:
            out = {"t": t, **out}
        return out
