"""Plain-dict views of gltcomb matrices and the small amount of exact
combinatorics the correctness checks need, written independently of the
library so that a check never trusts the code it checks.

A bipartition is a key ((black rows...), (white rows...)); a matrix is a dict
{(row_key, col_key): value} read from the public JSON form `to_json()`, whose
layout the CLI promises to keep.
"""

from __future__ import annotations


def key(bp_json) -> tuple:
    black, white = bp_json
    return (tuple(black), tuple(white))


def as_dict(matrix) -> dict:
    """{(row, col): val} from a library matrix through its JSON form."""
    return {(key(e["row"]), key(e["col"])): e["val"] for e in matrix.to_json()["entries"]}


def size(bp: tuple) -> int:
    return sum(bp[0]) + sum(bp[1])


def partitions(n: int) -> list[tuple]:
    """All partitions of n as weakly decreasing tuples."""
    def gen(rem, cap):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, cap), 0, -1):
            for rest in gen(rem - first, first):
                yield (first,) + rest

    return list(gen(n, n))


def bipartitions_up_to(n: int) -> list[tuple]:
    return [(b, w) for k in range(n + 1) for i in range(k + 1)
            for b in partitions(i) for w in partitions(k - i)]


def rows_of(m: dict) -> dict:
    out: dict = {}
    for (r, c), v in m.items():
        out.setdefault(r, {})[c] = v
    return out


def mul(x: dict, y: dict) -> dict:
    y_rows = rows_of(y)
    out: dict = {}
    for (r, k), v in x.items():
        for c, w in y_rows.get(k, {}).items():
            out[(r, c)] = out.get((r, c), 0) + v * w
    return {rc: v for rc, v in out.items() if v}


def madds(x: dict, y: dict) -> int:
    """Multiply-adds a row-by-row sparse product x*y performs."""
    y_rows = rows_of(y)
    return sum(len(y_rows.get(k, ())) for (_, k) in x)


def restrict(m: dict, n: int) -> dict:
    return {(r, c): v for (r, c), v in m.items() if size(r) <= n and size(c) <= n}


def identity(n: int) -> dict:
    return {(bp, bp): 1 for bp in bipartitions_up_to(n)}


def add_box(rows: tuple, content: int):
    """rows plus the addable box of the given content (column - row), or None."""
    for i in range(len(rows) + 1):
        r = rows[i] if i < len(rows) else 0
        if (i == 0 or rows[i - 1] > r) and r - i == content:
            return rows[:i] + (r + 1,) + rows[i + 1:]
    return None


def remove_box(rows: tuple, content: int):
    for i, r in enumerate(rows):
        below = rows[i + 1] if i + 1 < len(rows) else 0
        if r > below and r - 1 - i == content:
            return tuple(x for x in rows[:i] + (r - 1,) + rows[i + 1:] if x)
    return None


def a_tilde(a: int, t: int, n: int) -> dict:
    """Standard-basis translation: lam -> lam + black box_a, lam - white box_-(a+t)."""
    out = {}
    for lam in bipartitions_up_to(n):
        black = add_box(lam[0], a)
        if black is not None and size(lam) + 1 <= n:
            out[(lam, (black, lam[1]))] = 1
        white = remove_box(lam[1], -(a + t))
        if white is not None:
            out[(lam, (lam[0], white))] = 1
    return out
