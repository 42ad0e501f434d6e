"""The tests' own decoder from dprime weight diagrams back to bipartitions.

It reads the symbols position by position, pads both tails and validates the
rows itself, and imports nothing from gltcomb.caps, so the rows the tests
rebuild with it check `caps.lift_row`'s beta-number swaps instead of sharing
their decode.
"""

from gltcomb.diagrams import CIRC, CROSS, GT
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
