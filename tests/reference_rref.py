"""The Gauss-Jordan elimination on ExactScalar entries that ``wfdim.linalg.rref``
replaced, kept as the reference its fraction-free version is compared against.

Pivots are chosen by the largest-numerator rule: the numerator of the
pivot's norm, largest first.
"""

from __future__ import annotations

from wfdim.fields import ExactScalar
from wfdim.linalg import Matrix, _copy


def pivot_weight(entry: ExactScalar) -> int:
    """Size measure used to pick elimination pivots: largest numerator wins."""
    n = entry.norm()
    return abs(n.numerator)


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (new rows, pivot column indices)."""
    m = _copy(rows)
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: list[int] = []
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= len(m):
            break
        best = None
        best_weight = -1
        for i in range(pivot_row, len(m)):
            entry = m[i][col]
            if not entry.is_zero():
                w = pivot_weight(entry)
                if w > best_weight:
                    best, best_weight = i, w
        if best is None:
            continue
        m[pivot_row], m[best] = m[best], m[pivot_row]
        inv = m[pivot_row][col].inverse()
        m[pivot_row] = [e * inv for e in m[pivot_row]]
        for i in range(len(m)):
            if i != pivot_row and not m[i][col].is_zero():
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    return m, pivots
