"""The eliminations on ExactScalar entries that ``wfdim.linalg``'s
fraction-free ``rref`` and ``determinant`` replaced, kept as the references
they are compared against.

``rref`` chooses pivots by the largest-numerator rule: the numerator of the
pivot's norm, largest first.  ``determinant`` is Gaussian elimination with
the first nonzero pivot.
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


def determinant(rows: Matrix) -> ExactScalar:
    """Determinant of a square matrix by elimination with exact division."""
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise ValueError("determinant requires a square matrix")
    if size == 0:
        raise ValueError("determinant of an empty matrix is undefined")
    field = rows[0][0].field
    m = _copy(rows)
    det = field.one()
    for col in range(size):
        pivot = next((i for i in range(col, size) if not m[i][col].is_zero()), None)
        if pivot is None:
            return field.zero()
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col]
        inv = m[col][col].inverse()
        for i in range(col + 1, size):
            if not m[i][col].is_zero():
                factor = m[i][col] * inv
                m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    return det
