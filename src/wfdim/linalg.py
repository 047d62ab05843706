"""Exact dense linear algebra for small matrices of ExactScalar entries.

Everything here is Gauss-Jordan over a field with exact arithmetic, so rank
and kernel decisions carry no tolerance at all.  Pivots are chosen by the
largest-numerator rule (via ``ExactScalar.pivot_weight``) to slow coefficient
growth.  ``canonical_rows`` is the one normal form every reported basis goes
through: reduced row echelon, zero rows dropped, each leading entry 1 — two
spanning sets are equal as subspaces iff their canonical rows are identical.
"""

from __future__ import annotations

from .fields import ExactScalar, Field

Matrix = list[list[ExactScalar]]
Vector = list[ExactScalar]


def _copy(rows: Matrix) -> Matrix:
    return [list(row) for row in rows]


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
                w = entry.pivot_weight()
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


def rank(rows: Matrix) -> int:
    return len(rref(rows)[1])


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


def nullspace(rows: Matrix, ncols: int, field: Field) -> list[Vector]:
    """Basis of {v : rows @ v = 0}, one vector per free column."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [j for j in range(ncols) if j not in pivot_set]
    basis: list[Vector] = []
    zero, one = field.zero(), field.one()
    for free in free_cols:
        v = [zero] * ncols
        v[free] = one
        for i, pcol in enumerate(pivots):
            v[pcol] = -reduced[i][free]
        basis.append(v)
    return basis


def canonical_rows(vectors: list[Vector], ncols: int, field: Field) -> list[Vector]:
    """Canonical representation of span(vectors): RREF with zero rows dropped."""
    if not vectors:
        return []
    for v in vectors:
        if len(v) != ncols:
            raise ValueError("inconsistent vector lengths")
    reduced, pivots = rref(vectors)
    return [reduced[i] for i in range(len(pivots))]

