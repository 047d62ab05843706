"""Exact dense linear algebra for small matrices of ExactScalar entries.

``rref`` is fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968): each
row is scaled to integers by the lcm of its denominators (over Q(sqrt(d)), to
pairs of ints in Z[sqrt(d)]), every division by the previous pivot is exact by
Sylvester's identity, and the pivot rows are divided by the last pivot once,
at the end.  The reduced row echelon form is unique, so there is no pivot
rule, and rank and kernel decisions carry no tolerance at all.
``determinant`` reads the same elimination: the last pivot over the signed
product of the row scales.
``canonical_rows`` is the one normal form every reported basis goes
through: reduced row echelon, zero rows dropped, each leading entry 1 — two
spanning sets are equal as subspaces iff their canonical rows are identical.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import FieldMismatchError
from .fields import ExactScalar, Field, _scalar

Matrix = list[list[ExactScalar]]
Vector = list[ExactScalar]


def _copy(rows: Matrix) -> Matrix:
    return [list(row) for row in rows]


def _integral_row(row: Vector, field: Field) -> tuple[list, int]:
    """The row times the lcm of its denominators: ints over Q, (a, b) pairs
    standing for a + b*sqrt(d) over Q(sqrt(d)); and that lcm."""
    if any(x.field is not field for x in row):
        raise FieldMismatchError(f"matrix entries from {field!r} and another field")
    if field.d is None:
        scale = lcm(*(x.a.denominator for x in row))
        return [x.a.numerator * (scale // x.a.denominator) for x in row], scale
    scale = lcm(*(x.a.denominator for x in row), *(x.b.denominator for x in row))
    return [(x.a.numerator * (scale // x.a.denominator),
             x.b.numerator * (scale // x.b.denominator)) for x in row], scale


def _combine(d: int | None, pivot, factor, prev, row: list, prow: list) -> list:
    """(pivot*row - factor*prow) / prev, entrywise; the division is exact."""
    if d is None:
        return [(pivot * x - factor * y) // prev for x, y in zip(row, prow)]
    (pa, pb), (fa, fb), (qa, qb) = pivot, factor, prev
    # Divide by prev = qa + qb*sqrt(d): times the conjugate, over the norm.
    divisor = qa * qa - d * qb * qb if qb else qa
    out = []
    for (xa, xb), (ya, yb) in zip(row, prow):
        ta = pa * xa + d * (pb * xb - fb * yb) - fa * ya
        tb = pa * xb + pb * xa - fa * yb - fb * ya
        if qb:
            ta, tb = ta * qa - d * tb * qb, tb * qa - ta * qb
        out.append((ta // divisor, tb // divisor))
    return out


def _normalised(row: list, last, field: Field) -> Vector:
    """A pivot row divided by the last pivot, back as ExactScalars."""
    if field.d is None:
        return [_scalar(field, Fraction(x, last)) for x in row]
    d, (qa, qb) = field.d, last
    norm = qa * qa - d * qb * qb
    return [_scalar(field, Fraction(xa * qa - d * xb * qb, norm), Fraction(xb * qa - xa * qb, norm))
            for xa, xb in row]


def _eliminate(rows: Matrix, field: Field) -> tuple[list[list], list[int], object, int]:
    """Fraction-free Gauss-Jordan on the rows scaled to integers.

    Returns the integer rows, the pivot columns, the last pivot, and the
    product of the row scales, negated once per row swap.  The last pivot of
    a square matrix of full rank is the determinant of the scaled, swapped
    rows (Sylvester's identity).
    """
    zero, prev = (0, 1) if field.d is None else ((0, 0), (1, 0))
    m, scale = [], 1
    for row in rows:
        integral, row_scale = _integral_row(row, field)
        m.append(integral)
        scale *= row_scale
    pivots: list[int] = []
    for col in range(len(m[0])):
        r = len(pivots)
        best = next((i for i in range(r, len(m)) if m[i][col] != zero), None)
        if best is None:
            continue
        if best != r:
            scale = -scale
        m[r], m[best] = m[best], m[r]
        pivot, prow = m[r][col], m[r]
        m = [row if i == r else _combine(field.d, pivot, row[col], prev, row, prow)
             for i, row in enumerate(m)]
        prev = pivot
        pivots.append(col)
    return m, pivots, prev, scale


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (new rows, pivot column indices)."""
    if not rows or not rows[0]:
        return _copy(rows), []
    field = rows[0][0].field
    m, pivots, last, _ = _eliminate(rows, field)
    reduced = [_normalised(row, last, field) for row in m[:len(pivots)]]
    return reduced + [[field.zero()] * len(m[0]) for _ in m[len(pivots):]], pivots


def rank(rows: Matrix) -> int:
    return len(rref(rows)[1])


def determinant(rows: Matrix) -> ExactScalar:
    """Determinant of a square matrix: the last pivot of the fraction-free
    elimination over the signed product of the row scales."""
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise ValueError("determinant requires a square matrix")
    if size == 0:
        raise ValueError("determinant of an empty matrix is undefined")
    field = rows[0][0].field
    _, pivots, last, scale = _eliminate(rows, field)
    if len(pivots) < size:
        return field.zero()
    return _normalised([last], scale if field.d is None else (scale, 0), field)[0]


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
