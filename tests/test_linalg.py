"""Exact dense linear algebra: rank, determinant, kernel, canonical spans."""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import reference_rref
from wfdim import Field, FieldMismatchError
from wfdim.linalg import canonical_rows, determinant, nullspace, rank, rref

RATIONALS = Field.rationals()
ROOT3 = Field.quadratic(3)
# Q, then quadratic fields with d = 3 and -1 (d = 3 mod 4) and with d = 5,
# 33 and -3 (d = 1 mod 4, where Z[sqrt(d)] is not the whole ring of integers).
FIELDS = (RATIONALS, ROOT3, Field.quadratic(-1), Field.quadratic(5),
          Field.quadratic(33), Field.quadratic(-3))

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def matrices(field: Field, max_rows: int = 4, max_cols: int = 4):
    def build(rows, ncols):
        return [[field.scalar(c) for c in row[:ncols]] for row in rows]

    return st.integers(min_value=1, max_value=max_cols).flatmap(
        lambda ncols: st.builds(
            build,
            st.lists(st.lists(small_fractions, min_size=ncols, max_size=ncols),
                     min_size=1, max_size=max_rows),
            st.just(ncols),
        )
    )


def transpose(rows):
    return [list(col) for col in zip(*rows)]


# -- rank and reduced form -------------------------------------------------------


def test_rank_of_known_matrices():
    one = RATIONALS.one()
    zero = RATIONALS.zero()
    assert rank([[one, zero], [zero, one]]) == 2
    assert rank([[one, one], [one, one]]) == 1
    assert rank([[zero, zero]]) == 0


@given(m=matrices(RATIONALS))
def test_rank_is_transpose_invariant(m):
    assert rank(m) == rank(transpose(m))


@given(m=matrices(ROOT3))
def test_rank_is_bounded_by_the_shape(m):
    assert 0 <= rank(m) <= min(len(m), len(m[0]))


@given(m=matrices(RATIONALS))
def test_reduced_form_has_unit_pivots_and_cleared_columns(m):
    reduced, pivots = rref(m)
    assert rank(m) == len(pivots)
    for row_index, col in enumerate(pivots):
        for other in range(len(reduced)):
            expected = RATIONALS.one() if other == row_index else RATIONALS.zero()
            assert reduced[other][col] == expected


# -- fraction-free elimination against the Gauss-Jordan reference ---------------

BIG = 2**200
entry_parts = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.builds(Fraction, st.integers(BIG, 2 * BIG) | st.integers(-2 * BIG, -BIG),
              st.integers(1, 2**70)),
)


@st.composite
def shaped_matrices(draw):
    """A matrix over one of FIELDS: any shape up to 6 x 6 including empty,
    with dependent and duplicate rows appended and a zero column inserted."""
    field = draw(st.sampled_from(FIELDS))

    def scalar():
        b = Fraction(0) if field.is_rational else draw(entry_parts)
        return field.scalar(draw(entry_parts), b)

    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = [[scalar() for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        first, second = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        c = scalar()  # zero gives a duplicate row, first == second a multiple
        rows.append([x + c * y for x, y in zip(rows[first], rows[second])])
    if rows and draw(st.booleans()):
        at = draw(st.integers(0, len(rows[0])))
        rows = [row[:at] + [field.zero()] + row[at:] for row in rows]
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(m=shaped_matrices())
def test_fraction_free_rref_matches_the_gauss_jordan_reference(m):
    assert rref(m) == reference_rref.rref(m)


def _named_matrices(field):
    s = field.scalar
    u = s(3, 0 if field.is_rational else Fraction(-2, 7))
    huge = s(Fraction(BIG + 1, 3), 0 if field.is_rational else -BIG - 5)
    return {
        "empty": [],
        "no columns": [[], []],
        "all zero": [[field.zero()] * 3 for _ in range(3)],
        "1x1": [[u]],
        "wide": [[s(j - i) * u + s(i * j) for j in range(6)] for i in range(2)],
        "tall": [[s(i + 1) * u ** j + s(j) for j in range(2)] for i in range(6)],
        "rank deficient": [[s(1), u, s(2)], [s(2), u + u, s(4)], [s(0), s(1), u]],
        "duplicate rows": [[u, s(1), s(0)], [s(5), s(0), u], [u, s(1), s(0)]],
        "zero column": [[s(0), u, s(1)], [s(0), s(2), u], [s(0), s(1), s(1)]],
        "numerators above 2^200": [[huge, s(1), u], [u, huge, s(7)], [huge * u, s(2), huge]],
    }


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_named_shapes_match_the_gauss_jordan_reference(field):
    for name, m in _named_matrices(field).items():
        assert rref(m) == reference_rref.rref(m), name


@st.composite
def square_matrices(draw):
    """A square matrix over one of FIELDS, of size 1 to 6.  Some have a zero
    leading entry above a nonzero one, so the elimination swaps rows; some
    repeat a row, so they are singular."""
    field = draw(st.sampled_from(FIELDS))

    def scalar():
        b = Fraction(0) if field.is_rational else draw(entry_parts)
        return field.scalar(draw(entry_parts), b)

    size = draw(st.integers(1, 6))
    rows = [[scalar() for _ in range(size)] for _ in range(size)]
    if size > 1 and draw(st.booleans()):
        rows[0][0], rows[1][0] = field.zero(), field.scalar(draw(st.integers(1, 9)))
    if size > 1 and draw(st.booleans()):
        first, second = draw(st.permutations(range(size)))[:2]
        rows[second] = list(rows[first])
    return rows


@settings(max_examples=200, deadline=None)
@given(m=square_matrices())
def test_determinant_matches_the_elimination_reference(m):
    assert determinant(m) == reference_rref.determinant(m)


def test_entries_from_two_fields_are_refused():
    with pytest.raises(FieldMismatchError):
        rref([[RATIONALS.one(), RATIONALS.one()], [RATIONALS.one(), ROOT3.one()]])


# -- determinant ------------------------------------------------------------------


def test_determinant_of_a_triangular_matrix_is_the_diagonal_product():
    c = RATIONALS.scalar
    m = [[c(2), c(5), c(7)], [c(0), c(3), c(11)], [c(0), c(0), c(-4)]]
    assert determinant(m) == c(-24)


@given(
    a=st.lists(st.lists(small_fractions, min_size=3, max_size=3), min_size=3, max_size=3),
    b=st.lists(st.lists(small_fractions, min_size=3, max_size=3), min_size=3, max_size=3),
)
def test_determinant_is_multiplicative(a, b):
    def lift(rows):
        return [[RATIONALS.scalar(x) for x in row] for row in rows]

    ma, mb = lift(a), lift(b)
    product = [[sum((ma[i][k] * mb[k][j] for k in range(3)), RATIONALS.zero())
                for j in range(3)] for i in range(3)]
    assert determinant(product) == determinant(ma) * determinant(mb)


@given(m=st.lists(st.lists(small_fractions, min_size=3, max_size=3),
                  min_size=3, max_size=3))
def test_determinant_flips_sign_under_a_row_swap(m):
    rows = [[RATIONALS.scalar(x) for x in row] for row in m]
    swapped = [rows[1], rows[0], rows[2]]
    assert determinant(swapped) == -determinant(rows)


# -- kernel -------------------------------------------------------------------


@settings(max_examples=60)
@given(m=matrices(RATIONALS))
def test_nullspace_vectors_annihilate_and_count_the_corank(m):
    ncols = len(m[0])
    basis = nullspace(m, ncols, RATIONALS)
    assert len(basis) == ncols - rank(m)
    for vector in basis:
        for row in m:
            assert sum((a * b for a, b in zip(row, vector)), RATIONALS.zero()).is_zero()
    if basis:
        assert rank(basis) == len(basis)


# -- canonical spanning sets ---------------------------------------------------------


@settings(max_examples=60)
@given(m=matrices(RATIONALS), scales=st.lists(small_fractions, min_size=4, max_size=4))
def test_canonical_rows_depend_only_on_the_span(m, scales):
    ncols = len(m[0])
    vectors = [row[:] for row in m]
    rescaled = []
    for i, row in enumerate(vectors):
        factor = RATIONALS.scalar(scales[i % len(scales)])
        if factor.is_zero():
            factor = RATIONALS.scalar(2)
        rescaled.append([factor * x for x in row])
    rescaled.reverse()
    rescaled.append([RATIONALS.zero()] * ncols)
    first = canonical_rows(vectors, ncols, RATIONALS)
    second = canonical_rows(rescaled, ncols, RATIONALS)
    assert first == second
    assert canonical_rows(first, ncols, RATIONALS) == first
