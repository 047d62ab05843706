"""Exact dense linear algebra: rank, determinant, kernel, canonical spans."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from wfdim import Field
from wfdim.linalg import canonical_rows, determinant, nullspace, rank, rref

RATIONALS = Field.rationals()
ROOT3 = Field.quadratic(3)

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
