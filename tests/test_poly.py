"""Dense exact polynomials and factored inputs."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from wfdim import Field, NotDivisibleError, Poly
from wfdim.poly import FactoredInput, wronskian

RATIONALS = Field.rationals()
ROOT3 = Field.quadratic(3)

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def polys(field: Field, max_degree: int = 5):
    return st.builds(
        lambda cs: Poly(field, tuple(field.scalar(c) for c in cs)),
        st.lists(small_fractions, min_size=0, max_size=max_degree + 1),
    )


# -- construction and basic queries --------------------------------------------


def test_trailing_zero_coefficients_are_trimmed():
    p = Poly(RATIONALS, (1, 2, 0, 0))
    assert p.degree == 1 and p == Poly(RATIONALS, (1, 2))


def test_zero_polynomial_conventions():
    z = Poly.zero(RATIONALS)
    assert z.is_zero() and z.degree == float("-inf")


def test_coefficient_access_beyond_the_degree_is_zero():
    p = Poly(RATIONALS, (1, 2))
    assert p.coeff(5) == RATIONALS.zero()
    assert p.padded(4)[3] == RATIONALS.zero()


def test_from_roots_expands_the_product():
    p = Poly.from_roots(RATIONALS, [RATIONALS.scalar(1), RATIONALS.scalar(-1)])
    assert p == Poly(RATIONALS, (-1, 0, 1))


def test_rendering_is_descending_with_signed_terms():
    assert str(Poly(RATIONALS, (1, 0, -1))) == "-x^2 + 1"
    assert str(Poly(RATIONALS, (0, 0, 1))) == "x^2"
    assert str(Poly.zero(RATIONALS)) == "0"


# -- arithmetic laws ------------------------------------------------------------


@given(u=polys(RATIONALS), v=polys(RATIONALS), w=polys(RATIONALS))
def test_ring_laws_hold(u, v, w):
    assert (u + v) + w == u + (v + w)
    assert u * (v + w) == u * v + u * w
    assert u * v == v * u
    assert (u * v) * w == u * (v * w)


@given(u=polys(ROOT3), v=polys(ROOT3))
def test_degree_of_a_product_adds(u, v):
    assume(not u.is_zero() and not v.is_zero())
    assert (u * v).degree == u.degree + v.degree


@given(u=polys(RATIONALS), v=polys(RATIONALS), t=small_fractions)
def test_evaluation_is_a_ring_homomorphism(u, v, t):
    point = RATIONALS.scalar(t)
    assert (u + v)(point) == u(point) + v(point)
    assert (u * v)(point) == u(point) * v(point)


@given(u=polys(ROOT3), v=polys(ROOT3))
def test_derivative_satisfies_the_product_rule(u, v):
    assert (u * v).derivative() == u.derivative() * v + u * v.derivative()


@given(u=polys(RATIONALS), v=polys(RATIONALS))
def test_division_reconstructs_the_dividend(u, v):
    assume(not v.is_zero())
    q, r = divmod(u, v)
    assert u == q * v + r
    assert r.degree < v.degree


@given(u=polys(RATIONALS), v=polys(RATIONALS))
def test_exact_division_inverts_multiplication(u, v):
    assume(not v.is_zero())
    assert (u * v).exact_div(v) == u


def test_exact_division_rejects_a_remainder():
    with pytest.raises(NotDivisibleError):
        Poly(RATIONALS, (1, 1)).exact_div(Poly(RATIONALS, (0, 1)))


@given(u=polys(ROOT3, max_degree=3), v=polys(ROOT3, max_degree=3))
def test_wronskian_is_antisymmetric(u, v):
    assert wronskian(u, v) == -wronskian(v, u)
    assert wronskian(u, u).is_zero()


@settings(max_examples=40)
@given(u=polys(RATIONALS, max_degree=3), scale=small_fractions, offset=small_fractions)
def test_affine_substitution_matches_composition(u, scale, offset):
    assume(scale != 0)
    inner = Poly(RATIONALS, (offset, scale))
    assert u.affine_substitute(scale, offset) == u.compose(inner)


# -- multiplicity behaviour ------------------------------------------------------


@given(mult=st.integers(min_value=1, max_value=5), root=small_fractions)
def test_derivatives_peel_one_multiplicity_at_a_time(mult, root):
    field = RATIONALS
    point = field.scalar(root)
    p = Poly.from_roots(field, [point] * mult)
    for order in range(mult):
        assert p(point).is_zero()
        p = p.derivative()
    assert not p(point).is_zero()


# -- factored inputs -------------------------------------------------------------


def quartic_with_quadruple_zero() -> FactoredInput:
    return FactoredInput(field=RATIONALS, roots=((RATIONALS.scalar(0), 4),),
                         leading=RATIONALS.one())


def test_factored_degree_sums_multiplicities():
    fi = FactoredInput(field=RATIONALS,
                       roots=((RATIONALS.scalar(0), 4), (RATIONALS.scalar(1), 1)),
                       leading=RATIONALS.one())
    assert fi.degree == 5
    assert str(fi) == "x^4*(x - 1)"


def test_factored_expansion_matches_the_root_product():
    fi = FactoredInput(field=RATIONALS,
                       roots=((RATIONALS.scalar(0), 4), (RATIONALS.scalar(1), 1)),
                       leading=RATIONALS.scalar(3))
    direct = Poly.constant(RATIONALS.scalar(3)) * Poly.from_roots(
        RATIONALS, [RATIONALS.scalar(0)] * 4 + [RATIONALS.scalar(1)])
    assert fi.expand() == direct


def test_coincident_roots_are_rejected():
    with pytest.raises(ValueError):
        FactoredInput(field=RATIONALS,
                      roots=((RATIONALS.scalar(1), 2), (RATIONALS.scalar(1), 1)),
                      leading=RATIONALS.one())


@given(scale=small_fractions, offset=small_fractions)
def test_affine_image_substitutes_the_coordinate_change(scale, offset):
    assume(scale != 0)
    fi = FactoredInput(field=RATIONALS,
                       roots=((RATIONALS.scalar(0), 4), (RATIONALS.scalar(1), 1)),
                       leading=RATIONALS.one())
    image = fi.affine_image(scale, offset)
    s, o = RATIONALS.scalar(scale), RATIONALS.scalar(offset)
    expected = {((root - o) / s).sort_key(): mult for root, mult in fi.roots}
    assert {root.sort_key(): mult for root, mult in image.roots} == expected
    assert image.degree == fi.degree
    assert image.expand() == fi.expand().affine_substitute(scale, offset)
