"""Exact scalar arithmetic over the rationals and quadratic extensions."""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given

from wfdim import ApproxScalar, Field, FieldMismatchError, embed_to_approx

RATIONALS = Field.rationals()
ROOT3 = Field.quadratic(3)
GAUSS = Field.quadratic(-1)

fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def scalars(field: Field):
    if field.is_rational:
        return st.builds(field.scalar, fractions)
    return st.builds(field.scalar, fractions, fractions)


either_field_scalars = st.one_of(scalars(RATIONALS), scalars(ROOT3), scalars(GAUSS))


# -- field descriptors --------------------------------------------------------


def test_rational_field_has_no_discriminant():
    assert RATIONALS.is_rational and RATIONALS.d is None


@pytest.mark.parametrize("d", [0, 1, 4, 12, 18, -4])
def test_degenerate_or_square_bearing_discriminants_rejected(d):
    with pytest.raises(ValueError):
        Field.quadratic(d)


def test_discriminant_must_be_an_integer():
    with pytest.raises(TypeError):
        Field.quadratic(Fraction(1, 2))
    with pytest.raises(TypeError):
        Field.quadratic(3.0)  # equal to an interned d, still not an int


def test_fields_are_interned_per_discriminant():
    assert Field.quadratic(3) is Field.quadratic(3) is ROOT3
    assert Field.rationals() is Field() is RATIONALS


def test_fields_and_scalars_stay_immutable():
    with pytest.raises(AttributeError):
        ROOT3.d = 5
    built = ROOT3.scalar(1, 2)
    for x in (built, built + built, built * built, built.inverse(), -built,
              RATIONALS.scalar(3) - 1):
        for name in ("field", "a", "b"):
            with pytest.raises(AttributeError):
                setattr(x, name, Fraction(0))


def test_fields_compare_by_discriminant():
    assert Field.quadratic(3) == ROOT3
    assert ROOT3 != GAUSS and ROOT3 != RATIONALS
    assert hash(Field.quadratic(-1)) == hash(GAUSS)


def test_rational_scalars_carry_no_sqrt_part():
    with pytest.raises(ValueError):
        RATIONALS.scalar(1, 2)
    with pytest.raises(ValueError):
        RATIONALS.sqrt_generator()


def test_sqrt_generator_squares_to_discriminant():
    for d in (3, -1, 33, -33, 5, 2):
        field = Field.quadratic(d)
        assert field.sqrt_generator() ** 2 == field.scalar(d)


# -- ring and field laws ------------------------------------------------------


@given(x=scalars(ROOT3), y=scalars(ROOT3), z=scalars(ROOT3))
def test_ring_laws_hold(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x
    assert x + ROOT3.zero() == x and x * ROOT3.one() == x
    assert x - x == ROOT3.zero()


@given(x=either_field_scalars)
def test_nonzero_scalars_invert(x):
    assume(not x.is_zero())
    assert x * x.inverse() == x.field.one()
    assert (x.field.one() / x) == x.inverse()


@given(x=scalars(GAUSS))
def test_norm_is_conjugate_product(x):
    product = x * x.conjugate()
    assert product == x.field.scalar(x.norm())


@given(x=scalars(ROOT3), y=scalars(ROOT3))
def test_division_undoes_multiplication(x, y):
    assume(not y.is_zero())
    assert (x * y) / y == x


@given(x=either_field_scalars, e=st.integers(min_value=0, max_value=8))
def test_powers_match_repeated_multiplication(x, e):
    expected = x.field.one()
    for _ in range(e):
        expected = expected * x
    assert x**e == expected


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ROOT3.one() / ROOT3.zero()
    with pytest.raises(ZeroDivisionError):
        ROOT3.zero().inverse()


def test_mixed_field_arithmetic_is_rejected():
    with pytest.raises(FieldMismatchError):
        ROOT3.one() + GAUSS.one()
    with pytest.raises(FieldMismatchError):
        ROOT3.one() * GAUSS.sqrt_generator()


OPERATIONS = ("__add__", "__radd__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


@pytest.mark.parametrize("name", OPERATIONS)
@pytest.mark.parametrize("left, right", [
    (ROOT3.scalar(1, 2), GAUSS.scalar(1, 2)),
    (RATIONALS.scalar(2), ROOT3.scalar(2)),   # equal values, b = 0 on both
], ids=["sqrt3-vs-gauss", "rationals-vs-sqrt3"])
def test_every_operation_rejects_mixed_fields(name, left, right):
    with pytest.raises(FieldMismatchError):
        getattr(left, name)(right)
    with pytest.raises(FieldMismatchError):
        getattr(right, name)(left)


@given(x=scalars(RATIONALS), y=scalars(RATIONALS))
def test_rational_results_keep_a_zero_sqrt_part(x, y):
    results = [x + y, x - y, x * y, -x, y - 1, 1 - y]
    if not y.is_zero():
        results += [x / y, y.inverse()]
    for z in results:
        assert z.field is RATIONALS and z.b == 0


@given(x=scalars(ROOT3), q=fractions)
def test_plain_rationals_coerce_into_any_field(x, q):
    assert x + q == x + ROOT3.scalar(q)
    assert x * q == x * ROOT3.scalar(q)
    assert q - x == ROOT3.scalar(q) - x


# -- embedding into the approximate backend ------------------------------------


@given(x=scalars(ROOT3), y=scalars(ROOT3))
def test_embedding_is_an_approximate_homomorphism(x, y):
    gap_bound = Fraction(1, 10**30)
    for exact, parts in (((x + y), embed_to_approx(x) + embed_to_approx(y)),
                         ((x * y), embed_to_approx(x) * embed_to_approx(y))):
        direct = embed_to_approx(exact)
        gap = abs(direct.to_mpc() - parts.to_mpc())
        allowed = (1 + abs(direct.to_mpc())) * float(gap_bound)
        assert gap <= allowed


def test_negative_discriminants_embed_off_the_real_line():
    z = embed_to_approx(GAUSS.sqrt_generator())
    assert abs(z.to_mpc().imag - 1) < 1e-30


def test_approx_scalars_keep_the_widest_precision():
    a = ApproxScalar(1, 0, precision_bits=96)
    b = ApproxScalar(2, 0, precision_bits=192)
    assert (a * b).precision_bits == 192
