"""Exact scalar arithmetic over Q and quadratic extensions Q(sqrt(d)).

A scalar is a + b*sqrt(d) with rational a, b held as ``fractions.Fraction``.
The descriptor ``Field`` fixes d once for a whole computation: d = None means
the plain rationals (b is forced to zero there), otherwise d is a squarefree
integer other than 0 and 1 — possibly negative, so Gaussian rationals are
Field(-1).  Because such d is never a rational square, the norm a^2 - d*b^2
vanishes only at a = b = 0, which is what makes exact division total away
from zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import FieldMismatchError

RationalLike = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


class Field:
    """Descriptor for Q (d is None) or Q(sqrt(d)) (d squarefree, not 0 or 1).

    Fields are interned: ``Field(d)`` returns the same object for the same d,
    so scalar arithmetic can test "same field" by identity.
    """

    __slots__ = ("d", "_zero", "_one")

    _interned: dict = {}

    def __new__(cls, d: int | None = None):
        field = cls._interned.get(d) if d is None or type(d) is int else None
        if field is not None:
            return field
        if d is not None:
            if not isinstance(d, int):
                raise TypeError(f"d must be an int, got {type(d).__name__}")
            if d in (0, 1):
                raise ValueError("d must not be 0 or 1")
            if not _is_squarefree(d):
                raise ValueError(f"d must be squarefree, got {d}")
            d = int(d)
        field = object.__new__(cls)
        object.__setattr__(field, "d", d)
        object.__setattr__(field, "_zero", _scalar(field, _ZERO))
        object.__setattr__(field, "_one", _scalar(field, _ONE))
        return cls._interned.setdefault(d, field)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @classmethod
    def rationals(cls) -> "Field":
        return cls(None)

    @classmethod
    def quadratic(cls, d: int) -> "Field":
        return cls(d)

    @property
    def is_rational(self) -> bool:
        return self.d is None

    def scalar(self, a: RationalLike = 0, b: RationalLike = 0) -> "ExactScalar":
        return ExactScalar(self, Fraction(a), Fraction(b))

    def zero(self) -> "ExactScalar":
        return self._zero

    def one(self) -> "ExactScalar":
        return self._one

    def sqrt_generator(self) -> "ExactScalar":
        """The element sqrt(d); undefined over the plain rationals."""
        if self.is_rational:
            raise ValueError("the rational field has no quadratic generator")
        return self.scalar(0, 1)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Field) and self.d == other.d)

    def __hash__(self) -> int:
        return hash(("Field", self.d))

    def __repr__(self) -> str:
        return "Field(Q)" if self.is_rational else f"Field(Q(sqrt({self.d})))"


class ExactScalar:
    """a + b*sqrt(d), exact; immutable and hashable."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: Field, a: Fraction, b: Fraction = _ZERO):
        if field.is_rational and b != 0:
            raise ValueError("rational-field scalars carry no sqrt part")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    # -- coercion -----------------------------------------------------------

    def _coerce(self, other) -> "ExactScalar":
        if isinstance(other, ExactScalar):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatchError(f"{self.field!r} vs {other.field!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return _scalar(self.field, Fraction(other))
        return NotImplemented

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- ring operations ----------------------------------------------------
    # Results come from ``_scalar``, which skips validation.  Over Q the sqrt
    # part is always zero and is not computed.

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _scalar(self.field, self.a + o.a, _ZERO if self.field.d is None else self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(self.field, -self.a, _ZERO if self.field.d is None else -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _scalar(self.field, self.a - o.a, _ZERO if self.field.d is None else self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self.field.d
        if d is None:
            return _scalar(self.field, self.a * o.a)
        if not o.b:
            return _scalar(self.field, self.a * o.a, self.b * o.a)
        if not self.b:
            return _scalar(self.field, self.a * o.a, self.a * o.b)
        return _scalar(self.field, self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """Field norm a^2 - d*b^2 (just a^2 over Q); zero only at zero."""
        if self.field.is_rational:
            return self.a * self.a
        return self.a * self.a - self.field.d * self.b * self.b

    def conjugate(self) -> "ExactScalar":
        return _scalar(self.field, self.a, -self.b)

    def inverse(self) -> "ExactScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        n = self.norm()
        return _scalar(self.field, self.a / n, -self.b / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.field == other.field and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)  # agrees with int/Fraction hashing
        return hash((self.a, self.b, self.field.d))

    def sort_key(self):
        """Deterministic (not order-theoretic) key for stable output ordering."""
        return (self.a, self.b)

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.field.d})"
        if self.b == 1:
            bs = root
        elif self.b == -1:
            bs = f"-{root}"
        else:
            bs = f"{self.b}*{root}"
        if self.a == 0:
            return bs
        sign = "-" if self.b < 0 else "+"
        mag = bs.lstrip("-")
        return f"{self.a} {sign} {mag}"

    def __repr__(self) -> str:
        return f"ExactScalar({self})"

    def is_composite_display(self) -> bool:
        """True when rendering needs parentheses inside a polynomial term."""
        return self.b != 0 and self.a != 0


def _scalar(field: Field, a: Fraction, b: Fraction = _ZERO) -> ExactScalar:
    """An arithmetic result: operands were valid, so b is zero over Q and
    the checks in ``ExactScalar.__init__`` are skipped."""
    x = object.__new__(ExactScalar)
    object.__setattr__(x, "field", field)
    object.__setattr__(x, "a", a)
    object.__setattr__(x, "b", b)
    return x

