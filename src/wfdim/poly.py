"""Dense univariate polynomials over an exact scalar field.

Coefficients are stored ascending by degree with trailing zeros stripped, so
the zero polynomial has an empty coefficient tuple.  Its degree is the
sentinel ``NEG_INF`` (never -1), which keeps every ``deg p <= bound`` test
honest.  A ``FactoredInput`` is the root-multiplicity form
lc * prod (x - root)^mult used by everything downstream that needs to know
multiplicities exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import FieldMismatchError, NotDivisibleError
from .fields import ExactScalar, Field

NEG_INF = float("-inf")

ScalarLike = Union[ExactScalar, int, Fraction]


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[ScalarLike] = ()):
        normalized = []
        for c in coeffs:
            normalized.append(self._lift(field, c))
        while normalized and normalized[-1].is_zero():
            normalized.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(normalized))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def _lift(field: Field, c: ScalarLike) -> ExactScalar:
        if isinstance(c, ExactScalar):
            if c.field is not field and c.field != field:
                raise FieldMismatchError(f"{field!r} vs {c.field!r}")
            return c
        if isinstance(c, (int, Fraction)):
            return field.scalar(Fraction(c))
        raise TypeError(f"cannot use {type(c).__name__} as a coefficient")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, value: ExactScalar) -> "Poly":
        return cls(value.field, (value,))

    @classmethod
    def from_roots(cls, field: Field, roots: Sequence[ScalarLike],
                   leading: ScalarLike = 1) -> "Poly":
        result = cls(field, (leading,))
        for root in roots:
            r = cls._lift(field, root)
            result = result * cls(field, (-r, field.one()))
        return result

    # -- inspection -----------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int; NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> ExactScalar:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, j: int) -> ExactScalar:
        if j < 0:
            raise IndexError("negative coefficient index")
        return self.coeffs[j] if j < len(self.coeffs) else self.field.zero()

    def padded(self, length: int) -> list[ExactScalar]:
        """Coefficients ascending, zero-padded to exactly ``length`` entries."""
        if len(self.coeffs) > length:
            raise ValueError(f"degree {self.degree} does not fit in {length} coefficients")
        zero = self.field.zero()
        return list(self.coeffs) + [zero] * (length - len(self.coeffs))

    # -- evaluation / calculus --------------------------------------------------

    def __call__(self, point: ScalarLike) -> ExactScalar:
        x = self._lift(self.field, point)
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly(self.field, (c * j for j, c in enumerate(self.coeffs) if j >= 1))

    # -- ring operations --------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatchError(f"{self.field!r} vs {other.field!r}")
            return other
        if isinstance(other, (ExactScalar, int, Fraction)):
            return Poly(self.field, (self._lift(self.field, other),))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(self.field, (self.coeff(j) + o.coeff(j) for j in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.field, (-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return Poly.zero(self.field)
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j, cj in enumerate(o.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return Poly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = Poly.one(self.field)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        remainder = list(self.coeffs)
        dq = len(remainder) - len(o.coeffs)
        if dq < 0:
            return Poly.zero(self.field), self
        lead_inv = o.leading.inverse()
        quotient = [self.field.zero()] * (dq + 1)
        for shift in range(dq, -1, -1):
            top = remainder[shift + len(o.coeffs) - 1]
            if top.is_zero():
                continue
            q = top * lead_inv
            quotient[shift] = q
            for j, cj in enumerate(o.coeffs):
                remainder[shift + j] = remainder[shift + j] - q * cj
        return Poly(self.field, quotient), Poly(self.field, remainder)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        """True when self | other (self nonzero)."""
        return (other % self).is_zero()

    def exact_div(self, other) -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise NotDivisibleError(f"nonzero remainder of degree {r.degree}")
        return q

    # -- normal forms -------------------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = self.leading.inverse()
        return Poly(self.field, (c * inv for c in self.coeffs))

    def normalized(self) -> "Poly":
        """Scale so the lowest-degree nonzero coefficient is 1 (zero poly unchanged)."""
        for c in self.coeffs:
            if not c.is_zero():
                inv = c.inverse()
                return Poly(self.field, (ci * inv for ci in self.coeffs))
        return self

    # -- substitution --------------------------------------------------------------

    def compose(self, inner: "Poly") -> "Poly":
        o = self._coerce(inner)
        acc = Poly.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * o + Poly.constant(c)
        return acc

    def affine_substitute(self, scale: ScalarLike, offset: ScalarLike) -> "Poly":
        """p(scale*x + offset)."""
        inner = Poly(self.field, (offset, scale))
        return self.compose(inner)

    # -- comparison / rendering ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (ExactScalar, int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for j in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[j]
            if c.is_zero():
                continue
            if j == 0:
                var = ""
            elif j == 1:
                var = "x"
            else:
                var = f"x^{j}"
            cs = str(c)
            if c.is_composite_display():
                term = f"({cs})*{var}" if var else f"({cs})"
                sign, body = "+", term
            else:
                neg = cs.startswith("-")
                mag = cs[1:] if neg else cs
                if var and mag == "1":
                    body = var
                elif var:
                    body = f"{mag}*{var}"
                else:
                    body = mag
                sign = "-" if neg else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = first_body if first_sign == "+" else f"-{first_body}"
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Poly({self})"


def wronskian(u: Poly, v: Poly) -> Poly:
    """u*v' - u'*v."""
    return u * v.derivative() - u.derivative() * v


@dataclass(frozen=True)
class FactoredInput:
    """lc * prod (x - root)^mult with pairwise distinct roots."""

    field: Field
    roots: tuple[tuple[ExactScalar, int], ...]
    leading: ExactScalar

    def __init__(self, field: Field,
                 roots: Iterable[tuple[ScalarLike, int]],
                 leading: ScalarLike = 1):
        lifted = []
        for root, mult in roots:
            if not isinstance(mult, int) or mult < 1:
                raise ValueError(f"multiplicity must be a positive integer, got {mult}")
            lifted.append((Poly._lift(field, root), mult))
        seen = set()
        for root, _ in lifted:
            if root in seen:
                raise ValueError(f"repeated root {root}")
            seen.add(root)
        lc = Poly._lift(field, leading)
        if lc.is_zero():
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "roots", tuple(lifted))
        object.__setattr__(self, "leading", lc)

    @property
    def degree(self) -> int:
        return sum(mult for _, mult in self.roots)

    def expand(self) -> Poly:
        result = Poly.constant(self.leading)
        for root, mult in self.roots:
            result = result * Poly(self.field, (-root, self.field.one())) ** mult
        return result

    def affine_image(self, scale: ScalarLike, offset: ScalarLike) -> "FactoredInput":
        """The factored form of f(scale*x + offset)."""
        a = Poly._lift(self.field, scale)
        b = Poly._lift(self.field, offset)
        if a.is_zero():
            raise ValueError("scale must be nonzero")
        inv = a.inverse()
        new_roots = [((root - b) * inv, mult) for root, mult in self.roots]
        return FactoredInput(self.field, new_roots, self.leading * a ** self.degree)

    def __str__(self) -> str:
        factors = []
        if not (self.leading == self.field.one()) or not self.roots:
            lc = str(self.leading)
            factors.append(f"({lc})" if self.leading.is_composite_display() else lc)
        for root, mult in sorted(self.roots, key=lambda rm: rm[0].sort_key()):
            if root.is_zero():
                base = "x"
            else:
                rs = str(root)
                base = f"(x + {rs[1:]})" if rs.startswith("-") else f"(x - {rs})"
            factors.append(base if mult == 1 else f"{base}^{mult}")
        return "*".join(factors)
