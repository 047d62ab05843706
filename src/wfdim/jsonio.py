"""JSON wire formats: scalars, input specifications, canonical rendering.

Scalars travel as ``["rat", num, den]`` or ``["quad", a_num, a_den, b_num,
b_den]`` with every number a decimal string, under a field descriptor
``{"kind": "rational"}`` or ``{"kind": "quadratic", "d": <int>}``.  Canonical
rendering (sorted keys, fixed separators, trailing newline) makes
parse-then-rerender byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .fields import ExactScalar, Field
from .poly import FactoredInput, Poly

__all__ = [
    "InputSpec",
    "canonical_json",
    "field_to_wire",
    "field_from_wire",
    "scalar_to_wire",
    "scalar_from_wire",
    "poly_to_wire",
    "parse_input_spec",
    "input_spec_to_wire",
    "factored_from_spec",
    "poly_from_spec",
]


def canonical_json(obj) -> str:
    """Deterministic rendering: sorted keys, no whitespace, one trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


# -- fields ---------------------------------------------------------------------


def field_to_wire(field: Field) -> dict:
    if field.is_rational:
        return {"kind": "rational"}
    return {"kind": "quadratic", "d": field.d}


def field_from_wire(obj) -> Field:
    if not isinstance(obj, dict):
        raise ParseError(f"field descriptor must be an object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "rational":
        if set(obj) != {"kind"}:
            raise ParseError(f"unexpected keys in rational field descriptor: {sorted(obj)}")
        return Field.rationals()
    if kind == "quadratic":
        if set(obj) != {"kind", "d"}:
            raise ParseError(f"quadratic field descriptor needs exactly 'kind' and 'd', got {sorted(obj)}")
        d = obj["d"]
        if not isinstance(d, int) or isinstance(d, bool) or d == 0:
            raise ParseError(f"quadratic field 'd' must be a nonzero integer, got {d!r}")
        try:
            return Field.quadratic(d)
        except ValueError as exc:
            raise ParseError(f"invalid quadratic field: {exc}") from None
    raise ParseError(f"unknown field kind {kind!r}")


# -- scalars ----------------------------------------------------------------------


def _decimal_string(text) -> int:
    if not isinstance(text, str):
        raise ParseError(f"wire numbers must be decimal strings, got {text!r}")
    stripped = text[1:] if text[:1] in "+-" else text
    if not stripped.isdigit():
        raise ParseError(f"not a decimal string: {text!r}")
    return int(text)


def _wire_fraction(num, den) -> Fraction:
    denominator = _decimal_string(den)
    if denominator == 0:
        raise ParseError("zero denominator")
    return Fraction(_decimal_string(num), denominator)


def scalar_to_wire(x: ExactScalar) -> list:
    if x.b == 0:
        return ["rat", str(x.a.numerator), str(x.a.denominator)]
    return [
        "quad",
        str(x.a.numerator),
        str(x.a.denominator),
        str(x.b.numerator),
        str(x.b.denominator),
    ]


def scalar_from_wire(field: Field, obj) -> ExactScalar:
    if not isinstance(obj, list):
        raise ParseError(f"scalar must be a JSON array, got {obj!r}")
    if obj[:1] == ["rat"]:
        if len(obj) != 3:
            raise ParseError(f"rational scalar needs [tag, num, den], got {obj!r}")
        return field.scalar(_wire_fraction(obj[1], obj[2]))
    if obj[:1] == ["quad"]:
        if len(obj) != 5:
            raise ParseError(f"quadratic scalar needs [tag, a_num, a_den, b_num, b_den], got {obj!r}")
        if field.is_rational:
            raise ParseError("quadratic scalar under a rational field descriptor")
        return field.scalar(_wire_fraction(obj[1], obj[2]), _wire_fraction(obj[3], obj[4]))
    raise ParseError(f"unknown scalar tag in {obj!r}")


def poly_to_wire(p: Poly) -> list:
    """Coefficients, constant term first."""
    return [scalar_to_wire(c) for c in p.coeffs]


# -- input specifications ----------------------------------------------------------


@dataclass(frozen=True)
class InputSpec:
    """Parsed problem input: a field plus either factored roots or raw
    coefficients (constant term first)."""

    field: Field
    roots: tuple[tuple[ExactScalar, int], ...] | None
    leading: ExactScalar | None
    coefficients: tuple[ExactScalar, ...] | None


_SPEC_KEYS = {"field", "roots", "leading", "coefficients"}


def parse_input_spec(text: str | bytes) -> InputSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ParseError(f"input spec must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise ParseError(f"unknown input keys: {sorted(unknown)}")
    if "field" not in data:
        raise ParseError("input spec needs a 'field' descriptor")
    field = field_from_wire(data["field"])

    has_roots = "roots" in data
    has_coeffs = "coefficients" in data
    if has_roots == has_coeffs:
        raise ParseError("input spec needs exactly one of 'roots' or 'coefficients'")

    if has_roots:
        raw = data["roots"]
        if not isinstance(raw, list) or not raw:
            raise ParseError("'roots' must be a nonempty array of [scalar, multiplicity] pairs")
        roots: list[tuple[ExactScalar, int]] = []
        for entry in raw:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ParseError(f"each root must be a [scalar, multiplicity] pair, got {entry!r}")
            value, mult = entry
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise ParseError(f"multiplicity must be a positive integer, got {mult!r}")
            roots.append((scalar_from_wire(field, value), mult))
        seen = set()
        for value, _ in roots:
            if value in seen:
                raise ParseError(f"repeated root {value}")
            seen.add(value)
        leading = field.one()
        if "leading" in data:
            leading = scalar_from_wire(field, data["leading"])
            if leading.is_zero():
                raise ParseError("leading coefficient must be nonzero")
        return InputSpec(
            field=field,
            roots=tuple(roots),
            leading=leading,
            coefficients=None,
        )

    if "leading" in data:
        raise ParseError("'leading' only applies to the roots form")
    raw = data["coefficients"]
    if not isinstance(raw, list) or not raw:
        raise ParseError("'coefficients' must be a nonempty array of scalars (constant term first)")
    coefficients = tuple(scalar_from_wire(field, entry) for entry in raw)
    if all(c.is_zero() for c in coefficients):
        raise ParseError("the zero polynomial is not a valid input")
    return InputSpec(
        field=field,
        roots=None,
        leading=None,
        coefficients=coefficients,
    )


def input_spec_to_wire(spec: InputSpec) -> dict:
    """Canonical echo of a parsed input spec."""
    wire: dict = {"field": field_to_wire(spec.field)}
    if spec.roots is not None:
        wire["roots"] = [[scalar_to_wire(value), mult] for value, mult in spec.roots]
        wire["leading"] = scalar_to_wire(spec.leading)
    else:
        wire["coefficients"] = [scalar_to_wire(c) for c in spec.coefficients]
    return wire


def factored_from_spec(spec: InputSpec) -> FactoredInput:
    if spec.roots is None:
        raise ParseError("spec carries coefficients, not roots")
    return FactoredInput(spec.field, spec.roots, spec.leading)


def poly_from_spec(spec: InputSpec) -> Poly:
    if spec.coefficients is None:
        raise ParseError("spec carries roots, not coefficients")
    return Poly(spec.field, spec.coefficients)
