"""Wire formats: canonical JSON, scalar/polynomial encoding, input validation."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from wfdim import Field, ParseError, Poly
from wfdim.corpus import random_poly, random_scalar
from wfdim.jsonio import (canonical_json, factored_from_spec, field_from_wire,
                          field_to_wire, input_spec_to_wire, parse_input_spec,
                          poly_from_spec, poly_to_wire, scalar_from_wire,
                          scalar_to_wire)

RATIONALS = Field.rationals()
ROOT3 = Field.quadratic(3)


# -- canonical rendering ---------------------------------------------------------


def test_canonical_form_is_sorted_minimal_and_newline_terminated():
    rendered = canonical_json({"b": 1, "a": [1, 2]})
    assert rendered == '{"a":[1,2],"b":1}\n'


def test_canonical_form_is_a_fixed_point_of_reparsing():
    payload = {"z": [3, {"y": "text"}], "a": {"nested": [1, 2, 3]}}
    rendered = canonical_json(payload)
    assert canonical_json(json.loads(rendered)) == rendered


# -- field and scalar wires --------------------------------------------------------


def test_field_wires_round_trip():
    for field in (RATIONALS, ROOT3, Field.quadratic(-33)):
        assert field_from_wire(field_to_wire(field)) == field


@pytest.mark.parametrize("wire", [
    {"kind": "rational", "d": 3},
    {"kind": "quadratic"},
    {"kind": "quadratic", "d": 4},
    {"kind": "quadratic", "d": True},
    {"kind": "real"},
    {"d": 3},
])
def test_malformed_field_wires_are_rejected(wire):
    with pytest.raises(ParseError):
        field_from_wire(wire)


def test_scalar_wires_round_trip_in_both_fields():
    rng = random.Random("jsonio-scalars")
    for field in (RATIONALS, ROOT3):
        for _ in range(20):
            x = random_scalar(rng, field)
            assert scalar_from_wire(field, scalar_to_wire(x)) == x


def test_pure_rational_scalars_use_the_short_wire():
    x = ROOT3.scalar(Fraction(3, 7))
    assert scalar_to_wire(x) == ["rat", "3", "7"]
    y = ROOT3.scalar(Fraction(1, 2), Fraction(-5, 3))
    assert scalar_to_wire(y) == ["quad", "1", "2", "-5", "3"]


def test_quadratic_wires_in_a_rational_field_are_rejected():
    with pytest.raises(ParseError):
        scalar_from_wire(RATIONALS, ["quad", "1", "2", "1", "2"])


@pytest.mark.parametrize("wire", [
    ["rat", "1"],
    ["rat", "1.5", "1"],
    ["rat", "1", "0"],
    ["quad", "1", "1", "1"],
    ["int", "1", "1"],
    "1/2",
])
def test_malformed_scalar_wires_are_rejected(wire):
    with pytest.raises(ParseError):
        scalar_from_wire(ROOT3, wire)


def test_polynomial_wires_list_coefficients_ascending():
    rng = random.Random("jsonio-poly")
    p = random_poly(rng, ROOT3, max_degree=5)
    wire = poly_to_wire(p)
    assert len(wire) == p.degree + 1
    rebuilt = Poly(ROOT3, tuple(scalar_from_wire(ROOT3, c) for c in wire))
    assert rebuilt == p


# -- input specifications -------------------------------------------------------------


def quintic_spec_text() -> str:
    return canonical_json({
        "field": {"kind": "rational"},
        "roots": [[["rat", "0", "1"], 5]],
    })


def test_root_form_specs_parse_and_echo():
    spec = parse_input_spec(quintic_spec_text())
    fi = factored_from_spec(spec)
    assert fi.degree == 5
    echoed = input_spec_to_wire(spec)
    assert echoed["roots"] == [[["rat", "0", "1"], 5]]
    assert "coefficients" not in echoed


def test_coefficient_form_specs_parse():
    spec = parse_input_spec(canonical_json({
        "field": {"kind": "rational"},
        "coefficients": [["rat", "0", "1"]] * 5 + [["rat", "1", "1"]],
    }))
    assert poly_from_spec(spec) == Poly(RATIONALS, (0, 0, 0, 0, 0, 1))


@pytest.mark.parametrize("payload", [
    "{not json",
    '"just a string"',
    {"roots": [[["rat", "0", "1"], 5]]},
    {"field": {"kind": "rational"}},
    {"field": {"kind": "rational"}, "roots": [], "coefficients": []},
    {"field": {"kind": "rational"}, "roots": [[["rat", "0", "1"], 5]],
     "coefficients": [["rat", "1", "1"]]},
    {"field": {"kind": "rational"}, "roots": []},
    {"field": {"kind": "rational"}, "roots": [[["rat", "0", "1"], 0]]},
    {"field": {"kind": "rational"}, "roots": [[["rat", "0", "1"], 3],
                                              [["rat", "0", "1"], 2]]},
    {"field": {"kind": "rational"}, "roots": [[["rat", "0", "1"], 5]],
     "unexpected": 1},
    {"field": {"kind": "rational"}, "roots": [[["rat", "0", "1"], 5]],
     "precision_bits": 32},
    {"field": {"kind": "rational"}, "coefficients": [["rat", "0", "1"]]},
    {"field": {"kind": "rational"}, "coefficients": [["rat", "1", "1"]],
     "leading": ["rat", "2", "1"]},
    {"field": {"kind": "rational"}, "roots": [[["rat", "0", "1"], 5]],
     "leading": ["rat", "0", "1"]},
])
def test_malformed_specs_are_rejected(payload):
    text = payload if isinstance(payload, str) else canonical_json(payload)
    with pytest.raises(ParseError):
        parse_input_spec(text)
