"""Closed-form classification with cross-checked routes and certified families."""

from __future__ import annotations

import importlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wfdim
from wfdim import CoincidentPointsError, Field, Poly, bridge, oracle, poly
from wfdim.bridge import group_roots, to_z_problem
from wfdim.classify import classify, d_pair_form, exceptional_cubics
from wfdim.corpus import random_distinct_scalars, random_factored_input, table_rows
from wfdim.poly import FactoredInput
from wfdim.zspace import (associated_matrix, drop_node, min_drop_dimension,
                          z_report)

from symmetric_identities import (appendix_h_check, cubic_discriminant,
                                  verify_det_identities)

RATIONALS = Field.rationals()
ROOT3 = Field.quadratic(3)


def factored(roots_with_mults) -> FactoredInput:
    roots = tuple((RATIONALS.scalar(root), mult) for root, mult in roots_with_mults)
    return FactoredInput(field=RATIONALS, roots=roots, leading=RATIONALS.one())


# -- the classifier ------------------------------------------------------------


def test_classifier_reproduces_the_reference_corpus():
    for row in table_rows():
        report = classify(row.witness)
        assert report.dimension == row.dim
        assert report.dim_oracle == report.dim_structural == report.dim_theorem
        grouping = report.grouping
        assert (grouping.n2, grouping.N3, grouping.r, grouping.n1) == (
            row.n2, row.N3, row.r, row.n1)


def test_case_tags_track_the_multiplicity_structure():
    assert classify(factored([(0, 5)])).case_tag == "N1Zero"
    assert classify(factored([(0, 4), (1, 1)])).case_tag == "SmallN1"
    assert classify(
        factored([(0, 4), (1, 1), (2, 1), (3, 1), (4, 1)])).case_tag == "Exceptional44"


def test_routes_agree_on_a_random_corpus():
    rng = random.Random("classify-routes")
    theorem_backed = 0
    for _ in range(40):
        fi = random_factored_input(rng, RATIONALS, max_degree=9)
        report = classify(fi)
        assert report.dim_oracle == report.dim_structural
        if report.dim_theorem is not None:
            assert report.dim_theorem == report.dim_oracle
            theorem_backed += 1
        else:
            assert report.case_tag == "BruteForce"
        assert len(report.basis) == report.dimension
    assert theorem_backed > 0


def test_quartic_simple_root_case_uses_the_minimum_drop_rule():
    rng = random.Random("classify-drop")
    seen = 0
    for _ in range(200):
        fi = random_factored_input(rng, RATIONALS, max_degree=10)
        g = group_roots(fi)
        if g.n1 != 4 or g.r != 4:
            continue
        seen += 1
        assert classify(fi).dimension == min_drop_dimension(to_z_problem(g))
    assert seen > 0


def test_one_classify_call_derives_each_input_quantity_once(monkeypatch):
    # Wrapped in every namespace they are looked up from, as the layer
    # tracer does.
    counts = {"expand": 0, "to_z_problem": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(poly.FactoredInput, "expand",
                        counting("expand", poly.FactoredInput.expand))
    wrapped = counting("to_z_problem", bridge.to_z_problem)
    monkeypatch.setattr(bridge, "to_z_problem", wrapped)
    monkeypatch.setattr(importlib.import_module("wfdim.classify"), "to_z_problem", wrapped)
    s3 = ROOT3.sqrt_generator()
    inputs = [
        factored([(0, 5)]),
        factored([(0, 4), (1, 1)]),
        factored([(0, 4), (1, 1), (2, 1), (3, 1), (4, 1)]),
        FactoredInput(ROOT3, [(s3, 2), (-s3, 1), (ROOT3.scalar(1), 1), (ROOT3.scalar(2), 3)]),
    ]
    for fi in inputs:
        counts.update(expand=0, to_z_problem=0)
        report = classify(fi)
        assert counts["expand"] == 1, fi
        assert counts["to_z_problem"] == (1 if report.grouping.n1 else 0), fi


def test_one_classify_call_checks_each_basis_member_once(monkeypatch):
    # wf_contains is wrapped in both namespaces it is looked up from, as the
    # layer tracer does: the kernel's check reads it from oracle, and bridge
    # keeps it importable.
    calls = []
    honest = oracle.wf_contains

    def counted(f, p):
        calls.append(p)
        return honest(f, p)

    monkeypatch.setattr(oracle, "wf_contains", counted)
    monkeypatch.setattr(bridge, "wf_contains", counted)
    s3 = ROOT3.sqrt_generator()
    inputs = [
        factored([(0, 5)]),
        factored([(0, 2), (1, 2), (2, 3)]),
        factored([(0, 4), (1, 1)]),
        factored([(0, 4), (1, 1), (2, 1), (3, 1), (4, 1)]),
        FactoredInput(ROOT3, [(s3, 2), (-s3, 1), (ROOT3.scalar(1), 1), (ROOT3.scalar(2), 3)]),
    ]
    for fi in inputs:
        calls.clear()
        report = classify(fi)
        assert report.basis, fi
        assert calls == list(report.basis), fi


_WRONG_MULTIPLE_PART = """
import sys
from functools import cached_property
from wfdim import Field, RouteDisagreementError, classify
from wfdim.bridge import RootGrouping
from wfdim.poly import FactoredInput, Poly

# Each multiple root moved by 1: a polynomial of the same degree that does not
# divide the kernel members.
RootGrouping.multiple_part = cached_property(lambda g: Poly.from_roots(
    g.fi.field, [c + 1 for c in g.double] + [c + 1 for c, _ in g.higher for _ in range(2)]))
RootGrouping.multiple_part.__set_name__(RootGrouping, "multiple_part")
Q = Field.rationals()
for roots in ([(0, 5)], [(0, 4), (1, 1)], [(0, 2), (3, 1), (1, 1), (2, 1), (5, 2)]):
    fi = FactoredInput(Q, [(Q.scalar(c), m) for c, m in roots])
    try:
        classify(fi)
    except RouteDisagreementError as err:
        print("caught", err)
    else:
        sys.exit(f"classify returned for {fi} although the structural basis is wrong")
print("debug", __debug__)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "python -O"])
def test_a_wrong_structural_member_is_a_route_disagreement(flags):
    run = subprocess.run([sys.executable, *flags, "-c", _WRONG_MULTIPLE_PART],
                         capture_output=True, text=True, env=_package_env())
    assert run.returncode == 0, run.stderr + run.stdout
    lines = run.stdout.splitlines()
    assert [line.split(" for ")[0] for line in lines[:3]] == [
        "caught canonical bases differ between kernel and reduction routes"] * 3
    assert lines[3] == f"debug {not flags}"


_CORRUPTED_D = """
import sys
from wfdim import Field, classify
from wfdim.poly import FactoredInput, Poly

if __debug__:
    sys.exit("expected to run under python -O")
honest = Poly.__call__
Poly.__call__ = lambda self, point: honest(self, point) + 2  # breaks d's quotient form
Q = Field.rationals()
try:
    classify(FactoredInput(Q, [(Q.scalar(0), 4), (Q.scalar(1), 1), (Q.scalar(2), 1)]))
except AssertionError as err:
    print(err)
    sys.exit(0)
sys.exit("classify returned although the two forms of d disagree")
"""


def _package_env() -> dict:
    """The environment for a subprocess that imports this wfdim."""
    src = str(Path(wfdim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_disagreeing_forms_of_d_are_caught_under_python_O():
    run = subprocess.run([sys.executable, "-O", "-c", _CORRUPTED_D],
                         capture_output=True, text=True, env=_package_env())
    assert run.returncode == 0, run.stderr
    assert "the two forms of d disagree" in run.stdout


_SEEDED_CORPUS = """
import random
from wfdim import Field, classify
from wfdim.corpus import random_factored_input

print("debug", __debug__)
rng = random.Random("classify-python-O")
fields = (Field.rationals(), Field.quadratic(3), Field.quadratic(-1))
for i in range(21):
    report = classify(random_factored_input(rng, fields[i % 3], max_degree=10))
    print(report.dimension, report.case_tag, [str(p) for p in report.basis])
"""


def test_python_O_classifies_a_seeded_corpus_like_a_plain_run():
    plain, optimized = (
        subprocess.run([sys.executable, *flags, "-c", _SEEDED_CORPUS],
                       capture_output=True, text=True, env=_package_env())
        for flags in ((), ("-O",)))
    assert plain.returncode == optimized.returncode == 0, plain.stderr + optimized.stderr
    plain_lines, optimized_lines = plain.stdout.splitlines(), optimized.stdout.splitlines()
    assert (plain_lines[0], optimized_lines[0]) == ("debug True", "debug False")
    assert len(plain_lines) == 22
    assert plain_lines[1:] == optimized_lines[1:]


# -- pairwise node-data forms ------------------------------------------------------


def test_pair_form_matches_the_two_node_determinant():
    rng = random.Random("classify-pairform")
    for _ in range(20):
        fi = random_factored_input(rng, RATIONALS, max_degree=7)
        g = group_roots(fi)
        multiple_only = FactoredInput(field=RATIONALS,
                                      roots=tuple((root, mult) for root, mult
                                                  in fi.roots if mult >= 2),
                                      leading=RATIONALS.one())
        if multiple_only.degree < 4:
            continue
        t1, t2 = random_distinct_scalars(rng, RATIONALS, 2)
        if any(t1 == root or t2 == root for root, _ in fi.roots):
            continue
        del g
        with_pair = FactoredInput(
            field=RATIONALS,
            roots=multiple_only.roots + ((t1, 1), (t2, 1)),
            leading=RATIONALS.one())
        problem = to_z_problem(group_roots(with_pair))
        truncated = type(problem)(eta=problem.eta, omega=problem.omega, k=1)
        from wfdim.linalg import determinant

        det = determinant(associated_matrix(truncated))
        assert det == (t1 - t2) * d_pair_form(with_pair, t1, t2)


# -- symmetric determinant identities -----------------------------------------------


def test_three_point_identity_on_a_hand_triple():
    points = tuple(RATIONALS.scalar(v) for v in (0, 1, -1))
    check = verify_det_identities(points)
    assert check.holds
    assert check.rhs == (points[2] - points[0]) * (points[2] - points[1]) * (
        points[1] - points[0])


def test_four_point_identity_at_the_calibration_tuple():
    points = tuple(RATIONALS.scalar(v) for v in (0, 1, -1, 2))
    check = verify_det_identities(points)
    assert check.holds
    assert check.lhs == RATIONALS.scalar(-144)
    assert check.ratio == RATIONALS.one()


def test_identities_hold_on_random_tuples():
    rng = random.Random("classify-detid")
    for _ in range(15):
        for size in (3, 4):
            points = random_distinct_scalars(rng, ROOT3, size)
            assert verify_det_identities(points).holds


def test_identity_rejects_repeated_points_and_odd_sizes():
    one = RATIONALS.one()
    with pytest.raises(CoincidentPointsError):
        verify_det_identities((one, one, RATIONALS.zero()))
    with pytest.raises(ValueError):
        verify_det_identities((one, RATIONALS.zero()))


def test_cubic_combination_is_minus_the_squared_difference_product():
    rng = random.Random("classify-hform")
    for _ in range(15):
        points = random_distinct_scalars(rng, RATIONALS, 3)
        check = appendix_h_check(points)
        assert check.holds and check.ratio == -RATIONALS.one()
    for triple in ((0, 1, -1), (0, 1, 2)):
        points = tuple(RATIONALS.scalar(v) for v in triple)
        check = appendix_h_check(points)
        assert check.holds and check.lhs == RATIONALS.scalar(-4)


# -- certified families ---------------------------------------------------------------


def test_certified_families_expose_verified_data():
    families = exceptional_cubics()
    assert [fam.label for fam in families] == [
        "two-double-roots", "two-triple-roots", "double-and-triple-root"]
    split, cubic_field = families[:2], families[2]
    for fam in split:
        fi = fam.factored()
        cubic = fam.cubic_poly(fi.field)
        product = Poly.one(fi.field)
        for root, mult in fi.roots:
            if mult == 1:
                product = product * Poly.from_roots(fi.field, [root])
        assert product == cubic
    assert cubic_field.field is None
    with pytest.raises(ValueError):
        cubic_field.factored()


def test_certified_family_cubics_have_the_recorded_discriminants():
    families = exceptional_cubics()
    third = families[2].cubic_poly(RATIONALS)
    assert cubic_discriminant(third) == RATIONALS.scalar(Fraction(24, 14641))
    first = families[0].cubic_poly(RATIONALS)
    assert not cubic_discriminant(first).is_zero()


def test_extended_certified_families_classify_with_unit_dimension():
    for fam in exceptional_cubics()[:2]:
        base = fam.factored()
        extended = FactoredInput(
            field=base.field,
            roots=base.roots + ((base.field.scalar(7), 1),),
            leading=base.field.one())
        report = classify(extended)
        assert report.case_tag == "Exceptional44"
        assert report.dimension == 1


def test_singular_dropped_problems_do_not_inflate_the_dimension():
    fam = exceptional_cubics()[0]
    base = fam.factored()
    extended = FactoredInput(field=base.field,
                             roots=base.roots + ((base.field.scalar(2), 1),),
                             leading=base.field.one())
    problem = to_z_problem(group_roots(extended))
    dropped_dims = [z_report(drop_node(problem, i)).dimension
                    for i in range(problem.s)]
    assert max(dropped_dims) == 1
    assert min(dropped_dims) == 0
    assert min_drop_dimension(problem) == 1
    assert z_report(problem).dimension == 1
