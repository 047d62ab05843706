"""Acceptance criteria. Each test checks one criterion end to end and registers
exactly one PASS/FAIL line in the terminal summary.

Criterion 7 records a finding about the exceptional quartic-interpolation
families (n1 = r = 4): the certified cubic makes the dropped-node problem at
the adjoined root singular, yet dim W(f) = 1 = mu, because another dropped
node stays nonsingular.  The reference value 1 is also confirmed outside the
package: a sympy rank of the defining condition gives 1 on every member, and
the gcd of the 4x4 minors of Z(delta, alpha; 4, 4), with the adjoined root as
a symbol t, has numerator t(3t^2 - 1) for the two-double-roots family and
t(11t^2 - 3) for the two-triple-roots family; both vanish only at the cubic's
own roots, so no admissible member has dimension 2.
"""

from __future__ import annotations

import contextlib
import io
import random

import pytest

from wfdim import Field, Poly, cli, classify
from wfdim.approx import (CROSSCHECK_RANK_BITS, DEFAULT_RANK_BITS,
                          embed_to_approx, wf_dimension_approx)
from wfdim.bridge import group_roots, to_z_problem
from wfdim.classify import CASE_EXCEPTIONAL_44, exceptional_cubics
from wfdim.constructions import crt_construct
from wfdim.corpus import (random_congruence_target, random_distinct_scalars,
                          random_factored_input, random_scalar,
                          random_wide_input, random_z_problem)
from wfdim.linalg import canonical_rows
from wfdim.oracle import wf_contains
from wfdim.poly import FactoredInput
from wfdim.zspace import (ZProblem, critical_eta, drop_node, min_drop_dimension,
                          z_contains, z_report)

from reduction_helpers import strip_multiple_part
from symmetric_identities import appendix_h_check, verify_det_identities

RATIONALS = Field.rationals()

EXPECTED_TABLE_CSV = """degree,n2,N3,r,n1,mu,dim,witness
4,0,1,0,0,1,1,x^4
4,2,0,0,0,1,1,(x + 1)^2*(x - 1)^2
5,0,1,1,1,1,1,x^4*(x - 1)
5,0,1,1,0,2,2,x^5
5,2,0,1,1,1,1,(x + 1)^2*(x - 1)^2*(x - 2)
5,1,1,0,0,1,1,(x + 1)^2*(x - 1)^3
6,0,1,2,0,3,3,x^6
6,1,1,1,0,2,2,x^4*(x - 1)^2
6,0,1,2,1,2,2,x^5*(x - 1)
6,0,1,2,2,1,1,x^4*(x - 1)*(x - 2)
6,3,0,1,0,2,2,(x + 1)^2*x^2*(x - 1)^2
6,1,1,1,1,1,1,x^3*(x - 1)^2*(x - 2)
6,2,0,2,2,1,1,(x + 1)^2*(x - 1)^2*(x - 2)*(x - 3)
"""


def finish(announce, number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    announce(f"ACCEPTANCE {number:02d} {status} — {label}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def factored(roots_with_mults, field: Field = RATIONALS,
             leading: int = 1) -> FactoredInput:
    roots = tuple((field.scalar(root), mult) for root, mult in roots_with_mults)
    return FactoredInput(field=field, roots=roots, leading=field.scalar(leading))


def span_vectors(polys, ncols: int, field: Field):
    return canonical_rows([p.padded(ncols) for p in polys], ncols, field)


@pytest.fixture(scope="module")
def classified_corpus():
    """Shared seeded corpus for criteria 6 and 11: 500 inputs, degree <= 12,
    rational roots, each classified once by all routes."""
    rng = random.Random("acceptance:oracle-corpus")
    corpus = []
    for _ in range(500):
        fi = random_factored_input(rng, RATIONALS, max_degree=12)
        corpus.append((fi, classify(fi)))
    return corpus


def test_01_small_degree_reference_table(announce):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["table"])
    table_ok = code == 0 and buffer.getvalue() == EXPECTED_TABLE_CSV

    routes_ok = True
    for line in EXPECTED_TABLE_CSV.strip().splitlines()[1:]:
        fields = line.split(",")
        expected_dim = int(fields[6])
        witness = next(row for row in cli._table_records()
                       if row["witness"] == fields[7])
        routes_ok = routes_ok and witness["dim"] == expected_dim

    finish(announce, 1, "small-degree reference table",
           table_ok and routes_ok,
           "13/13 rows byte-identical; dims match and all routes agree"
           if table_ok and routes_ok else
           f"table bytes match: {table_ok}; route dims match: {routes_ok}")


def test_02_quintic_closed_form_bases(announce):
    checks = []

    report = classify(factored([(0, 5)]))
    checks.append(report.dimension == 2
                  and [str(p) for p in report.basis] == ["x^2", "x^3"])

    cases = (
        ([(0, 4), (1, 1)], Poly(RATIONALS, (0, 0, -5, 6))),        # x^2*(6x-5)
        ([(1, 2), (-1, 2), (2, 1)], Poly(RATIONALS, (21, -12, -21, 12))),
        ([(1, 3), (-1, 2)], Poly(RATIONALS, (1, -1, -1, 1))),      # (x^2-1)(x-1)
    )
    for roots, target in cases:
        fi = factored(roots)
        report = classify(fi)
        same_span = (report.dimension == 1
                     and span_vectors(report.basis, 4, RATIONALS)
                     == span_vectors([target], 4, RATIONALS))
        checks.append(same_span)

    # The quoted cofactor for the quadruple-root case drops one factor of the
    # repeated root; the verbatim polynomial fails the divisibility condition
    # while the corrected one spans the kernel (see the package notes).
    quoted_form = Poly(RATIONALS, (0, -5, 6))
    checks.append(not wf_contains(factored([(0, 4), (1, 1)]).expand(), quoted_form))

    finish(announce, 2, "quintic closed-form bases", all(checks),
           "x^5, x^4(x-1), (x^2-1)^2(x-2), (x^2-1)^2(x-1) all match "
           "(quadruple-root cofactor carries x^2, not x — quoted form is "
           "not a member)" if all(checks) else f"sub-checks: {checks}")


def test_03_degenerate_two_node_example(announce):
    c = RATIONALS.scalar
    report = z_report(ZProblem(eta=(c(1), c(-1)), omega=(c(1), c(-1)), k=2))
    ok = report.rank == 1 and report.dimension == 2 and report.degenerate
    finish(announce, 3, "degenerate two-node interpolation example", ok,
           f"rank {report.rank}, dim {report.dimension}, "
           f"degenerate {report.degenerate}")


def test_04_interpolation_dimension_law(announce):
    rng = random.Random("acceptance:hermite")
    exact_cap_ok = True
    for _ in range(100):
        s = rng.randint(1, 6)
        z = random_z_problem(rng, RATIONALS, s=s, k=2 * s - 1)
        exact_cap_ok = exact_cap_ok and z_report(z).dimension == s
    wide_cap_ok = True
    for _ in range(100):
        s = rng.randint(1, 6)
        k = 2 * s - 1 + rng.randint(0, 4)
        z = random_z_problem(rng, RATIONALS, s=s, k=k)
        wide_cap_ok = wide_cap_ok and z_report(z).dimension == k + 1 - s
    finish(announce, 4, "value-ratio interpolation dimension law",
           exact_cap_ok and wide_cap_ok,
           "100/100 minimal caps give dim = s; 100/100 wide caps give "
           "dim = k+1-s")


def test_05_congruence_steering_surjection(announce):
    rng = random.Random("acceptance:crt")
    ok = True
    for _ in range(100):
        fi = random_wide_input(rng, RATIONALS)
        target = random_congruence_target(rng, fi)
        p = crt_construct(fi, target)
        g = group_roots(fi)
        ok = ok and p.degree <= 2 * g.n1 + g.n2 + 2 * g.N3 - 1
        f = fi.expand()
        fp, fpp, pp = f.derivative(), f.derivative().derivative(), p.derivative()
        for alpha, goal in zip(g.simple, target.a):
            ok = ok and fpp(alpha) / fp(alpha) * p(alpha) - pp(alpha) == goal
        for beta, goal in zip(g.double, target.b):
            ok = ok and p(beta) == goal
        for (gamma, _), goal in zip(g.higher, target.c):
            square = Poly.from_roots(fi.field, [gamma, gamma])
            ok = ok and p % square == goal % square
    finish(announce, 5, "congruence-steering constructions", ok,
           "100/100 constructions meet every residue exactly within the "
           "degree bound")


def test_06_three_route_equivalence(announce, classified_corpus):
    ok = True
    for fi, report in classified_corpus:
        ok = ok and report.dim_oracle == report.dim_structural
        if report.dim_theorem is not None:
            ok = ok and report.dim_theorem == report.dim_oracle
        g = report.grouping
        if g.n1 > 0 and report.dimension > 0:
            problem = to_z_problem(g)
            stripped = [strip_multiple_part(g, p) for p in report.basis]
            ok = ok and all(z_contains(problem, q) for q in stripped)
            ok = ok and len(span_vectors(stripped, g.r + 1, RATIONALS)) == len(stripped)
    finish(announce, 6, "three-route equivalence on a random corpus", ok,
           "500/500 inputs: kernel, reduction, and formula dims agree; "
           "stripping maps bases bijectively onto interpolation solutions")


def test_07_exceptional_quartic_interpolation_families(announce):
    """Members of the two certified families that split over a quadratic
    field, each extended by a fourth simple root: n1 = r = 4, mu = 1.

    The eigen-identity makes the dropped-node problem at the adjoined root
    singular (dimension 1), yet dim W(f) stays 1 = mu: another dropped node is
    nonsingular, so 1 + min over dropped nodes is 1.  The exact routes
    (via ``classify``) and the floating backend at two precisions, which
    shares no code with the exact kernel, must all give that dimension.
    """
    expected_dim = 1
    precisions = (DEFAULT_RANK_BITS, CROSSCHECK_RANK_BITS)
    outcomes = []
    ok = True

    for family in exceptional_cubics()[:2]:
        base = family.factored()
        field = base.field
        for extra in (2, 3, 5):
            adjoined = field.scalar(extra)
            member = FactoredInput(field=field,
                                   roots=base.roots + ((adjoined, 1),),
                                   leading=field.one())
            report = classify(member)
            g = report.grouping
            approx_dims = tuple(
                wf_dimension_approx([(embed_to_approx(root, bits), mult)
                                     for root, mult in member.roots], bits)
                for bits in precisions)
            problem = to_z_problem(g)
            drops = [z_report(drop_node(problem, i)).dimension
                     for i in range(problem.s)]
            adjoined_drop = drops[problem.omega.index(adjoined)]
            ok = (ok and report.case_tag == CASE_EXCEPTIONAL_44
                  and g.n1 == g.r == 4 and g.mu == 1
                  and report.dimension == expected_dim
                  and approx_dims == (expected_dim,) * len(precisions)
                  and adjoined_drop == 1
                  and min_drop_dimension(problem) == expected_dim)
            outcomes.append(
                f"{family.label} + {extra}: {report.case_tag} dim "
                f"{report.dimension} (approx {'/'.join(map(str, approx_dims))}), "
                f"mu {g.mu}, drops {drops} (adjoined {adjoined_drop})")

    summary = (f"dim {expected_dim} = mu on all {len(outcomes)} members; the "
               "singular drop at the adjoined root does not raise it"
               if ok else
               f"expected {CASE_EXCEPTIONAL_44}, mu 1, dim {expected_dim} by "
               "every route, adjoined drop 1")
    finish(announce, 7, "exceptional quartic-interpolation families", ok,
           f"{summary} — " + "; ".join(outcomes))


def test_08_quadruple_root_with_four_simple_roots(announce):
    fi = factored([(0, 4), (1, 1), (2, 1), (3, 1), (4, 1)])
    report = classify(fi)
    g = report.grouping
    ok = g.n1 == 4 and g.r == 4 and report.dimension == 1
    finish(announce, 8, "quadruple root with four simple roots", ok,
           f"n1 = {g.n1}, r = {g.r}, dim = {report.dimension}")


def test_09_pair_evaluation_determinant_identities(announce):
    rng = random.Random("acceptance:detid")
    ok = True
    for _ in range(50):
        ok = ok and verify_det_identities(
            random_distinct_scalars(rng, RATIONALS, 3)).holds
        ok = ok and verify_det_identities(
            random_distinct_scalars(rng, RATIONALS, 4)).holds
    calibration = verify_det_identities(
        tuple(RATIONALS.scalar(v) for v in (0, 1, -1, 2)))
    ok = (ok and calibration.holds
          and calibration.lhs == RATIONALS.scalar(-144)
          and calibration.ratio == RATIONALS.one())
    finish(announce, 9, "pair-evaluation determinant identities", ok,
           "50/50 random triples and quadruples hold exactly; calibration "
           "quadruple (0,1,-1,2) gives determinant -144 (ratio 1 against "
           "minus the squared difference product)")


def test_10_degeneracy_necessary_condition(announce):
    rng = random.Random("acceptance:degeneracy")
    ok = True
    for _ in range(200):
        s = rng.randint(2, 5)
        k = 2 * s - 2 + rng.randint(0, 3)
        omega = random_distinct_scalars(rng, RATIONALS, s)
        special = critical_eta(omega)
        eta = tuple(random_scalar(rng, RATIONALS) for _ in range(s))
        while eta == special:
            eta = tuple(random_scalar(rng, RATIONALS) for _ in range(s))
        report = z_report(ZProblem(eta=eta, omega=omega, k=k))
        ok = ok and not report.degenerate

    recorded = {True: 0, False: 0}
    for _ in range(20):
        s = rng.randint(2, 5)
        k = 2 * s - 2 + rng.randint(0, 3)
        omega = random_distinct_scalars(rng, RATIONALS, s)
        report = z_report(ZProblem(eta=critical_eta(omega), omega=omega, k=k))
        recorded[report.degenerate] += 1

    finish(announce, 10, "degeneracy necessary condition", ok,
           "200/200 non-critical node data are non-degenerate; critical data "
           f"recorded without assertion (degenerate {recorded[True]}, "
           f"non-degenerate {recorded[False]} of 20)")


def test_11_nonvanishing_criterion(announce, classified_corpus):
    ok = True
    for fi, report in classified_corpus:
        multiplicities = sorted((mult for _, mult in fi.roots), reverse=True)
        doubled = [m for m in multiplicities if m >= 2]
        squared_quadratic_divides = len(doubled) >= 2 or any(
            m >= 4 for m in multiplicities)
        ok = ok and (report.dimension > 0) == squared_quadratic_divides
    finish(announce, 11, "nonvanishing criterion", ok,
           "500/500 inputs: dim > 0 exactly when the square of some "
           "quadratic divides the input")


def test_12_three_point_cubic_combination(announce):
    rng = random.Random("acceptance:hcheck")
    ok = True
    for _ in range(50):
        check = appendix_h_check(random_distinct_scalars(rng, RATIONALS, 3))
        ok = ok and check.holds and check.ratio == -RATIONALS.one()
    for triple in ((0, 1, -1), (0, 1, 2)):
        check = appendix_h_check(tuple(RATIONALS.scalar(v) for v in triple))
        ok = ok and check.holds and check.ratio == -RATIONALS.one()
    noted = "196" in check.note
    finish(announce, 12, "three-point cubic combination identity", ok and noted,
           "50/50 random triples and both calibration triples give ratio -1; "
           "the suggested constant-196 form is recorded as not reproduced")
