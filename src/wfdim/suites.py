"""Named property suites behind the verify command.

Each suite checks one module's invariants on seeded random corpora and
returns pass/fail counts; ``run_suites`` drives any subset deterministically.
Suite streams are seeded per suite name, so running one suite alone produces
exactly the checks it would run as part of the full set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as _field
from fractions import Fraction

from . import linalg
from .bridge import delta_vector, group_roots, structural_kernel, to_z_problem
from .classify import classify, d_pair_form, exceptional_cubics
from .constructions import HermiteData, crt_construct, ev_kernel_dim, hermite_basis
from .corpus import (
    random_congruence_target,
    random_distinct_scalars,
    random_factored_input,
    random_fraction,
    random_poly,
    random_scalar,
    random_wide_input,
    random_z_problem,
    table_rows,
)
from .fields import Field
from .oracle import wf_contains, wf_kernel
from .poly import FactoredInput
from .zspace import (
    ZProblem,
    associated_matrix,
    critical_eta,
    drop_node,
    min_drop_dimension,
    z_contains,
    z_report,
)

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suites"]


@dataclass
class SuiteResult:
    """Pass/fail tally for one suite, with the first few failure messages."""

    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = _field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def check(self, condition: bool, message: str) -> None:
        if condition:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(message)


def _fields_under_test() -> tuple[Field, ...]:
    return (Field.rationals(), Field.quadratic(3), Field.quadratic(-1), Field.quadratic(33))


# -- scalar_field ----------------------------------------------------------------


def _suite_scalar_field(rng: random.Random, result: SuiteResult) -> None:
    # Lazy import: only this suite uses the floating backend, so importing the
    # package or its CLI does not load mpmath.
    import mpmath

    from .approx import DEFAULT_PRECISION_BITS, embed_to_approx

    for d in (3, 33, -33, 5, -1, 2):
        s = Field.quadratic(d).sqrt_generator()
        result.check(s * s == Field.quadratic(d).scalar(d), f"sqrt({d})^2 != {d}")
    for field in _fields_under_test():
        for _ in range(50):
            x = field.zero()
            while x.is_zero():
                x = random_scalar(rng, field)
            result.check(x * x.inverse() == field.one(), f"{x} * 1/{x} != 1")
        for _ in range(50):
            x = random_scalar(rng, field)
            y = random_scalar(rng, field)
            with mpmath.workprec(DEFAULT_PRECISION_BITS):
                lhs = embed_to_approx(x * y)
                rhs = embed_to_approx(x) * embed_to_approx(y)
                gap = abs(lhs - rhs)
                result.check(
                    gap <= (1 + abs(lhs)) * Fraction(1, 10**30),
                    f"product embedding off by {gap} for {x} * {y}",
                )
                lhs = embed_to_approx(x + y)
                rhs = embed_to_approx(x) + embed_to_approx(y)
                result.check(
                    abs(lhs - rhs) <= (1 + abs(lhs)) * Fraction(1, 10**30),
                    f"sum embedding off for {x} + {y}",
                )


# -- poly_core -------------------------------------------------------------------


def _suite_poly_core(rng: random.Random, result: SuiteResult) -> None:
    for field in _fields_under_test():
        for _ in range(30):
            p = random_poly(rng, field, 6)
            q = random_poly(rng, field, 6)
            product_rule = (p * q).derivative() == p.derivative() * q + p * q.derivative()
            result.check(product_rule, f"product rule fails for {p}, {q}")
        for _ in range(30):
            a = random_poly(rng, field, 8)
            b = random_poly(rng, field, 5)
            quo, rem = divmod(a, b)
            result.check(
                quo * b + rem == a and (rem.is_zero() or rem.degree < b.degree),
                f"divmod reconstruction fails for {a}, {b}",
            )
    for _ in range(30):
        fi = random_factored_input(rng)
        p = fi.expand()
        for root, mult in fi.roots:
            derivative = p
            for order in range(mult):
                result.check(
                    derivative(root).is_zero(),
                    f"derivative order {order} of {fi} nonzero at root {root}",
                )
                derivative = derivative.derivative()
            result.check(
                not derivative(root).is_zero(),
                f"derivative order {mult} of {fi} vanishes at {root}: multiplicity wrong",
            )


# -- wspace_oracle ---------------------------------------------------------------


def _nonvanishing_predicate(fi: FactoredInput) -> bool:
    g = group_roots(fi)
    return g.n2 + g.N3 >= 2 or any(mult >= 4 for _, mult in g.higher)


def _suite_wspace_oracle(rng: random.Random, result: SuiteResult) -> None:
    for _ in range(40):
        fi = random_factored_input(rng, max_degree=10)
        f = fi.expand()
        kernel = wf_kernel(f)
        for p in kernel.basis:
            result.check(wf_contains(f, p), f"basis element {p} violates divisibility for {fi}")
        scale = rng.choice((1, 2, -1, Fraction(1, 2)))
        offset = random_fraction(rng, 3)
        moved = wf_kernel(fi.affine_image(scale, offset).expand())
        result.check(
            moved.dimension == kernel.dimension,
            f"affine change x -> {scale}x+{offset} moved dim {kernel.dimension} "
            f"to {moved.dimension} for {fi}",
        )
        expected = _nonvanishing_predicate(fi)
        result.check(
            (kernel.dimension > 0) == expected,
            f"nonvanishing criterion fails for {fi}: dim {kernel.dimension}",
        )


# -- zspace ----------------------------------------------------------------------


def _suite_zspace(rng: random.Random, result: SuiteResult) -> None:
    fields = _fields_under_test()
    for _ in range(60):
        field = rng.choice(fields)
        s = rng.randint(1, 5)
        k = rng.randint(max(0, s - 1), 2 * s + 2)
        problem = random_z_problem(rng, field, s, k)
        report = z_report(problem)
        result.check(
            report.dimension == k + 1 - report.rank,
            f"rank/dim mismatch for {problem}",
        )
        edge = s == 1 and k == 0 and problem.eta[0].is_zero()
        if not edge:
            result.check(
                k + 1 - s <= report.dimension <= k,
                f"dimension bounds fail for {problem}: dim {report.dimension}",
            )
        # Degree monotonicity and the inclusion chains.
        bigger = ZProblem(eta=problem.eta, omega=problem.omega, k=k + rng.randint(1, 3))
        big_report = z_report(bigger)
        result.check(
            big_report.dimension <= report.dimension + (bigger.k - k),
            f"degree monotonicity fails between k={k} and k={bigger.k}",
        )
        result.check(
            all(z_contains(bigger, p) for p in report.basis),
            f"degree-cap inclusion fails for {problem}",
        )
        if s >= 2:
            fewer = ZProblem(eta=problem.eta[:-1], omega=problem.omega[:-1], k=k)
            result.check(
                all(z_contains(fewer, p) for p in report.basis),
                f"node-subset inclusion fails for {problem}",
            )
    # Non-critical eta with k >= 2s-2 is never degenerate.
    for _ in range(200):
        field = rng.choice(fields)
        s = rng.randint(2, 5)
        k = rng.randint(2 * s - 2, 2 * s + 2)
        omega = random_distinct_scalars(rng, field, s)
        critical = critical_eta(omega)
        eta = critical
        while eta == critical:
            eta = tuple(random_scalar(rng, field) for _ in range(s))
        report = z_report(ZProblem(eta=eta, omega=omega, k=k))
        result.check(
            not report.degenerate,
            f"non-critical eta degenerate: s={s} k={k} omega={omega}",
        )
    # The 2x2 truncation determinant equals (a1 - a2) * D(a1, a2).
    q = Field.rationals()
    for _ in range(40):
        n2 = rng.randint(0, 2)
        hs = [rng.randint(3, 5) for _ in range(rng.randint(0, 1))]
        if n2 + len(hs) == 0:
            n2 = 1
        pts = random_distinct_scalars(rng, q, n2 + len(hs) + 2, span=7)
        mroots, (a1, a2) = pts[: n2 + len(hs)], pts[n2 + len(hs) :]
        roots = [(m, 2) for m in mroots[:n2]]
        roots += [(m, mult) for m, mult in zip(mroots[n2:], hs)]
        roots += [(a1, 1), (a2, 1)]
        gfi = FactoredInput(q, roots)
        truncation = ZProblem(eta=delta_vector(group_roots(gfi)), omega=(a1, a2), k=1)
        det = linalg.determinant(associated_matrix(truncation))
        result.check(
            det == (a1 - a2) * d_pair_form(gfi, a1, a2),
            f"truncation determinant identity fails for {gfi}",
        )


# -- reduction_bridge ------------------------------------------------------------


def _suite_reduction_bridge(rng: random.Random, result: SuiteResult) -> None:
    for _ in range(60):
        fi = random_factored_input(rng, max_degree=10)
        kernel = wf_kernel(fi.expand())
        dim, basis = structural_kernel(group_roots(fi))
        result.check(
            dim == kernel.dimension and list(basis) == list(kernel.basis),
            f"bridge route disagrees with the kernel for {fi}",
        )
    # n1 = 0 closed form: dim = r + 1 and members are exactly (multiple part) * P_r.
    drawn = 0
    while drawn < 25:
        fi = random_factored_input(rng, max_degree=10)
        g = group_roots(fi)
        if g.n1 != 0:
            continue
        drawn += 1
        kernel = wf_kernel(fi.expand())
        result.check(kernel.dimension == g.r + 1, f"n1=0 dimension != r+1 for {fi}")
        carrier = g.multiple_part
        for p in kernel.basis:
            quot, rem = divmod(p, carrier)
            result.check(
                rem.is_zero() and (quot.is_zero() or quot.degree <= g.r),
                f"n1=0 member {p} is not carrier * (deg <= r) for {fi}",
            )
    # Nonvanishing disjunction matches the oracle in both directions.
    for _ in range(60):
        fi = random_factored_input(rng)
        g = group_roots(fi)
        some_high = any(mult >= 4 for _, mult in g.higher)
        disjunction = (
            g.n2 >= 2
            or (g.N3 >= 1 and some_high)
            or (g.n2 >= 1 and g.N3 >= 1)
            or g.N3 >= 2
        )
        result.check(
            disjunction == _nonvanishing_predicate(fi),
            f"nonvanishing disjunction forms disagree for {fi}",
        )
        result.check(
            disjunction == (wf_kernel(fi.expand()).dimension > 0),
            f"nonvanishing criterion vs oracle fails for {fi}",
        )


# -- constructions ---------------------------------------------------------------


def _suite_constructions(rng: random.Random, result: SuiteResult) -> None:
    for _ in range(100):
        fi = random_wide_input(rng, max_degree=10)
        g = group_roots(fi)
        target = random_congruence_target(rng, fi)
        p = crt_construct(fi, target)
        cap = 2 * g.n1 + g.n2 + 2 * g.N3 - 1
        result.check(
            p.is_zero() or p.degree <= cap,
            f"construction degree {p.degree} exceeds {cap} for {fi}",
        )
        f = fi.expand()
        fp, fpp = f.derivative(), f.derivative().derivative()
        for alpha, a in zip(g.simple, target.a):
            d_value = fpp(alpha) * fp(alpha).inverse()
            result.check(
                d_value * p(alpha) - p.derivative()(alpha) == a,
                f"simple-root functional fails at {alpha} for {fi}",
            )
        for beta, b in zip(g.double, target.b):
            result.check(p(beta) == b, f"double-root value fails at {beta} for {fi}")
        for (gamma, _), c in zip(g.higher, target.c):
            matches = p(gamma) == c(gamma) and p.derivative()(gamma) == c.derivative()(gamma)
            result.check(matches, f"higher-root jet fails at {gamma} for {fi}")
        # Consequence: the dimension formula in the wide regime.
        result.check(
            classify(fi).dimension == (g.n - 1) - (g.n1 + g.n2 + 2 * g.N3),
            f"wide-regime dimension formula fails for {fi}",
        )
    fields = _fields_under_test()
    for _ in range(100):
        field = rng.choice(fields)
        s = rng.randint(1, 6)
        omega = random_distinct_scalars(rng, field, s)
        eta = tuple(random_scalar(rng, field) for _ in range(s))
        report = z_report(ZProblem(eta=eta, omega=omega, k=2 * s - 1))
        result.check(report.dimension == s, f"s-node law fails: s={s}, dim={report.dimension}")
        y = tuple(random_scalar(rng, field) for _ in range(s))
        interpolant = hermite_basis(HermiteData(eta=eta, omega=omega, y=y))
        good = all(
            interpolant(w) == yv and interpolant.derivative()(w) == e * yv
            for w, e, yv in zip(omega, eta, y)
        )
        result.check(good, f"interpolant misses its data: s={s}")
    for _ in range(100):
        field = rng.choice(fields)
        s = rng.randint(1, 5)
        k = rng.randint(2 * s - 1, 2 * s + 3)
        problem = random_z_problem(rng, field, s, k)
        report = z_report(problem)
        result.check(
            report.dimension == k + 1 - s,
            f"wide-degree law fails: s={s} k={k} dim={report.dimension}",
        )
        result.check(
            report.dimension - ev_kernel_dim(problem) == s,
            f"evaluation-kernel split fails: s={s} k={k}",
        )


# -- classifier ------------------------------------------------------------------

_N1_FOUR_PROFILES = (
    # (n2, higher multiplicities) -> r = 2 + n2 + sum(k - 2)
    (2, ()),        # r = 4
    (0, (4,)),      # r = 4
    (1, (3,)),      # r = 4
    (3, ()),        # r = 5
    (1, (4,)),      # r = 5
    (0, (5,)),      # r = 5
    (2, (3,)),      # r = 5
    (2, (4,)),      # r = 6
    (0, (3, 5)),    # r = 6
    (0, (6,)),      # r = 6
    (0, (7,)),      # r = 7
)


def _suite_classifier(rng: random.Random, result: SuiteResult, corpus_size: int = 500) -> None:
    corpus: list[FactoredInput] = [row.witness for row in table_rows()]
    for row, fi in zip(table_rows(), corpus):
        report = classify(fi)
        result.check(
            report.dimension == row.dim,
            f"survey witness {row.label} gives dim {report.dimension}, expected {row.dim}",
        )
    corpus.extend(random_factored_input(rng, max_degree=12) for _ in range(corpus_size))
    for fi in corpus:
        try:
            report = classify(fi)
        except Exception as err:  # a route disagreement anywhere is a failure
            result.check(False, f"classify raised {err!r} for {fi}")
            continue
        result.check(True, "")
        g = report.grouping
        result.check(
            (report.dimension > 0) == _nonvanishing_predicate(fi),
            f"nonvanishing criterion fails for {fi}",
        )
        if g.n1 == 0:
            result.check(
                report.dimension == g.r + 1,
                f"no-simple-root closed form fails for {fi}: {report.dimension}",
            )
        elif g.r >= g.n1 - 1:
            result.check(
                g.mu <= report.dimension <= g.r,
                f"dimension bounds mu..r fail for {fi}: {report.dimension}",
            )
        if g.n1 >= 1 and g.r == 2 * g.n1 - 2:
            result.check(
                not report.degenerate,
                f"boundary case r = 2*n1 - 2 is degenerate for {fi}",
            )
    # Complete classification at four simple roots: r >= 6 gives r - 3; r = 5
    # gives 2; r = 4 stays within {1, 2} (and the sharper node-removal formula).
    q = Field.rationals()
    for n2, hs in _N1_FOUR_PROFILES:
        roots = random_distinct_scalars(rng, q, 4 + n2 + len(hs), span=8)
        mults = [1] * 4 + [2] * n2 + list(hs)
        fi = FactoredInput(q, list(zip(roots, mults)))
        g = group_roots(fi)
        report = classify(fi)
        if g.r >= 6:
            expected_ok = report.dimension == g.r - 3
        elif g.r == 5:
            expected_ok = report.dimension == 2
        else:
            problem = to_z_problem(g)
            expected_ok = report.dimension in (1, 2) and report.dimension == min_drop_dimension(problem)
        result.check(
            expected_ok,
            f"four-simple-root classification fails for {fi}: r={g.r} dim={report.dimension}",
        )
    # Certified families: building them runs their internal verification; the
    # split families have dimension 1 with a singular dropped-node problem.
    families = exceptional_cubics()
    result.check(len(families) == 3, "expected three certified families")
    for fam in families:
        if fam.field is None:
            continue
        base = fam.factored()
        extended = FactoredInput(
            fam.field, base.roots + ((fam.field.scalar(2), 1),), base.leading
        )
        report = classify(extended)
        result.check(
            report.case_tag == "Exceptional44" and report.dimension == 1,
            f"{fam.label}: extension gives {report.case_tag} dim {report.dimension}",
        )
        problem = to_z_problem(report.grouping)
        dropped = z_report(drop_node(problem, 3)).dimension
        result.check(
            dropped == 1,
            f"{fam.label}: dropping the adjoined node should leave dimension 1, got {dropped}",
        )
        smallest = min(
            z_report(drop_node(problem, i)).dimension for i in range(problem.s)
        )
        result.check(
            smallest == 0 and min_drop_dimension(problem) == 1,
            f"{fam.label}: node-removal identity fails (min dropped dim {smallest})",
        )


# -- cli -------------------------------------------------------------------------


def _suite_cli(rng: random.Random, result: SuiteResult) -> None:
    # Lazy import: the cli module imports this one for the verify command.
    import json

    from .cli import build_dim_report
    from .errors import DegreeTooSmallError, ParseError
    from .jsonio import canonical_json, parse_input_spec

    spec = {
        "field": {"kind": "rational"},
        "roots": [[["rat", "0", "1"], 5]],
    }
    envelope = build_dim_report(parse_input_spec(json.dumps(spec)))
    rendered = canonical_json(envelope)
    result.check(
        json.loads(rendered)["dim"] == 2 and json.loads(rendered)["routes_agree"] is True,
        "quintic monomial report is wrong",
    )
    result.check(
        canonical_json(json.loads(rendered)) == rendered,
        "report round-trip is not byte-identical",
    )
    try:
        parse_input_spec("{not json")
        result.check(False, "malformed input did not raise")
    except ParseError:
        result.check(True, "")
    try:
        build_dim_report(
            parse_input_spec(json.dumps({"field": {"kind": "rational"}, "roots": [[["rat", "0", "1"], 3]]}))
        )
        result.check(False, "degree-3 input did not raise")
    except DegreeTooSmallError:
        result.check(True, "")


# -- driver ----------------------------------------------------------------------

_SUITES = {
    "scalar_field": _suite_scalar_field,
    "poly_core": _suite_poly_core,
    "wspace_oracle": _suite_wspace_oracle,
    "zspace": _suite_zspace,
    "reduction_bridge": _suite_reduction_bridge,
    "constructions": _suite_constructions,
    "classifier": _suite_classifier,
    "cli": _suite_cli,
}

SUITE_NAMES = tuple(_SUITES)


def run_suites(
    names: tuple[str, ...] | list[str] | None = None,
    seed: int = 0,
    corpus_size: int | None = None,
) -> list[SuiteResult]:
    """Run the named suites (all by default) and return their results.

    Each suite draws from its own stream seeded by (seed, suite name), so a
    single suite run reproduces exactly its checks from a full run.
    ``corpus_size`` rescales the classifier's random corpus (default 500).
    """
    if names is None:
        names = SUITE_NAMES
    unknown = [name for name in names if name not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suite name(s): {', '.join(unknown)}; "
                         f"choose from {', '.join(SUITE_NAMES)}")
    results = []
    for name in names:
        result = SuiteResult(name=name)
        rng = random.Random(f"{seed}:{name}")
        if name == "classifier" and corpus_size is not None:
            _SUITES[name](rng, result, corpus_size)
        else:
            _SUITES[name](rng, result)
        results.append(result)
    return results
