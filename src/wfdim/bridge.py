"""Bridge between a factored polynomial f and its interpolation problem.

Group the roots of f (deg f = n >= 4) by multiplicity:

    alpha_1..alpha_{n1}   simple,
    beta_1..beta_{n2}     double,
    gamma_1..gamma_{N3}   multiplicity k_s >= 3,

and set r = n - 2 - (n2 + 2*N3), mu = r + 1 - n1.  Every member p of the
kernel { p : deg p <= n-2, f divides f''p - f'p' } is divisible by the fixed
polynomial f_beta * f_gamma^2; stripping that factor and reading off the
conditions at the simple roots identifies the kernel with

    Z(delta, alpha; n1, r),      delta_i = d(alpha_i),

where d is the logarithmic-derivative combination implemented by ``d_at``.
``structural_kernel`` computes dimension and basis through that identification
(or directly, when there are no simple roots).
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field
from functools import cached_property

from . import linalg
from .errors import (DegreeTooSmallError, NoSimpleRootsError,
                     NotDivisibleError, PoleError)
from .fields import ExactScalar
# wf_contains is not called here, but stays importable from this module: the
# layer tracer in wfbench/tracing.py wraps it under this name.
from .oracle import wf_contains, wf_form  # noqa: F401
from .poly import FactoredInput, Poly
from .zspace import ZProblem, ZReport, z_report


@dataclass(frozen=True)
class RootGrouping:
    """The roots of one input grouped by multiplicity, and the per-input
    context every bridge quantity is derived from.

    Each derived quantity (the expanded f, the multiple part, the root
    products of d's quotient form, the interpolation problem's report) is
    computed on first use and kept for the life of this object, so one
    ``group_roots`` call serves a whole ``classify``.
    """

    simple: tuple[ExactScalar, ...]
    double: tuple[ExactScalar, ...]
    higher: tuple[tuple[ExactScalar, int], ...]
    n: int
    fi: FactoredInput = _field(compare=False, repr=False)

    @property
    def n1(self) -> int:
        return len(self.simple)

    @property
    def n2(self) -> int:
        return len(self.double)

    @property
    def N3(self) -> int:
        return len(self.higher)

    @property
    def r(self) -> int:
        return self.n - 2 - (self.n2 + 2 * self.N3)

    @property
    def mu(self) -> int:
        return self.r + 1 - self.n1

    @cached_property
    def f(self) -> Poly:
        """The expanded input polynomial."""
        return self.fi.expand()

    @cached_property
    def multiple_part(self) -> Poly:
        """The fixed divisor f_beta * f_gamma^2 shared by every kernel member."""
        factors = list(self.double) + [c for c, _ in self.higher for _ in range(2)]
        return Poly.from_roots(self.fi.field, factors)

    @cached_property
    def quotient_parts(self) -> tuple[Poly, ...]:
        """f_a', f_a'', f_b, f_b', ft, ft', f_c, f_c': the root products in the
        quotient form of d (see ``d_at``) and their derivatives."""
        field = self.fi.field
        f_a = Poly.from_roots(field, self.simple)
        f_b = Poly.from_roots(field, self.double)
        f_c = Poly.from_roots(field, [c for c, _ in self.higher])
        ft = Poly.from_roots(field, [c for c, mult in self.higher for _ in range(mult)])
        da = f_a.derivative()
        return (da, da.derivative(), f_b, f_b.derivative(), ft, ft.derivative(),
                f_c, f_c.derivative())

    @cached_property
    def z_report(self) -> ZReport:
        """The report on Z(delta, alpha; n1, r); needs simple roots."""
        return z_report(to_z_problem(self))


def group_roots(fi: FactoredInput) -> RootGrouping:
    if fi.degree < 4:
        raise DegreeTooSmallError(f"degree {fi.degree} < 4")
    simple = tuple(root for root, mult in fi.roots if mult == 1)
    double = tuple(root for root, mult in fi.roots if mult == 2)
    higher = tuple((root, mult) for root, mult in fi.roots if mult >= 3)
    return RootGrouping(simple=simple, double=double, higher=higher, n=fi.degree, fi=fi)


# The helpers below take a FactoredInput, or the RootGrouping of one to
# reuse what it has already derived.


def _grouping(fi: FactoredInput | RootGrouping) -> RootGrouping:
    return fi if isinstance(fi, RootGrouping) else group_roots(fi)


def multiple_part(fi: FactoredInput | RootGrouping) -> Poly:
    """The fixed divisor f_beta * f_gamma^2 shared by every kernel member."""
    return _grouping(fi).multiple_part


def d_at(fi: FactoredInput | RootGrouping, x0: ExactScalar) -> ExactScalar:
    """d(x0) for a simple root x0, computed two independent ways.

    Root-sum form:      sum_{alpha_j != x0} 2/(x0-alpha_j)
                        + sum_beta 3/(x0-beta) + sum_gamma 2(k_s-1)/(x0-gamma).
    Quotient form:      f_a''/f_a' + 3 f_b'/f_b + 2 ft'/ft - 2 f_c'/f_c
    evaluated at x0, where f_a, f_b, f_c are the monic simple/double/higher
    root products and ft carries each higher root with its full multiplicity.
    Both are computed and must agree.
    """
    g = _grouping(fi)
    if x0 not in g.simple:
        if any(x0 == b for b in g.double) or any(x0 == c for c, _ in g.higher):
            raise PoleError(f"{x0} is a multiple root; d has a pole there")
        raise ValueError(f"{x0} is not a simple root")
    field = g.fi.field
    two = field.scalar(2)
    three = field.scalar(3)

    via_sums = field.zero()
    for a in g.simple:
        if a != x0:
            via_sums = via_sums + two / (x0 - a)
    for b in g.double:
        via_sums = via_sums + three / (x0 - b)
    for c, mult in g.higher:
        via_sums = via_sums + field.scalar(2 * (mult - 1)) / (x0 - c)

    da, dda, f_b, db, ft, dt, f_c, dc = g.quotient_parts
    via_quotients = dda(x0) / da(x0)
    if g.double:
        via_quotients = via_quotients + three * db(x0) / f_b(x0)
    if g.higher:
        via_quotients = (via_quotients
                         + two * dt(x0) / ft(x0)
                         - two * dc(x0) / f_c(x0))
    if via_sums != via_quotients:
        raise AssertionError(f"the two forms of d disagree at {x0}: "
                             f"{via_sums} != {via_quotients}")
    return via_sums


def delta_vector(fi: FactoredInput | RootGrouping) -> tuple[ExactScalar, ...]:
    """(d(alpha_1), ..., d(alpha_n1)) in the order the simple roots appear."""
    g = _grouping(fi)
    return tuple(d_at(g, a) for a in g.simple)


def strip_multiple_part(fi: FactoredInput | RootGrouping, p: Poly) -> Poly:
    """Divide a kernel member by f_beta * f_gamma^2 (exact, by the divisibility lemma)."""
    m = multiple_part(fi)
    try:
        return p.exact_div(m)
    except NotDivisibleError:
        raise NotDivisibleError(
            "polynomial is not divisible by the fixed multiple-root factor; "
            "it cannot be a kernel member") from None


def attach_multiple_part(fi: FactoredInput | RootGrouping, q: Poly) -> Poly:
    """Multiply a cofactor by f_beta * f_gamma^2.

    The product lies in the kernel exactly when q solves the interpolation
    problem.  It is not checked here: a basis built from such products is
    checked once, where it is compared with the brute-force kernel.
    """
    return q * _grouping(fi).multiple_part


def to_z_problem(fi: FactoredInput | RootGrouping) -> ZProblem:
    """Z(delta, alpha; n1, r) — defined only when f has simple roots."""
    g = _grouping(fi)
    if g.n1 == 0:
        raise NoSimpleRootsError("no simple roots: the kernel is described directly, "
                                 "not by an interpolation problem")
    return ZProblem(eta=delta_vector(g), omega=g.simple, k=g.r)


def multiplicity_reduction_check(fi: FactoredInput | RootGrouping, p: Poly) -> bool:
    """Check the per-root divisibility equivalences behind the bridge.

    For R = f''p - f'p' and deg p <= n-2:
      at each double root beta:    (x-beta)^2 | R  <=>  (x-beta) | p,
      at each higher root gamma:   (x-gamma)^k | R  <=>  (x-gamma)^2 | p.
    Returns True iff every equivalence holds (it must, for every valid p).
    """
    g = _grouping(fi)
    if p.degree > g.n - 2:
        raise ValueError("degree of p exceeds n - 2")
    field = g.fi.field
    big_r = wf_form(g.f, p)
    ok = True
    for b in g.double:
        lhs = Poly.from_roots(field, [b, b]).divides(big_r)
        rhs = Poly.from_roots(field, [b]).divides(p)
        ok = ok and (lhs == rhs)
    for c, mult in g.higher:
        lhs = Poly.from_roots(field, [c] * mult).divides(big_r)
        rhs = Poly.from_roots(field, [c, c]).divides(p)
        ok = ok and (lhs == rhs)
    return ok


def structural_kernel(fi: FactoredInput | RootGrouping) -> tuple[int, tuple[Poly, ...]]:
    """Kernel dimension and canonical basis via the root structure.

    With no simple roots the kernel is exactly f_beta*f_gamma^2 * P_r, so the
    monomial multiples form a basis.  Otherwise solve Z(delta, alpha; n1, r)
    and attach the fixed factor to each solution.  The basis is not checked
    against the definition here: ``classify`` and the ``reduction_bridge``
    suite require it to equal the kernel basis, which ``WfKernel`` checks.
    """
    g = _grouping(fi)
    field = g.fi.field
    n = g.n
    m = g.multiple_part
    if g.n1 == 0:
        members = [m * Poly.x(field) ** j for j in range(g.r + 1)]
    else:
        members = [attach_multiple_part(g, q) for q in g.z_report.basis]
    vectors = [p.padded(n - 1) for p in members]
    canonical = linalg.canonical_rows(vectors, n - 1, field)
    basis = tuple(Poly(field, v) for v in canonical)
    if len(basis) != len(members):
        raise AssertionError("independent members collapsed under reduction")
    return len(basis), basis
