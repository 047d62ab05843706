"""Closed-form dimension classification, cross-checked against both other routes.

``classify`` computes the kernel dimension three ways on every call — the
brute-force kernel, the interpolation-problem reduction, and (where a closed
form is proved) a formula — and refuses to return unless they agree:

    N1Zero         no simple roots: dim = r + 1,
    SmallN1        n1 <= 3:         dim = mu,
    WideR          r >= 2*n1 - 2:   dim = mu,
    Exceptional44  n1 = r = 4:      dim = 1 + min over dropped nodes of the
                                    reduced dimension (always 1; see below),
    BruteForce     anything else:   no formula, dimension from the kernel.

The module also houses the symmetric-function identity checks used by the
n1 = r = 4 analysis: the pair form D, the 3x3/6x6 determinant identities,
the certified eigen-identity cubic families, and the cubic-discriminant
combination h.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
# to_z_problem and z_report are not called here, but stay importable from this
# module: the layer tracer in wfbench/tracing.py wraps them under these names.
from .bridge import RootGrouping, group_roots, structural_kernel, to_z_problem  # noqa: F401
from .errors import CoincidentPointsError, PoleError, RouteDisagreementError
from .fields import ExactScalar, Field
from .oracle import wf_kernel
from .poly import FactoredInput, Poly
from .zspace import min_drop_dimension, z_report  # noqa: F401

CASE_N1_ZERO = "N1Zero"
CASE_SMALL_N1 = "SmallN1"
CASE_WIDE_R = "WideR"
CASE_EXCEPTIONAL_44 = "Exceptional44"
CASE_BRUTE_FORCE = "BruteForce"


@dataclass(frozen=True)
class WfReport:
    """Dimension of the kernel by all routes, with its canonical basis."""

    grouping: RootGrouping
    dim_oracle: int
    dim_structural: int
    dim_theorem: int | None
    degenerate: bool
    basis: tuple[Poly, ...]
    case_tag: str

    @property
    def dimension(self) -> int:
        return self.dim_oracle


def classify(fi: FactoredInput) -> WfReport:
    """Compute dimension and basis by every applicable route; all must agree.

    Raises RouteDisagreementError if the routes differ (they never should),
    DegreeTooSmallError below degree 4.
    """
    g = group_roots(fi)
    kernel = wf_kernel(g.f)
    dim_structural, basis_structural = structural_kernel(g)

    if g.n1 == 0:
        case_tag = CASE_N1_ZERO
        dim_theorem: int | None = g.r + 1
        degenerate = False
    else:
        report = g.z_report
        degenerate = report.degenerate
        if g.n1 <= 3:
            case_tag, dim_theorem = CASE_SMALL_N1, g.mu
        elif g.r >= 2 * g.n1 - 2:
            case_tag, dim_theorem = CASE_WIDE_R, g.mu
        elif g.n1 == 4 and g.r == 4:
            # The one regime between the generic formulas with a proved closed
            # form: the node-removal identity gives 1 + min over dropped nodes,
            # and the four multiple-part shapes make the minimum always 0.
            case_tag = CASE_EXCEPTIONAL_44
            dim_theorem = min_drop_dimension(report.problem)
        else:
            case_tag, dim_theorem = CASE_BRUTE_FORCE, None

    if kernel.dimension != dim_structural:
        raise RouteDisagreementError(
            f"kernel dimension {kernel.dimension} != reduction dimension "
            f"{dim_structural} for {fi}"
        )
    if dim_theorem is not None and dim_theorem != kernel.dimension:
        raise RouteDisagreementError(
            f"formula dimension {dim_theorem} ({case_tag}) != kernel dimension "
            f"{kernel.dimension} for {fi}"
        )
    if list(kernel.basis) != list(basis_structural):
        raise RouteDisagreementError(
            f"canonical bases differ between kernel and reduction routes for {fi}"
        )
    return WfReport(
        grouping=g,
        dim_oracle=kernel.dimension,
        dim_structural=dim_structural,
        dim_theorem=dim_theorem,
        degenerate=degenerate,
        basis=kernel.basis,
        case_tag=case_tag,
    )


# -- the rational function dtilde (multiple-root part of d) -------------------


def _multiple_root_weights(fi: FactoredInput) -> list[tuple[ExactScalar, int]]:
    """(root, weight) with weight 3 at double roots, 2(k-1) at higher roots."""
    weights = []
    for root, mult in fi.roots:
        if mult == 2:
            weights.append((root, 3))
        elif mult >= 3:
            weights.append((root, 2 * (mult - 1)))
    return weights


def dtilde_fraction(fi: FactoredInput) -> tuple[Poly, Poly]:
    """Numerator and monic denominator of dtilde = sum weight/(x - root)
    over the multiple roots (weight 3 at double, 2(k-1) at multiplicity k >= 3)."""
    field = fi.field
    weights = _multiple_root_weights(fi)
    denominator = Poly.from_roots(field, [root for root, _ in weights])
    numerator = Poly.zero(field)
    for root, weight in weights:
        cofactor = denominator.exact_div(Poly.from_roots(field, [root]))
        numerator = numerator + Poly.constant(field.scalar(weight)) * cofactor
    return numerator, denominator


def dtilde_at(fi: FactoredInput, x0: ExactScalar) -> ExactScalar:
    """Value of dtilde at x0, by the root sum and by the fraction; both must agree.

    Raises PoleError at a multiple root of f.
    """
    weights = _multiple_root_weights(fi)
    field = fi.field
    value = field.zero()
    for root, weight in weights:
        if x0 == root:
            raise PoleError(f"{x0} is a multiple root, a pole of the function")
        value = value + field.scalar(weight) / (x0 - root)
    numerator, denominator = dtilde_fraction(fi)
    assert value * denominator(x0) == numerator(x0), "fraction form disagrees"
    return value


def d_pair_form(fi: FactoredInput, t1: ExactScalar, t2: ExactScalar) -> ExactScalar:
    """The symmetric pair form D(t1, t2) = (dt(t1) - dt(t2))/(t1 - t2) - dt(t1)*dt(t2)
    of dt = dtilde; nonvanishing of D at a pair of simple roots is what rules
    degeneracy out of the two-node reduced problems."""
    if t1 == t2:
        raise CoincidentPointsError("pair form needs two distinct points")
    v1 = dtilde_at(fi, t1)
    v2 = dtilde_at(fi, t2)
    return (v1 - v2) / (t1 - t2) - v1 * v2


def pair_numerator_coeffs(a: int, b: int, c: int, d: int) -> tuple[Fraction, Fraction, Fraction]:
    """(x00, x10, x11) with D(T1,T2)*(T1^2+cT1+d)(T2^2+cT2+d)
    = x11*T1*T2 + x10*(T1+T2) + x00, for dtilde = (a*x+b)/(x^2+c*x+d).

    x11 = -a(a+1) and x10 = -b(a+1); the constant term is a*d - b^2 - b*c
    (symbolic expansion; the b = 0 families reduce it to a*d)."""
    return (
        Fraction(a * d - b * b - b * c),
        Fraction(-b * (a + 1)),
        Fraction(-a * (a + 1)),
    )


def leading_coeff_dtilde(fi: FactoredInput) -> ExactScalar:
    """Leading coefficient a = 3*n2 + 2*sum(k_j - 1) of dtilde's numerator.

    Asserts the numerator's actual leading coefficient matches and that
    a >= 3*n2 + 4*N3 (an integer at least 3 once a multiple root exists)."""
    weights = _multiple_root_weights(fi)
    if not weights:
        raise ValueError("the function is zero without multiple roots")
    a = sum(weight for _, weight in weights)
    n2 = sum(1 for _, mult in fi.roots if mult == 2)
    n3 = sum(1 for _, mult in fi.roots if mult >= 3)
    assert a >= 3 * n2 + 4 * n3
    numerator, _ = dtilde_fraction(fi)
    assert numerator.degree == len(weights) - 1
    value = fi.field.scalar(a)
    assert numerator.leading == value
    return value


# -- symmetric-function identity checks ---------------------------------------


@dataclass(frozen=True)
class SymmetricCheck:
    """One evaluated identity: lhs against rhs, their ratio, and the verdict."""

    alphas: tuple[ExactScalar, ...]
    lhs: ExactScalar
    rhs: ExactScalar
    ratio: ExactScalar | None
    holds: bool
    note: str


def _require_distinct(alphas: tuple[ExactScalar, ...]) -> None:
    if len({a.sort_key() for a in alphas}) != len(alphas):
        raise CoincidentPointsError("points must be pairwise distinct")


def verify_det_identities(alphas) -> SymmetricCheck:
    """Pair-evaluation determinants in the symmetric basis.

    Length 3: rows (1, ai+aj, ai*aj) over pairs; det = (a3-a1)(a3-a2)(a2-a1).
    Length 4: rows extended by (ai^2+aj^2, ai^2*aj + ai*aj^2, (ai*aj)^2) over
    the six pairs; det = -prod_{i<j} (ai - aj)^2.  Both checked exactly.
    """
    alphas = tuple(alphas)
    _require_distinct(alphas)
    field = alphas[0].field
    pairs = [(i, j) for i in range(len(alphas)) for j in range(i + 1, len(alphas))]
    if len(alphas) == 3:
        rows = []
        for i, j in pairs:
            s, p = alphas[i] + alphas[j], alphas[i] * alphas[j]
            rows.append([field.one(), s, p])
        lhs = linalg.determinant(rows)
        a1, a2, a3 = alphas
        rhs = (a3 - a1) * (a3 - a2) * (a2 - a1)
        note = "3x3 pair determinant equals the difference product"
    elif len(alphas) == 4:
        rows = []
        for i, j in pairs:
            s, p = alphas[i] + alphas[j], alphas[i] * alphas[j]
            two = field.scalar(2)
            rows.append([field.one(), s, p, s * s - two * p, s * p, p * p])
        lhs = linalg.determinant(rows)
        rhs = -field.one()
        for i, j in pairs:
            diff = alphas[i] - alphas[j]
            rhs = rhs * diff * diff
        note = "6x6 pair determinant equals minus the squared difference product"
    else:
        raise ValueError("identity is stated for 3 or 4 points")
    ratio = lhs / rhs if not rhs.is_zero() else None
    return SymmetricCheck(alphas=alphas, lhs=lhs, rhs=rhs, ratio=ratio,
                          holds=lhs == rhs, note=note)


def appendix_h_check(alphas) -> SymmetricCheck:
    """The cubic combination h = 27e3^2 - 18e1e2e3 + 4(e2^3 + e1^3e3) - e1^2e2^2
    against the squared difference product of the three points.

    Empirically h = -prod_{i<j}(ai - aj)^2 exactly (ratio -1 at every distinct
    triple), so h != 0 whenever the points are distinct; the candidate constant
    196 and the squared-discriminant form suggested for this comparison are
    inconsistent with h's degree and are not reproduced.
    """
    alphas = tuple(alphas)
    if len(alphas) != 3:
        raise ValueError("h is a three-point combination")
    _require_distinct(alphas)
    a1, a2, a3 = alphas
    field = a1.field
    e1 = a1 + a2 + a3
    e2 = a1 * a2 + a1 * a3 + a2 * a3
    e3 = a1 * a2 * a3
    c = field.scalar
    lhs = (c(27) * e3 * e3 - c(18) * e1 * e2 * e3
           + c(4) * (e2 * e2 * e2 + e1 * e1 * e1 * e3) - e1 * e1 * e2 * e2)
    rhs = field.one()
    for u, v in ((a1, a2), (a1, a3), (a2, a3)):
        diff = u - v
        rhs = rhs * diff * diff
    assert not lhs.is_zero(), "h vanished at a distinct triple"
    return SymmetricCheck(
        alphas=alphas, lhs=lhs, rhs=rhs, ratio=lhs / rhs, holds=lhs == -rhs,
        note=("ratio -1 throughout: h is minus the squared difference product; "
              "the suggested factor 196 / squared-discriminant forms do not match"),
    )


def cubic_discriminant(p: Poly) -> ExactScalar:
    """Discriminant of a degree-3 polynomial from its coefficients."""
    if p.degree != 3:
        raise ValueError("discriminant formula here is for cubics")
    field = p.field
    a, b, c, d = p.coeff(3), p.coeff(2), p.coeff(1), p.coeff(0)
    return (field.scalar(18) * a * b * c * d
            - field.scalar(4) * b * b * b * d
            + b * b * c * c
            - field.scalar(4) * a * c * c * c
            - field.scalar(27) * a * a * d * d)


# -- certified eigen-identity cubic families ----------------------------------


@dataclass(frozen=True)
class CertifiedFamily:
    """A multiple-root shape and a certified monic cubic g with
    (x^2+c*x+d)*g'' + (a*x+b)*g' = (3a+6)*g.

    The identity makes the shifted node data vanish at g's roots, so the
    interpolation problem obtained after removing a fourth simple root is
    singular.  ``field`` and ``cubic_roots`` are set when g splits over a
    quadratic extension; the one family with cubic-field roots carries None
    and is instantiated on the approximate backend.
    """

    label: str
    multiple_roots: tuple[tuple[int, int], ...]
    cubic: tuple[Fraction, Fraction, Fraction, Fraction]
    eigen: tuple[int, int, int, int]
    eigen_scale: int
    field: Field | None
    cubic_roots: tuple[tuple[Fraction, Fraction], ...] | None

    def cubic_poly(self, field: Field) -> Poly:
        return Poly(field, tuple(field.scalar(c) for c in self.cubic))

    def shape(self, field: Field) -> FactoredInput:
        roots = tuple((field.scalar(r), m) for r, m in self.multiple_roots)
        return FactoredInput(field=field, roots=roots, leading=field.one())

    def factored(self) -> FactoredInput:
        """The shape times the split cubic, as exact factored input."""
        if self.field is None or self.cubic_roots is None:
            raise ValueError(f"{self.label}: cubic does not split over a quadratic field")
        field = self.field
        roots = tuple((field.scalar(r), m) for r, m in self.multiple_roots)
        roots += tuple((field.scalar(x, y), 1) for x, y in self.cubic_roots)
        return FactoredInput(field=field, roots=roots, leading=field.one())


def _verify_family(fam: CertifiedFamily) -> CertifiedFamily:
    rationals = Field.rationals()
    g = fam.cubic_poly(rationals)
    a, b, c, d = (rationals.scalar(v) for v in fam.eigen)
    den = Poly(rationals, (d, c, rationals.one()))
    num = Poly(rationals, (b, a))
    lam = Poly.constant(rationals.scalar(fam.eigen_scale))
    assert den * g.derivative().derivative() + num * g.derivative() == lam * g, (
        f"{fam.label}: eigen-identity fails"
    )
    assert fam.eigen_scale == 3 * fam.eigen[0] + 6
    if fam.field is not None and fam.cubic_roots is not None:
        field = fam.field
        split = Poly.from_roots(field, [field.scalar(x, y) for x, y in fam.cubic_roots])
        lifted = Poly(field, tuple(field.scalar(q) for q in fam.cubic))
        assert split == lifted, f"{fam.label}: stored roots do not split the cubic"
    return fam


def exceptional_cubics() -> tuple[CertifiedFamily, CertifiedFamily, CertifiedFamily]:
    """The three certified families, verified on construction.

    The first splits over the degree-2 extension by sqrt(3), the second over
    the one by sqrt(33), the third has an irreducible cubic (no rational
    roots; discriminant 24/14641) and is handled approximately.
    """
    families = (
        CertifiedFamily(
            label="two-double-roots",
            multiple_roots=((1, 2), (-1, 2)),
            cubic=(Fraction(0), Fraction(-1, 3), Fraction(0), Fraction(1)),
            eigen=(6, 0, 0, -1),
            eigen_scale=24,
            field=Field.quadratic(3),
            cubic_roots=((Fraction(0), Fraction(0)),
                         (Fraction(0), Fraction(1, 3)),
                         (Fraction(0), Fraction(-1, 3))),
        ),
        CertifiedFamily(
            label="two-triple-roots",
            multiple_roots=((1, 3), (-1, 3)),
            cubic=(Fraction(0), Fraction(-3, 11), Fraction(0), Fraction(1)),
            eigen=(8, 0, 0, -1),
            eigen_scale=30,
            field=Field.quadratic(33),
            cubic_roots=((Fraction(0), Fraction(0)),
                         (Fraction(0), Fraction(1, 11)),
                         (Fraction(0), Fraction(-1, 11))),
        ),
        CertifiedFamily(
            label="double-and-triple-root",
            multiple_roots=((0, 2), (1, 3)),
            cubic=(Fraction(-2, 33), Fraction(6, 11), Fraction(-15, 11), Fraction(1)),
            eigen=(7, -3, -1, 0),
            eigen_scale=27,
            field=None,
            cubic_roots=None,
        ),
    )
    return tuple(_verify_family(f) for f in families)
