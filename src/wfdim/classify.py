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

The module also holds the pair form D used by the n1 = r = 4 analysis and
the certified eigen-identity cubic families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def dtilde_at(fi: FactoredInput, x0: ExactScalar) -> ExactScalar:
    """Value of dtilde = sum weight/(x - root) over the multiple roots at x0
    (weight 3 at double roots, 2(k-1) at multiplicity k >= 3).

    Raises PoleError at a multiple root of f.
    """
    field = fi.field
    value = field.zero()
    for root, mult in fi.roots:
        if mult == 1:
            continue
        if x0 == root:
            raise PoleError(f"{x0} is a multiple root, a pole of the function")
        weight = 3 if mult == 2 else 2 * (mult - 1)
        value = value + field.scalar(weight) / (x0 - root)
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
