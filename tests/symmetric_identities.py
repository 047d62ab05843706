"""Symmetric-function identity checks behind acceptance criteria 9 and 12.

These evaluate identities from the n1 = r = 4 analysis exactly, on given
points: the 3x3/6x6 pair-evaluation determinants, the cubic combination h,
and the discriminant of a cubic.  No route of the package calls them; the
tests in ``test_classify.py`` and ``test_acceptance.py`` do.
"""

from __future__ import annotations

from dataclasses import dataclass

from wfdim import linalg
from wfdim.errors import CoincidentPointsError
from wfdim.fields import ExactScalar
from wfdim.poly import Poly


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
