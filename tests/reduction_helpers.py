"""Maps between kernel members and interpolation-problem members that only
the tests use: the inverse of ``bridge.attach_multiple_part``, the per-root
divisibility equivalences behind the bridge, and the affine change of
variables on a Z problem.
"""

from __future__ import annotations

from wfdim.bridge import RootGrouping
from wfdim.errors import NotDivisibleError
from wfdim.fields import ExactScalar
from wfdim.oracle import wf_form
from wfdim.poly import Poly
from wfdim.zspace import ZProblem


def divides(d: Poly, p: Poly) -> bool:
    """True when d | p (d nonzero)."""
    return (p % d).is_zero()


def strip_multiple_part(g: RootGrouping, p: Poly) -> Poly:
    """Divide a kernel member by f_beta * f_gamma^2 (exact, by the divisibility lemma)."""
    m = g.multiple_part
    try:
        return p.exact_div(m)
    except NotDivisibleError:
        raise NotDivisibleError(
            "polynomial is not divisible by the fixed multiple-root factor; "
            "it cannot be a kernel member") from None


def multiplicity_reduction_check(g: RootGrouping, p: Poly) -> bool:
    """Check the per-root divisibility equivalences behind the bridge.

    For R = f''p - f'p' and deg p <= n-2:
      at each double root beta:    (x-beta)^2 | R  <=>  (x-beta) | p,
      at each higher root gamma:   (x-gamma)^k | R  <=>  (x-gamma)^2 | p.
    Returns True iff every equivalence holds (it must, for every valid p).
    """
    if p.degree > g.n - 2:
        raise ValueError("degree of p exceeds n - 2")
    field = g.fi.field
    big_r = wf_form(g.f, p)
    ok = True
    for b in g.double:
        lhs = divides(Poly.from_roots(field, [b, b]), big_r)
        rhs = divides(Poly.from_roots(field, [b]), p)
        ok = ok and (lhs == rhs)
    for c, mult in g.higher:
        lhs = divides(Poly.from_roots(field, [c] * mult), big_r)
        rhs = divides(Poly.from_roots(field, [c, c]), p)
        ok = ok and (lhs == rhs)
    return ok


def affine_transport(z: ZProblem, scale: ExactScalar, offset: ExactScalar) -> ZProblem:
    """Image problem under x -> scale*x + offset: omega' = scale*omega + offset, eta' = eta/scale.

    ``transport_member`` maps members correspondingly.
    """
    if scale.is_zero():
        raise ValueError("scale must be nonzero")
    omega = tuple(scale * w + offset for w in z.omega)
    eta = tuple(e / scale for e in z.eta)
    return ZProblem(eta=eta, omega=omega, k=z.k)


def transport_member(p: Poly, scale: ExactScalar, offset: ExactScalar) -> Poly:
    """p(x) -> p((x - offset)/scale), the member map matching affine_transport."""
    inv = scale.inverse()
    return p.affine_substitute(inv, -offset * inv)
