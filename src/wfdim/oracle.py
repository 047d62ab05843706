"""Brute-force kernel route: the ground truth every other route is checked against.

For f of degree n >= 4, the space of interest is

    { p : deg p <= n-2  and  f | f''p - f'p' }.

This module computes it with no theory at all: write down the linear map
p |-> (f''p - f'p') mod f on coefficient vectors and take its exact kernel.
The remainder lives in degrees 0..n-1, so the matrix is n x (n-1).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import DegreeTooSmallError
from .poly import Poly, wronskian


def wf_form(f: Poly, p: Poly) -> Poly:
    """The combination f''(x)p(x) - f'(x)p'(x) whose divisibility by f is the membership test."""
    return wronskian(p, f.derivative())


def wf_contains(f: Poly, p: Poly) -> bool:
    """Membership test: deg p <= deg f - 2 and f | wf_form(f, p)."""
    if p.is_zero():
        return True
    if p.degree > f.degree - 2:
        return False
    return (wf_form(f, p) % f).is_zero()


@dataclass(frozen=True)
class WfKernel:
    """Exact kernel: dimension and canonical basis (echelon rows, lowest nonzero coefficient 1).

    Every basis member is checked against the definition on construction;
    on the classify path this is the one membership check per basis.
    """

    f: Poly
    dimension: int
    basis: tuple[Poly, ...]

    def __post_init__(self):
        for p in self.basis:
            if not wf_contains(self.f, p):
                raise AssertionError(f"reported basis element {p} fails the membership test")


def wf_kernel(f: Poly) -> WfKernel:
    """Kernel by exact elimination on the n x (n-1) coefficient matrix."""
    if f.is_zero() or f.degree < 4:
        raise DegreeTooSmallError(f"need deg f >= 4, got {f.degree}")
    n = f.degree
    field = f.field
    lead_inv = f.leading.inverse()

    def times_x(v):
        """x*v mod f, on the n coefficients of v."""
        shifted = [field.zero()] + v[:-1]
        q = v[-1] * lead_inv
        return [s - q * c for s, c in zip(shifted, f.coeffs)] if q else shifted

    # Column j holds the coefficients of (x^j*f'' - j*x^(j-1)*f') mod f,
    # from x^j*f'' mod f and x^(j-1)*f' mod f, each advanced by times_x.
    d1 = f.derivative()
    high, low = d1.derivative().padded(n), d1.padded(n)
    columns = [high]
    for j in range(1, n - 1):
        high = times_x(high)
        columns.append([h - j * g for h, g in zip(high, low)])
        low = times_x(low)
    rows = [[columns[j][i] for j in range(n - 1)] for i in range(n)]
    kernel_vectors = linalg.nullspace(rows, n - 1, field)
    canonical = linalg.canonical_rows(kernel_vectors, n - 1, field)
    basis = tuple(Poly(field, v) for v in canonical)
    return WfKernel(f=f, dimension=len(basis), basis=basis)
