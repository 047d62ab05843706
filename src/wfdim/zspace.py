"""Derivative-ratio interpolation spaces and their associated matrices.

For nodes omega_1..omega_s (pairwise distinct), data eta_1..eta_s, and a
degree cap k, the space studied here is

    Z(eta, omega; s, k) = { p : deg p <= k  and  p'(omega_i) = eta_i * p(omega_i) }.

Writing p by coefficients, each condition is one linear functional; stacking
them gives the s x (k+1) associated matrix with entry

    (i, j) = eta_i * omega_i^j - j * omega_i^(j-1),     j = 0..k,

so dim Z = k + 1 - rank.  The problem is *degenerate* when the matrix fails
full rank, i.e. rank < min(s, k+1); then dim exceeds the generic value.

``drop_node`` is the size-reduction step: removing node i and shifting every
other datum by eta_j -> eta_j - 2/(omega_j - omega_i) relates the kernel of
evaluation-at-omega_i to a problem with s-1 nodes and degree cap k-2.
``critical_eta`` is the only data vector a degenerate problem with
k >= 2s-2 can carry.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import CoincidentPointsError, HypothesisError
from .fields import ExactScalar, Field
from .poly import Poly


@dataclass(frozen=True)
class ZProblem:
    eta: tuple[ExactScalar, ...]
    omega: tuple[ExactScalar, ...]
    k: int

    def __post_init__(self):
        if len(self.eta) != len(self.omega):
            raise ValueError("eta and omega must have equal length")
        if not self.omega:
            raise ValueError("need at least one node")
        if self.k < 0:
            raise ValueError("degree cap k must be >= 0")
        if len(set(self.omega)) != len(self.omega):
            raise CoincidentPointsError("nodes must be pairwise distinct")
        field = self.field
        for value in self.eta + self.omega:
            if value.field != field:
                raise ValueError("all scalars must share one field")

    @property
    def s(self) -> int:
        return len(self.omega)

    @property
    def field(self) -> Field:
        return self.omega[0].field


@dataclass(frozen=True)
class ZReport:
    problem: ZProblem
    matrix: list[list[ExactScalar]]
    rank: int
    dimension: int
    degenerate: bool
    basis: tuple[Poly, ...]


def associated_matrix(z: ZProblem) -> list[list[ExactScalar]]:
    """s x (k+1) matrix whose kernel is Z in coefficient coordinates."""
    field = z.field
    rows = []
    for eta_i, w in zip(z.eta, z.omega):
        row = []
        power = field.one()           # w^(j-1) tracker, starts meaningless for j=0
        for j in range(z.k + 1):
            if j == 0:
                row.append(eta_i)
                power = field.one()   # w^0
            else:
                row.append(eta_i * w * power - j * power)
                power = power * w
        rows.append(row)
    return rows


def z_contains(z: ZProblem, p: Poly) -> bool:
    """Membership: deg p <= k and p'(omega_i) = eta_i p(omega_i) for all i."""
    if p.degree > z.k:
        return False
    dp = p.derivative()
    return all((dp(w) - eta_i * p(w)).is_zero() for eta_i, w in zip(z.eta, z.omega))


def z_report(z: ZProblem) -> ZReport:
    """Exact rank/dimension/basis, with the proven bounds asserted.

    The bounds k+1-s <= dim <= k (and rank >= 1) hold whenever k >= s-1,
    except for the single edge s = 1, k = 0, eta = (0): there the matrix is
    [0], Z is the constants, and dim = 1 > k.
    """
    matrix = associated_matrix(z)
    field = z.field
    kernel_vectors = linalg.nullspace(matrix, z.k + 1, field)
    canonical = linalg.canonical_rows(kernel_vectors, z.k + 1, field)
    basis = tuple(Poly(field, v) for v in canonical)
    rk = (z.k + 1) - len(basis)
    dim = len(basis)
    degenerate = rk < min(z.s, z.k + 1)
    for p in basis:
        if not z_contains(z, p):
            raise AssertionError(f"basis element {p} fails its defining conditions")
    if z.k >= z.s - 1 and not (z.k == 0 and all(e.is_zero() for e in z.eta)):
        if rk < 1:
            raise AssertionError("associated matrix cannot vanish identically here")
        if not z.k + 1 - z.s <= dim <= z.k:
            raise AssertionError(f"bounds violated: dim={dim}, s={z.s}, k={z.k}")
    return ZReport(problem=z, matrix=matrix, rank=rk,
                   dimension=dim, degenerate=degenerate, basis=basis)


def critical_eta(omega: tuple[ExactScalar, ...]) -> tuple[ExactScalar, ...]:
    """The unique data a degenerate problem with k >= 2s-2 can carry:
    eta_i = sum_{j != i} 2/(omega_i - omega_j)."""
    if len(set(omega)) != len(omega):
        raise CoincidentPointsError("nodes must be pairwise distinct")
    field = omega[0].field
    out = []
    for i, wi in enumerate(omega):
        acc = field.zero()
        for j, wj in enumerate(omega):
            if j != i:
                acc = acc + field.scalar(2) / (wi - wj)
        out.append(acc)
    return tuple(out)


def drop_node(z: ZProblem, index: int) -> ZProblem:
    """Remove node ``index``; shift the others by -2/(omega_j - omega_i); cap k-2.

    Valid for source size s >= 2 and k >= max(s, 2).  Members of the result
    correspond to members of the source divisible by (x - omega_i)^2, via
    p -> p / (x - omega_i)^2; hence dim(source) <= 1 + dim(result), with
    equality exactly when some source member is nonzero at the dropped node.
    For s <= k < 2s a source member nonzero at SOME node always exists
    (otherwise the degree bound forces the source to vanish, contradicting
    dim >= k+1-s >= 1), so there dim(source) = 1 + min over all dropped
    nodes of dim(result).  See ``min_drop_dimension``.
    """
    if z.s < 2:
        raise ValueError("need at least two nodes to drop one")
    if z.k < max(z.s, 2):
        raise ValueError(f"degree cap k={z.k} too small to drop a node (s={z.s})")
    if not 0 <= index < z.s:
        raise IndexError(f"node index {index} out of range")
    wi = z.omega[index]
    two = z.field.scalar(2)
    eta = tuple(e - two / (w - wi)
                for j, (e, w) in enumerate(zip(z.eta, z.omega)) if j != index)
    omega = tuple(w for j, w in enumerate(z.omega) if j != index)
    return ZProblem(eta=eta, omega=omega, k=z.k - 2)


def min_drop_dimension(z: ZProblem) -> int:
    """dim via the node-removal identity: 1 + min over nodes of dim(dropped problem).

    Requires s <= k < 2s (and the drop_node preconditions), the range where the
    identity is proved: dim <= 1 + dim(dropped) holds for every node, and if no
    member were nonzero at any node, every member would be divisible by the
    degree-2s product of the squared node factors, forcing dim = 0 against
    dim >= k+1-s >= 1.
    """
    if not z.s <= z.k < 2 * z.s:
        raise HypothesisError(f"node-removal dimension needs s <= k < 2s, got s={z.s}, k={z.k}")
    return 1 + min(z_report(drop_node(z, i)).dimension for i in range(z.s))

