"""Arbitrary-precision floating backend for roots outside quadratic extensions.

The exact scalar tower stops at a + b*sqrt(d); inputs whose simple roots are
roots of an irreducible cubic (one certified family is) are handled here
instead: polynomial arithmetic over mpmath complex coefficients, with rank
decisions made by scaled-pivot elimination against a relative threshold and
accepted only when two working precisions agree.

``embed_to_approx`` maps an exact scalar into this backend, taking sqrt(d) on
the principal branch: positive real for d > 0, positive imaginary for d < 0.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

from .fields import ExactScalar

RANK_RELATIVE_TOLERANCE = Fraction(1, 10**9)
DEFAULT_RANK_BITS = 256
CROSSCHECK_RANK_BITS = 512
DEFAULT_PRECISION_BITS = 128
MIN_PRECISION_BITS = 64


def embed_to_approx(x: ExactScalar, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpmath.mpc:
    """Exact -> approximate embedding, principal branch for sqrt(d).

    A field homomorphism up to rounding: the result is within relative error
    2^(1-precision_bits) of the true complex value.  Arithmetic on it runs at
    the ambient mpmath precision, so wrap it in ``mpmath.workprec``.
    """
    if precision_bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision_bits must be >= {MIN_PRECISION_BITS}")
    # Construct with guard bits, round once at the target precision.
    with mpmath.workprec(precision_bits + 16):
        a = mpmath.mpf(x.a.numerator) / x.a.denominator
        if x.field.is_rational or x.b == 0:
            value = mpmath.mpc(a, 0)
        else:
            b = mpmath.mpf(x.b.numerator) / x.b.denominator
            d = x.field.d
            root = mpmath.sqrt(abs(d))
            if d > 0:
                value = mpmath.mpc(a + b * root, 0)
            else:
                value = mpmath.mpc(a, b * root)
    with mpmath.workprec(precision_bits):
        return mpmath.mpc(value)


def _to_mpc(value) -> mpmath.mpc:
    if isinstance(value, Fraction):
        return mpmath.mpc(mpmath.mpf(value.numerator) / value.denominator)
    return mpmath.mpc(mpmath.mpmathify(value))


# -- polynomial helpers on ascending mpc coefficient lists --------------------


def poly_from_roots(roots) -> list[mpmath.mpc]:
    coeffs = [mpmath.mpc(1)]
    for root in roots:
        r = _to_mpc(root)
        shifted = [mpmath.mpc(0)] + coeffs
        coeffs = [shifted[j] - r * c for j, c in enumerate(coeffs)] + [shifted[-1]]
    return coeffs


def poly_mul(u, v) -> list[mpmath.mpc]:
    out = [mpmath.mpc(0)] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def poly_derivative(u) -> list[mpmath.mpc]:
    if len(u) <= 1:
        return [mpmath.mpc(0)]
    return [j * c for j, c in enumerate(u)][1:]


def poly_mod_monic(u, f) -> list[mpmath.mpc]:
    """Remainder of u modulo a monic polynomial f (coefficient division only)."""
    assert abs(f[-1] - 1) < mpmath.mpf(2) ** (-10), "modulus must be monic"
    rem = list(u)
    deg_f = len(f) - 1
    while len(rem) - 1 >= deg_f:
        lead = rem[-1]
        shift = len(rem) - 1 - deg_f
        for j, c in enumerate(f):
            rem[shift + j] -= lead * c
        rem.pop()
    return rem or [mpmath.mpc(0)]


# -- rank with scaled pivoting -------------------------------------------------


def approx_rank(rows, relative_tolerance: Fraction = RANK_RELATIVE_TOLERANCE) -> int:
    """Rank by Gaussian elimination with full pivoting; entries whose magnitude
    falls below relative_tolerance times the matrix scale count as zero.

    Rows are equilibrated (scaled to unit maximum magnitude) first, so rows of
    wildly different sizes — remainder coefficients grow with the root
    magnitudes — are judged against their own scale, not the largest row's.
    """
    matrix = [[_to_mpc(x) for x in row] for row in rows]
    if not matrix or not matrix[0]:
        return 0
    equilibrated = []
    for row in matrix:
        row_scale = max(abs(x) for x in row)
        if row_scale > 0:
            equilibrated.append([x / row_scale for x in row])
    matrix = equilibrated
    if not matrix:
        return 0
    threshold = mpmath.mpf(relative_tolerance.numerator) / relative_tolerance.denominator
    nrows, ncols = len(matrix), len(matrix[0])
    rank = 0
    row0 = 0
    used_cols: set[int] = set()
    while row0 < nrows:
        best, best_pos = mpmath.mpf(0), None
        for i in range(row0, nrows):
            for j in range(ncols):
                if j in used_cols:
                    continue
                mag = abs(matrix[i][j])
                if mag > best:
                    best, best_pos = mag, (i, j)
        if best_pos is None or best <= threshold:
            break
        i0, j0 = best_pos
        matrix[row0], matrix[i0] = matrix[i0], matrix[row0]
        pivot = matrix[row0][j0]
        for i in range(row0 + 1, nrows):
            factor = matrix[i][j0] / pivot
            if factor == 0:
                continue
            matrix[i] = [x - factor * y for x, y in zip(matrix[i], matrix[row0])]
        used_cols.add(j0)
        rank += 1
        row0 += 1
    return rank


# -- the two dimension computations, approximately -----------------------------


def wf_dimension_approx(roots_with_mults, precision_bits: int = DEFAULT_RANK_BITS) -> int:
    """Kernel dimension of { p : deg p <= n-2, f | f''p - f'p' } with
    floating-point roots; f is the monic product of (x - root)^mult."""
    with mpmath.workprec(precision_bits):
        flat = []
        for root, mult in roots_with_mults:
            flat.extend([root] * mult)
        f = poly_from_roots(flat)
        n = len(f) - 1
        fp = poly_derivative(f)
        fpp = poly_derivative(fp)
        rows = []
        for j in range(n - 1):
            xj = [mpmath.mpc(0)] * j + [mpmath.mpc(1)]
            combination = [a - b for a, b in _pad_pair(poly_mul(fpp, xj),
                                                      poly_mul(fp, poly_derivative(xj)))]
            rem = poly_mod_monic(combination, f)
            rows.append(rem + [mpmath.mpc(0)] * (n - len(rem)))
        return (n - 1) - approx_rank(rows)


def _pad_pair(u, v):
    length = max(len(u), len(v))
    u = u + [mpmath.mpc(0)] * (length - len(u))
    v = v + [mpmath.mpc(0)] * (length - len(v))
    return zip(u, v)


def z_dimension_approx(eta, omega, k: int,
                       precision_bits: int = DEFAULT_RANK_BITS) -> int:
    """dim of { p : deg p <= k, p'(omega_i) = eta_i p(omega_i) } from the
    associated matrix rank, with floating-point data."""
    with mpmath.workprec(precision_bits):
        rows = []
        for e, w in zip(eta, omega):
            e, w = _to_mpc(e), _to_mpc(w)
            row, power = [], mpmath.mpc(1)  # power = w^(j-1) once j >= 1
            for j in range(k + 1):
                if j == 0:
                    row.append(e)
                else:
                    row.append(e * power * w - j * power)
                    power = power * w
            rows.append(row)
        return (k + 1) - approx_rank(rows)


def interpolation_data_approx(roots_with_mults):
    """(eta, omega) at the simple roots: eta_i is the weighted root sum
    sum 2/(a_i - a_j) + sum 3/(a_i - b) + sum 2(k-1)/(a_i - c)."""
    simple = [_to_mpc(root) for root, mult in roots_with_mults if mult == 1]
    eta = []
    for i, alpha in enumerate(simple):
        total = mpmath.mpc(0)
        for j, other in enumerate(simple):
            if j != i:
                total += 2 / (alpha - other)
        for root, mult in roots_with_mults:
            if mult == 2:
                total += 3 / (alpha - _to_mpc(root))
            elif mult >= 3:
                total += 2 * (mult - 1) / (alpha - _to_mpc(root))
        eta.append(total)
    return eta, simple


def cubic_roots_approx(coeffs, precision_bits: int = DEFAULT_RANK_BITS) -> list[mpmath.mpc]:
    """Roots of a cubic given by ascending coefficients (exact rationals)."""
    with mpmath.workprec(precision_bits):
        descending = [_to_mpc(c) for c in reversed(list(coeffs))]
        roots = mpmath.polyroots(descending, maxsteps=200, extraprec=precision_bits // 2)
        return [mpmath.mpc(r) for r in roots]


def certified_family_dimension(family, extra_simple_roots=(),
                               precision_bits: int = DEFAULT_RANK_BITS,
                               crosscheck_bits: int = CROSSCHECK_RANK_BITS) -> tuple[int, int]:
    """(kernel dimension, interpolation dimension) for a certified family,
    optionally extended by extra simple roots; every rank decision is computed
    at two precisions and must agree."""
    results = []
    for bits in (precision_bits, crosscheck_bits):
        with mpmath.workprec(bits):
            cubic_roots = cubic_roots_approx(family.cubic, bits)
            roots = [(_to_mpc(Fraction(r)), mult) for r, mult in family.multiple_roots]
            roots += [(root, 1) for root in cubic_roots]
            roots += [(_to_mpc(extra), 1) for extra in extra_simple_roots]
            wf_dim = wf_dimension_approx(roots, bits)
            eta, omega = interpolation_data_approx(roots)
            n = sum(mult for _, mult in roots)
            n2 = sum(1 for _, mult in roots if mult == 2)
            n3 = sum(1 for _, mult in roots if mult >= 3)
            r = n - 2 - (n2 + 2 * n3)
            z_dim = z_dimension_approx(eta, omega, r, bits)
            results.append((wf_dim, z_dim))
    if results[0] != results[1]:
        raise AssertionError(f"rank decisions differ between precisions: {results}")
    return results[0]
