"""Independent check of one W(f) report.  Imports nothing from wfdim.

For f of degree n over K = Q or Q(sqrt d),

    W(f) = { p : deg p <= n - 2  and  f | f''p - f'p' }.

The checker rebuilds f from its roots with its own arithmetic, gets dim W(f)
as (n - 1) - rank of the n x (n - 1) matrix whose column j holds
(f'' x^j - f' (x^j)') mod f, and checks that every reported basis member
satisfies the divisibility and that the basis is in the canonical form
(reduced row echelon on ascending coefficients, each pivot 1, pivots
increasing).  Independence then follows from the echelon form, so a basis
of the right size whose members all lie in W(f) spans it.

The rank is taken with sympy's DomainMatrix over QQ.  Over Q(sqrt d) the
matrix is first written over Q by restriction of scalars: each entry
a + b sqrt(d) becomes the 2 x 2 block [[a, d b], [b, a]], which doubles the
rank.

Elements of K are pairs (a, b) of Fractions meaning a + b sqrt(d); over Q,
b is always 0.  Scalars on the wire are ["rat", num, den] or
["quad", a_num, a_den, b_num, b_den], with every number a decimal string.
"""

from __future__ import annotations

from fractions import Fraction

from sympy import QQ
from sympy.polys.matrices import DomainMatrix

ZERO = Fraction(0)
ONE = Fraction(1)


class Arith:
    """Field operations on pairs (a, b) = a + b sqrt(d); d is None for Q."""

    def __init__(self, d: int | None):
        self.d = d

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def sub(self, x, y):
        return (x[0] - y[0], x[1] - y[1])

    def mul(self, x, y):
        if self.d is None:
            return (x[0] * y[0], ZERO)
        return (x[0] * y[0] + self.d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def inv(self, x):
        norm = x[0] * x[0] - (0 if self.d is None else self.d * x[1] * x[1])
        return (x[0] / norm, -x[1] / norm)

    # -- polynomials: lists of elements, constant term first, no trailing zeros

    @staticmethod
    def trim(p):
        p = list(p)
        while p and p[-1] == (ZERO, ZERO):
            p.pop()
        return p

    def pmul(self, p, q):
        if not p or not q:
            return []
        out = [(ZERO, ZERO)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] = self.add(out[i + j], self.mul(a, b))
        return self.trim(out)

    def psub(self, p, q):
        n = max(len(p), len(q))
        z = (ZERO, ZERO)
        return self.trim(self.sub(p[i] if i < len(p) else z, q[i] if i < len(q) else z)
                         for i in range(n))

    def pderiv(self, p):
        return self.trim((c[0] * j, c[1] * j) for j, c in enumerate(p) if j)

    def pmod(self, p, f):
        rem = list(p)
        lead_inv = self.inv(f[-1])
        for top in range(len(rem) - 1, len(f) - 2, -1):
            q = self.mul(rem[top], lead_inv)
            if q == (ZERO, ZERO):
                continue
            shift = top - (len(f) - 1)
            for j, c in enumerate(f):
                rem[shift + j] = self.sub(rem[shift + j], self.mul(q, c))
        return self.trim(rem)


def scalar_from_wire(obj) -> tuple[Fraction, Fraction]:
    if obj[0] == "rat" and len(obj) == 3:
        return (Fraction(int(obj[1]), int(obj[2])), ZERO)
    if obj[0] == "quad" and len(obj) == 5:
        return (Fraction(int(obj[1]), int(obj[2])), Fraction(int(obj[3]), int(obj[4])))
    raise ValueError(f"bad wire scalar {obj!r}")


def expand(arith: Arith, roots, leading):
    """leading * prod (x - root)^mult."""
    f = [leading]
    for root, mult in roots:
        for _ in range(mult):
            f = arith.pmul(f, [(-root[0], -root[1]), (ONE, ZERO)])
    return f


def grouping(roots) -> dict:
    """n1, n2, N3, r, mu of the multiplicity profile."""
    mults = [m for _, m in roots]
    n = sum(mults)
    n1 = mults.count(1)
    n2 = mults.count(2)
    n3 = sum(1 for m in mults if m >= 3)
    r = n - 2 - (n2 + 2 * n3)
    return {"degree": n, "n1": n1, "n2": n2, "N3": n3, "r": r, "mu": r + 1 - n1}


def case_tag(g: dict) -> str:
    """Which closed-form rule covers the profile (BruteForce when none does)."""
    if g["n1"] == 0:
        return "N1Zero"
    if g["n1"] <= 3:
        return "SmallN1"
    if g["r"] >= 2 * g["n1"] - 2:
        return "WideR"
    if g["n1"] == 4 and g["r"] == 4:
        return "Exceptional44"
    return "BruteForce"


def kernel_dimension(arith: Arith, f) -> int:
    """(n - 1) - rank of p |-> (f''p - f'p') mod f on deg p <= n - 2."""
    n = len(f) - 1
    f1 = arith.pderiv(f)
    f2 = arith.pderiv(f1)
    columns = []
    for j in range(n - 1):
        zeros = [(ZERO, ZERO)] * j
        term = arith.pmul(f1, [(ZERO, ZERO)] * (j - 1) + [(Fraction(j), ZERO)]) if j else []
        rem = arith.pmod(arith.psub(zeros + f2, term), f)
        columns.append(rem + [(ZERO, ZERO)] * (n - len(rem)))
    if arith.d is None:
        rows = [[QQ(columns[j][i][0].numerator, columns[j][i][0].denominator)
                 for j in range(n - 1)] for i in range(n)]
        return (n - 1) - DomainMatrix(rows, (n, n - 1), QQ).rank()
    d = arith.d
    rows = []
    for i in range(n):
        top, bottom = [], []
        for j in range(n - 1):
            a, b = columns[j][i]
            top += [a, d * b]
            bottom += [b, a]
        rows.append(top)
        rows.append(bottom)
    qq_rows = [[QQ(x.numerator, x.denominator) for x in row] for row in rows]
    rank = DomainMatrix(qq_rows, (2 * n, 2 * (n - 1)), QQ).rank()
    if rank % 2:
        raise ArithmeticError("restriction of scalars gave an odd rank")
    return (n - 1) - rank // 2


def in_kernel(arith: Arith, f, p) -> bool:
    """deg p <= n - 2 and f | f''p - f'p'."""
    if len(p) > len(f) - 2:
        return False
    f1 = arith.pderiv(f)
    f2 = arith.pderiv(f1)
    return not arith.pmod(arith.psub(arith.pmul(f2, p), arith.pmul(f1, arith.pderiv(p))), f)


def canonical_form_problems(basis) -> list[str]:
    """Problems with the echelon shape: pivot = lowest nonzero coefficient,
    equal to 1, pivots strictly increasing, zero in the other rows."""
    problems = []
    pivots = []
    for k, p in enumerate(basis):
        nonzero = [j for j, c in enumerate(p) if c != (ZERO, ZERO)]
        if not nonzero:
            problems.append(f"basis member {k} is zero")
            return problems
        pivot = nonzero[0]
        if p[pivot] != (ONE, ZERO):
            problems.append(f"basis member {k} has pivot {p[pivot]} at x^{pivot}, not 1")
        if pivots and pivot <= pivots[-1]:
            problems.append(f"basis pivots not increasing at member {k}")
        pivots.append(pivot)
    for k, p in enumerate(basis):
        for other, pivot in enumerate(pivots):
            if other != k and pivot < len(p) and p[pivot] != (ZERO, ZERO):
                problems.append(f"basis member {k} is nonzero at pivot x^{pivot} of member {other}")
    return problems


def check_report(d: int | None, roots, leading, report: dict) -> list[str]:
    """Every way ``report`` is wrong for the input; empty when it is right.

    ``roots`` holds ((a, b), mult) pairs and ``leading`` an (a, b) pair.
    ``report`` has "dim", "case", "basis" (wire scalars, constant term
    first) and optionally the grouping numbers "degree", "n1", "n2", "N3",
    "r", "mu", the per-route dims "dims" and the flag "routes_agree".
    """
    arith = Arith(d)
    problems = []
    g = grouping(roots)
    for key, value in g.items():
        if key in report and report[key] != value:
            problems.append(f"{key} is {report[key]}, expected {value}")
    for route, value in report.get("dims", {}).items():
        if value is not None and value != report["dim"]:
            problems.append(f"{route} route dim is {value}, reported dim {report['dim']}")
    if report.get("routes_agree", True) is not True:
        problems.append("routes_agree is not true")
    expected_case = case_tag(g)
    if report["case"] != expected_case:
        problems.append(f"case is {report['case']}, expected {expected_case}")
    f = expand(arith, roots, leading)
    dim = kernel_dimension(arith, f)
    if report["dim"] != dim:
        problems.append(f"dim is {report['dim']}, expected {dim}")
    try:
        basis = [arith.trim(scalar_from_wire(c) for c in p) for p in report["basis"]]
    except (ValueError, IndexError, TypeError, ZeroDivisionError) as err:
        return problems + [f"unreadable basis: {err}"]
    if len(basis) != dim:
        problems.append(f"basis has {len(basis)} members, expected {dim}")
    for k, p in enumerate(basis):
        if not in_kernel(arith, f, p):
            problems.append(f"basis member {k} is not in W(f)")
    return problems + canonical_form_problems(basis)
