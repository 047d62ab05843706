"""
The quartic-interpolation regime and its certified families
===========================================================

Inputs with four simple roots and r = 4 sit between the closed-form regimes:
the associated 4 x 5 matrix can only lose rank if every 4 x 4 minor vanishes.
Certified families make one DROPPED-node problem singular — a monic cubic g
whose roots carry vanishing node data next to a fixed multiple-root shape —
but the node-removal identity shows the full dimension is 1 + min over ALL
dropped nodes, and some dropped problem always stays nonsingular.  So every
member classifies to dimension 1, never 2.
"""

from wfdim import Field, Poly, classify
from wfdim.approx import certified_family_dimension
from wfdim.classify import exceptional_cubics
from wfdim.bridge import to_z_problem
from wfdim.poly import FactoredInput
from wfdim.zspace import drop_node, min_drop_dimension, z_report

RATIONALS = Field.rationals()
families = exceptional_cubics()

for fam in families:
    print(f"family: {fam.label}")
    print(f"  multiple-root shape: {fam.multiple_roots}")
    print(f"  certified cubic: {fam.cubic_poly(RATIONALS)}")
    a, b, canon, d = fam.eigen
    quadratic = Poly(RATIONALS, (d, canon, 1))
    linear = Poly(RATIONALS, (b, a))
    print(f"  eigen identity: ({quadratic})g'' + ({linear})g'"
          f" = {fam.eigen_scale}g")

    if fam.field is None:
        # The third family's cubic has no roots in any quadratic extension;
        # its members are checked on the certified floating backend instead,
        # at 256 bits with a 512-bit cross-check.
        dim, crosschecked = certified_family_dimension(
            fam, extra_simple_roots=(2,), precision_bits=256,
            crosscheck_bits=512)
        print(f"  extended member dimension (approximate, cross-checked):"
              f" {dim} / {crosschecked}")
        print()
        continue

    # The exact families: extend with one extra simple root and classify.
    base = fam.factored()
    extended = FactoredInput(field=base.field,
                             roots=base.roots + ((base.field.scalar(2), 1),),
                             leading=base.field.one())
    report = classify(extended)
    print(f"  extended member over {base.field!r}: dim {report.dimension}"
          f"  (mu = {report.grouping.mu}, case {report.case_tag})")

    # The designed singular drop is visible — and so is the nonsingular one
    # that keeps the dimension at 1.
    problem = to_z_problem(report.grouping)
    dims = [z_report(drop_node(problem, i)).dimension for i in range(problem.s)]
    print(f"  dropped-node dims {dims}  ->  1 + min = "
          f"{min_drop_dimension(problem)}")
    print()
