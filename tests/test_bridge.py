"""Reduction from the divisibility kernel to a node-interpolation problem."""

from __future__ import annotations

import random

import pytest

from reduction_helpers import multiplicity_reduction_check, strip_multiple_part
from wfdim import DegreeTooSmallError, Field, NoSimpleRootsError, PoleError, Poly
from wfdim.bridge import (attach_multiple_part, d_at, delta_vector, group_roots,
                          structural_kernel, to_z_problem)
from wfdim.corpus import random_factored_input
from wfdim.errors import NotDivisibleError
from wfdim.linalg import canonical_rows
from wfdim.oracle import wf_kernel
from wfdim.poly import FactoredInput
from wfdim.zspace import z_contains

RATIONALS = Field.rationals()


def factored(roots_with_mults, leading=1) -> FactoredInput:
    roots = tuple((RATIONALS.scalar(root), mult) for root, mult in roots_with_mults)
    return FactoredInput(field=RATIONALS, roots=roots,
                         leading=RATIONALS.scalar(leading))


# -- root grouping -----------------------------------------------------------------


def test_grouping_counts_by_multiplicity_class():
    g = group_roots(factored([(0, 4), (1, 1), (2, 2)]))
    assert g.n1 == 1 and g.n2 == 1 and g.N3 == 1
    assert g.n == 7
    assert g.r == 7 - 2 - (1 + 2)
    assert g.mu == g.r + 1 - g.n1


def test_grouping_rejects_low_degree():
    with pytest.raises(DegreeTooSmallError):
        group_roots(factored([(0, 3)]))


def test_simple_and_multiple_parts_factor_the_input():
    multiple = group_roots(factored([(0, 4), (1, 1), (2, 2)])).multiple_part
    expected_multiple = (Poly.from_roots(RATIONALS, [RATIONALS.scalar(2)])
                         * Poly.from_roots(RATIONALS, [RATIONALS.scalar(0)]) ** 2)
    assert multiple == expected_multiple


# -- node data ----------------------------------------------------------------------


def test_node_datum_on_a_hand_example():
    g = group_roots(factored([(0, 4), (1, 1)]))
    assert d_at(g, RATIONALS.scalar(1)) == RATIONALS.scalar(6)
    assert delta_vector(g) == (RATIONALS.scalar(6),)


def test_node_datum_sums_over_the_other_roots():
    g = group_roots(factored([(0, 4), (1, 1), (2, 2), (3, 1)]))
    expected = (RATIONALS.scalar(2) / RATIONALS.scalar(1 - 3)
                + RATIONALS.scalar(3) / RATIONALS.scalar(1 - 2)
                + RATIONALS.scalar(6) / RATIONALS.scalar(1 - 0))
    assert d_at(g, RATIONALS.scalar(1)) == expected


def test_node_datum_has_poles_at_multiple_roots():
    g = group_roots(factored([(0, 4), (1, 1)]))
    with pytest.raises(PoleError):
        d_at(g, RATIONALS.scalar(0))
    with pytest.raises(ValueError):
        d_at(g, RATIONALS.scalar(7))


# -- stripping and attaching the fixed factor ------------------------------------------


def test_kernel_members_strip_and_reattach():
    rng = random.Random("bridge-strip")
    for _ in range(20):
        g = group_roots(random_factored_input(rng, RATIONALS, max_degree=8))
        for p in wf_kernel(g.f).basis:
            cofactor = strip_multiple_part(g, p)
            assert attach_multiple_part(g, cofactor) == p
            assert multiplicity_reduction_check(g, p)


def test_stripping_rejects_non_members():
    g = group_roots(factored([(0, 4), (1, 1)]))
    with pytest.raises(NotDivisibleError):
        strip_multiple_part(g, Poly(RATIONALS, (1, 1)))


# -- the interpolation problem ----------------------------------------------------------


def test_problem_carries_the_node_data_and_cap():
    g = group_roots(factored([(0, 4), (1, 1)]))
    z = to_z_problem(g)
    assert z.omega == (RATIONALS.scalar(1),)
    assert z.eta == (RATIONALS.scalar(6),)
    assert z.k == g.r


def test_problem_requires_a_simple_root():
    with pytest.raises(NoSimpleRootsError):
        to_z_problem(group_roots(factored([(0, 5)])))


def test_stripped_kernel_members_solve_the_interpolation_problem():
    rng = random.Random("bridge-members")
    seen_nonzero = 0
    for _ in range(25):
        g = group_roots(random_factored_input(rng, RATIONALS, max_degree=8))
        if g.n1 == 0:
            continue
        z = to_z_problem(g)
        for p in wf_kernel(g.f).basis:
            assert z_contains(z, strip_multiple_part(g, p))
            seen_nonzero += 1
    assert seen_nonzero > 0


def test_structural_route_agrees_with_the_brute_force_kernel():
    rng = random.Random("bridge-structural")
    for _ in range(30):
        fi = random_factored_input(rng, RATIONALS, max_degree=9)
        dim, basis = structural_kernel(group_roots(fi))
        oracle = wf_kernel(fi.expand())
        assert dim == oracle.dimension
        ncols = fi.degree - 1
        assert (canonical_rows([p.padded(ncols) for p in basis], ncols, RATIONALS)
                == canonical_rows([p.padded(ncols) for p in oracle.basis],
                                  ncols, RATIONALS))
