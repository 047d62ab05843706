"""Interpolation spaces cut out by p'(w_i) = eta_i * p(w_i) under a degree cap."""

from __future__ import annotations

import random

import pytest

from reduction_helpers import affine_transport, transport_member
from wfdim import CoincidentPointsError, Field, Poly
from wfdim.corpus import random_distinct_scalars, random_scalar, random_z_problem
from wfdim.zspace import (ZProblem, associated_matrix, critical_eta, drop_node,
                          min_drop_dimension, z_contains, z_report)

RATIONALS = Field.rationals()
ROOT3 = Field.quadratic(3)


def rational_problem(eta, omega, k) -> ZProblem:
    return ZProblem(eta=tuple(RATIONALS.scalar(e) for e in eta),
                    omega=tuple(RATIONALS.scalar(w) for w in omega), k=k)


# -- the associated matrix ------------------------------------------------------


def test_matrix_of_the_degenerate_two_node_example():
    z = rational_problem(eta=(1, -1), omega=(1, -1), k=2)
    matrix = associated_matrix(z)
    c = RATIONALS.scalar
    assert matrix == [[c(1), c(0), c(-1)], [c(-1), c(0), c(1)]]
    report = z_report(z)
    assert report.rank == 1 and report.dimension == 2 and report.degenerate


def test_matrix_entries_follow_the_row_formula():
    rng = random.Random("zspace-entries")
    for _ in range(20):
        z = random_z_problem(rng, ROOT3, s=rng.randint(1, 4), k=rng.randint(0, 6))
        matrix = associated_matrix(z)
        for i, (eta_i, omega_i) in enumerate(zip(z.eta, z.omega)):
            for j in range(z.k + 1):
                expected = eta_i * omega_i**j - j * omega_i ** max(j - 1, 0)
                assert matrix[i][j] == expected


def test_coincident_nodes_are_rejected():
    with pytest.raises(CoincidentPointsError):
        rational_problem(eta=(0, 0), omega=(1, 1), k=2)


# -- dimension bookkeeping -------------------------------------------------------


def test_dimension_is_the_corank_and_members_check_out():
    rng = random.Random("zspace-derived")
    for _ in range(30):
        z = random_z_problem(rng, RATIONALS, s=rng.randint(1, 4), k=rng.randint(0, 6))
        report = z_report(z)
        assert report.dimension == z.k + 1 - report.rank
        assert report.degenerate == (report.rank < min(z.s, z.k + 1))
        assert len(report.basis) == report.dimension
        for p in report.basis:
            assert z_contains(z, p)


def test_hermite_shaped_caps_give_dimension_equal_to_node_count():
    rng = random.Random("zspace-hermite")
    for _ in range(20):
        s = rng.randint(1, 5)
        z = random_z_problem(rng, RATIONALS, s=s, k=2 * s - 1)
        assert z_report(z).dimension == s


def test_wide_caps_follow_the_affine_dimension_law():
    rng = random.Random("zspace-wide")
    for _ in range(20):
        s = rng.randint(1, 4)
        k = 2 * s - 1 + rng.randint(0, 3)
        z = random_z_problem(rng, RATIONALS, s=s, k=k)
        assert z_report(z).dimension == k + 1 - s


# -- critical node data -----------------------------------------------------------


def test_critical_eta_of_the_symmetric_pair():
    omega = (RATIONALS.scalar(1), RATIONALS.scalar(-1))
    assert critical_eta(omega) == omega


def test_critical_eta_is_the_pairwise_reciprocal_sum():
    rng = random.Random("zspace-critical")
    for _ in range(10):
        omega = random_distinct_scalars(rng, ROOT3, rng.randint(2, 5))
        eta = critical_eta(omega)
        for i, w in enumerate(omega):
            total = ROOT3.zero()
            for j, u in enumerate(omega):
                if j != i:
                    total = total + ROOT3.scalar(2) / (w - u)
            assert eta[i] == total


# -- node removal ------------------------------------------------------------------


def test_dropping_a_node_shrinks_the_problem():
    z = rational_problem(eta=(1, 2, 3), omega=(0, 1, 2), k=4)
    smaller = drop_node(z, 1)
    assert smaller.s == 2 and smaller.k == 2
    assert smaller.omega == (z.omega[0], z.omega[2])


def test_minimum_drop_rule_matches_the_direct_dimension():
    rng = random.Random("zspace-drop")
    for _ in range(40):
        s = rng.randint(2, 5)
        k = rng.randint(s, 2 * s - 1)
        z = random_z_problem(rng, RATIONALS, s=s, k=k)
        assert min_drop_dimension(z) == z_report(z).dimension


def test_minimum_drop_rule_guards_its_range():
    z = rational_problem(eta=(1, 2), omega=(0, 1), k=4)
    with pytest.raises(ValueError):
        min_drop_dimension(z)


# -- affine transport ---------------------------------------------------------------


def test_transport_preserves_dimension_and_maps_members():
    rng = random.Random("zspace-transport")
    for _ in range(15):
        z = random_z_problem(rng, ROOT3, s=rng.randint(1, 3), k=rng.randint(1, 5))
        scale = random_scalar(rng, ROOT3)
        while scale.is_zero():
            scale = random_scalar(rng, ROOT3)
        offset = random_scalar(rng, ROOT3)
        moved = affine_transport(z, scale, offset)
        original = z_report(z)
        assert z_report(moved).dimension == original.dimension
        for p in original.basis:
            assert z_contains(moved, transport_member(p, scale, offset))
