"""Brute-force kernel of the divisibility condition f | f''p - f'p'."""

from __future__ import annotations

import random

import pytest

from wfdim import DegreeTooSmallError, Field, Poly
from wfdim.corpus import random_factored_input
from wfdim.linalg import canonical_rows
from wfdim.oracle import wf_contains, wf_form, wf_kernel

RATIONALS = Field.rationals()


def expand(roots_with_mults) -> Poly:
    points = [RATIONALS.scalar(root) for root, mult in roots_with_mults
              for _ in range(mult)]
    return Poly.from_roots(RATIONALS, points)


def test_the_form_is_the_advertised_combination():
    f = expand([(0, 4), (1, 1)])
    p = Poly(RATIONALS, (3, 1, 2))
    direct = f.derivative().derivative() * p - f.derivative() * p.derivative()
    assert wf_form(f, p) == direct


def test_membership_on_hand_checked_examples():
    quartic = expand([(0, 4)])
    assert wf_contains(quartic, Poly(RATIONALS, (0, 0, 1)))
    assert not wf_contains(quartic, Poly(RATIONALS, (0, 1)))
    quintic = expand([(0, 5)])
    assert wf_contains(quintic, Poly(RATIONALS, (0, 0, 1)))
    assert wf_contains(quintic, Poly(RATIONALS, (0, 0, 0, 1)))


def test_members_beyond_the_degree_cap_are_rejected():
    f = expand([(0, 4)])
    assert not wf_contains(f, Poly(RATIONALS, (0, 0, 0, 1)))


def test_kernel_of_a_pure_power_quartic():
    report = wf_kernel(expand([(0, 4)]))
    assert report.dimension == 1
    assert [str(p) for p in report.basis] == ["x^2"]


def test_kernel_of_a_pure_power_quintic():
    report = wf_kernel(expand([(0, 5)]))
    assert report.dimension == 2
    assert [str(p) for p in report.basis] == ["x^2", "x^3"]


def test_kernel_of_a_squared_quadratic():
    report = wf_kernel(expand([(1, 2), (-1, 2)]))
    assert report.dimension == 1
    assert [str(p) for p in report.basis] == ["-x^2 + 1"]


def test_squarefree_inputs_have_trivial_kernels():
    report = wf_kernel(expand([(0, 1), (1, 1), (2, 1), (3, 1)]))
    assert report.dimension == 0 and report.basis == ()


def test_low_degree_inputs_are_rejected():
    with pytest.raises(DegreeTooSmallError):
        wf_kernel(expand([(0, 3)]))


def test_every_reported_basis_member_passes_the_divisibility_check():
    rng = random.Random("oracle-members")
    for _ in range(25):
        fi = random_factored_input(rng, RATIONALS, max_degree=8)
        f = fi.expand()
        report = wf_kernel(f)
        assert report.dimension == len(report.basis)
        for p in report.basis:
            assert wf_contains(f, p)
            assert p.degree <= fi.degree - 2


def test_the_kernel_basis_is_already_canonical():
    rng = random.Random("oracle-canonical")
    for _ in range(10):
        fi = random_factored_input(rng, RATIONALS, max_degree=7)
        report = wf_kernel(fi.expand())
        ncols = fi.degree - 1
        vectors = [p.padded(ncols) for p in report.basis]
        assert canonical_rows(vectors, ncols, RATIONALS) == vectors
