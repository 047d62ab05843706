"""Arbitrary-precision floating backend and its agreement with exact results."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

import wfdim
from wfdim import Field, classify
from wfdim.approx import (approx_rank, certified_family_dimension,
                          cubic_roots_approx, embed_to_approx,
                          wf_dimension_approx, z_dimension_approx)
from wfdim.bridge import group_roots, to_z_problem
from wfdim.classify import exceptional_cubics
from wfdim.corpus import random_factored_input
from wfdim.zspace import z_report

RATIONALS = Field.rationals()


def test_rank_sees_through_badly_scaled_rows():
    with mpmath.workprec(128):
        huge = mpmath.mpf(10) ** 12
        tiny = mpmath.mpf(10) ** -12
        rows = [[huge, huge], [tiny, -tiny]]
        assert approx_rank(rows) == 2
        rows = [[huge, huge], [tiny, tiny]]
        assert approx_rank(rows) == 1


def test_zero_and_empty_matrices_have_rank_zero():
    assert approx_rank([]) == 0
    with mpmath.workprec(64):
        assert approx_rank([[mpmath.mpf(0), mpmath.mpf(0)]]) == 0


def test_dimension_backend_agrees_with_the_exact_kernel():
    rng = random.Random("approx-agree")
    for _ in range(12):
        fi = random_factored_input(rng, RATIONALS, max_degree=7)
        roots = [(embed_to_approx(root), mult) for root, mult in fi.roots]
        assert wf_dimension_approx(roots) == classify(fi).dimension


def test_interpolation_backend_agrees_with_the_exact_reports():
    rng = random.Random("approx-zdim")
    for _ in range(12):
        fi = random_factored_input(rng, RATIONALS, max_degree=7)
        if all(mult > 1 for _, mult in fi.roots):
            continue
        problem = to_z_problem(group_roots(fi))
        eta = [embed_to_approx(e) for e in problem.eta]
        omega = [embed_to_approx(w) for w in problem.omega]
        assert z_dimension_approx(eta, omega, problem.k) == z_report(problem).dimension


def test_cubic_roots_solve_the_cubic():
    coeffs = [Fraction(-2, 33), Fraction(6, 11), Fraction(-15, 11), Fraction(1)]
    roots = cubic_roots_approx(coeffs, precision_bits=192)
    assert len(roots) == 3
    with mpmath.workprec(192):
        for root in roots:
            value = sum(mpmath.mpmathify(str(c)) * root**j
                        for j, c in enumerate(coeffs))
            assert abs(value) < mpmath.mpf(2) ** -120


def test_certified_families_all_land_on_unit_dimension():
    for fam in exceptional_cubics():
        dim, crosschecked = certified_family_dimension(
            fam, extra_simple_roots=(2,), precision_bits=256, crosscheck_bits=512)
        assert (dim, crosschecked) == (1, 1)


_DISAGREEING_PRECISIONS = """
import sys
from wfdim import approx
from wfdim.classify import exceptional_cubics

if __debug__:
    sys.exit("expected to run under python -O")
approx.wf_dimension_approx = lambda roots, bits: bits  # a rank that moves with precision
try:
    result = approx.certified_family_dimension(exceptional_cubics()[0],
                                               precision_bits=64, crosscheck_bits=128)
except AssertionError as err:
    print(err)
    sys.exit(0)
sys.exit(f"returned {result} although the two precisions disagree")
"""


def test_disagreeing_precisions_are_caught_under_python_O():
    src = str(Path(wfdim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-O", "-c", _DISAGREEING_PRECISIONS],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert "rank decisions differ between precisions" in run.stdout
