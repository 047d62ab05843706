"""The self-verification driver: named property suites over seeded streams."""

from __future__ import annotations

import pytest

from wfdim.suites import SUITE_NAMES, run_suites


def test_the_expected_suites_are_registered():
    assert SUITE_NAMES == ("scalar_field", "poly_core", "wspace_oracle", "zspace",
                           "reduction_bridge", "constructions", "classifier", "cli")


def test_unknown_names_are_rejected():
    with pytest.raises(ValueError):
        run_suites(("scalar_field", "imaginary"))


def test_fast_suites_pass_and_report_counts():
    results = run_suites(("scalar_field", "poly_core", "cli"), seed=0)
    assert [result.name for result in results] == ["scalar_field", "poly_core", "cli"]
    for result in results:
        assert result.ok and result.failed == 0 and result.passed > 0


def test_classifier_suite_respects_the_corpus_size():
    small = run_suites(("classifier",), seed=0, corpus_size=12)[0]
    assert small.ok
    smaller = run_suites(("classifier",), seed=0, corpus_size=5)[0]
    assert smaller.ok
    assert small.passed > smaller.passed


def test_suite_streams_are_reproducible_per_name():
    first = run_suites(("zspace",), seed=7)[0]
    second = run_suites(("zspace",), seed=7)[0]
    assert (first.passed, first.failed) == (second.passed, second.failed)
    shifted = run_suites(("zspace",), seed=8)[0]
    assert shifted.ok
