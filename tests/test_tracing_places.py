"""The benchmark's layer tracer still finds every function it wraps.

``wfbench/tracing.py`` wraps each layer under every name its callers read it
from ("module:attribute" or "module.Class:attribute").  A refactor that drops
one of those names passes every other test and only fails a traced benchmark
run, so this test reads the tracer's tables (the file is loaded, not changed)
and resolves each place the way the tracer does: through ``tracing._owner``
and the owner's ``__dict__``.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "wfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("wfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
PLACES = [place for _, places in tracing.SPANS for place in places]
MODULES = {place.split(":")[0].partition(".")[0] for place in PLACES} | {"fields"}


@pytest.fixture(scope="module")
def mods():
    return {name: importlib.import_module(f"wfdim.{name}") for name in MODULES}


@pytest.mark.parametrize("place", PLACES)
def test_every_span_place_resolves(mods, place):
    owner, attr = tracing._owner(mods, place)
    assert attr in owner.__dict__, f"{place} is gone: the tracer cannot wrap it"
    assert callable(owner.__dict__[attr])


def test_counted_spans_and_scalar_operations_exist(mods):
    names = {name for name, _ in tracing.SPANS}
    assert set(tracing.COUNTED) <= names
    scalar = mods["fields"].ExactScalar
    for _, attrs in tracing.FIELD_OPS:
        for attr in attrs:
            assert callable(scalar.__dict__.get(attr)), f"ExactScalar.{attr} is gone"
