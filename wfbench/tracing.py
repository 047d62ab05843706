"""Per-layer spans and counts, recorded from outside the package.

A layer's entry point is wrapped in every namespace its callers read it
from: ``classify.wf_kernel`` is the name ``classify`` calls, while the
oracle's own ``WfKernel`` reads ``oracle.wf_contains``.  Methods are wrapped
on their class.  ``patched`` installs the wrappers and puts the originals
back when the block ends, so untraced ops run the package untouched.

Two kinds of wrapper, used in separate passes so that counting costs no
span time:

* ``SpanRecorder``: inclusive time and self time per layer.  Self
  time is a span's duration minus the durations of its child spans.
* ``Counter``: calls into the layers in COUNTED, scalar operations in
  ``fields``, and the size of every ``linalg.rref`` input (entries, and the
  largest numerator or denominator bit length among them).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# (span name, places the function is looked up: "module:attribute" or
# "module.Class:attribute").
SPANS = (
    ("classify", ("classify:classify", "cli:classify")),
    ("oracle.wf_kernel", ("classify:wf_kernel", "cli:wf_kernel")),
    ("oracle.wf_contains", ("oracle:wf_contains", "bridge:wf_contains")),
    ("bridge.structural_kernel", ("classify:structural_kernel",)),
    ("bridge.group_roots", ("classify:group_roots", "bridge:group_roots")),
    ("bridge.to_z_problem", ("classify:to_z_problem", "bridge:to_z_problem")),
    ("bridge.attach_multiple_part", ("bridge:attach_multiple_part",)),
    ("zspace.z_report", ("classify:z_report", "bridge:z_report", "zspace:z_report")),
    ("linalg.rref", ("linalg:rref",)),
    ("linalg.canonical_rows", ("linalg:canonical_rows",)),
    ("poly.expand", ("poly.FactoredInput:expand",)),
    ("poly.mod", ("poly.Poly:__mod__",)),
    ("jsonio.parse", ("jsonio:parse_input_spec",)),
    ("jsonio.emit", ("jsonio:canonical_json",)),
    ("cli.build_dim_report", ("cli:build_dim_report",)),
)

# Spans whose calls the Counter counts.
COUNTED = ("oracle.wf_contains", "bridge.to_z_problem", "poly.expand", "poly.mod",
           "linalg.rref", "bridge.group_roots", "zspace.z_report", "linalg.canonical_rows")

# Scalar operations counted on ExactScalar.  ``__rsub__`` and
# ``__truediv__`` delegate to ``__sub__`` and to ``inverse`` plus a
# multiplication, so each operation is counted once.
FIELD_OPS = (
    ("add", ("__add__", "__radd__", "__sub__")),
    ("mul", ("__mul__", "__rmul__")),
    ("div", ("inverse",)),
)


def _owner(mods: dict, place: str):
    path, attr = place.split(":")
    module, _, cls = path.partition(".")
    owner = mods[module]
    return (getattr(owner, cls) if cls else owner), attr


@contextmanager
def patched(replacements):
    """Set each (owner, attribute, value); restore the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


class SpanRecorder:
    """Inclusive seconds and self seconds for every span in SPANS."""

    def __init__(self, mods: dict):
        self.seconds = {name: 0.0 for name, _ in SPANS}
        self.self_seconds = {name: 0.0 for name, _ in SPANS}
        self._child_time: list[float] = []
        self.replacements = []
        for name, places in SPANS:
            owners = [_owner(mods, place) for place in places]
            first_owner, first_attr = owners[0]
            wrapper = self._wrap(name, first_owner.__dict__[first_attr])
            self.replacements += [(owner, attr, wrapper) for owner, attr in owners]

    def _wrap(self, name, fn):
        stack = self._child_time
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                self.seconds[name] += duration
                self.self_seconds[name] += duration - children

        return span


def _bits(x) -> int:
    return max(x.a.numerator.bit_length(), x.a.denominator.bit_length(),
               x.b.numerator.bit_length(), x.b.denominator.bit_length())


class Counter:
    """Counts of calls into the layers, of scalar operations and of rref
    input sizes."""

    def __init__(self, mods: dict):
        self.calls = {name: 0 for name in COUNTED}
        self.field_ops = {name: 0 for name, _ in FIELD_OPS}
        self.rref_entries = 0
        self.rref_max_bits = 0
        self.replacements = []
        for name, places in SPANS:
            if name not in COUNTED:
                continue
            owners = [_owner(mods, place) for place in places]
            first_owner, first_attr = owners[0]
            fn = first_owner.__dict__[first_attr]
            wrapper = self._measure(fn) if name == "linalg.rref" else self._count(
                self.calls, name, fn)
            self.replacements += [(owner, attr, wrapper) for owner, attr in owners]
        scalar = mods["fields"].ExactScalar
        for name, attrs in FIELD_OPS:
            for attr in attrs:
                self.replacements.append(
                    (scalar, attr, self._count(self.field_ops, name, scalar.__dict__[attr])))

    @staticmethod
    def _count(counts, name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _measure(self, fn):
        def measured(rows):
            self.calls["linalg.rref"] += 1
            if rows:
                self.rref_entries += len(rows) * len(rows[0])
                self.rref_max_bits = max(self.rref_max_bits,
                                         max((_bits(x) for row in rows for x in row), default=0))
            return fn(rows)

        return measured
