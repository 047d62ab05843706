"""Benchmark of wfdim's classify / ``wfdim dim`` path.

    python3 wfbench/run.py --workload corpus-q --seed 0 --seconds 24 --trace 0

One client calls the package in a closed loop from this process, on one
thread: the next input is sent when the previous result is back.  The
package is imported from ``src/`` of the checkout this file sits in.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics, per op: counts from the first round with counting
wrappers, span times from further rounds with every layer wrapped
(``tracing.py``).  ``--workload all`` runs the three workloads in turn, each
in a child process of its own.

End-to-end times are rescaled to a fixed machine speed with a reference
kernel run between ops (``speed.py``); the wall times are printed too.

Every output is checked by ``checker.py``, which imports no wfdim, outside
the timed region.  The digest of the first round's outputs must match
``digests.json`` when that file holds one for the seed.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads
from speed import REF_S, Speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"

# Modules on the classify / dim path, by the names tracing.SPANS uses.
LAYERS = ("fields", "poly", "linalg", "oracle", "bridge", "zspace", "classify", "jsonio", "cli")
# Set-up is repeated and its median reported: one set-up takes tens of
# milliseconds, too short to read steadily once.
SETUP_REPS = 21


class BenchError(Exception):
    """The benchmark cannot run here: no wfdim package in this checkout."""


# -- set-up -------------------------------------------------------------------------


def load_package() -> dict:
    """Import wfdim afresh from this checkout's src/ and return its layers."""
    if not (SRC / "wfdim" / "__init__.py").is_file():
        raise BenchError(f"no wfdim package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "wfdim" or m.startswith("wfdim.")]:
        del sys.modules[name]
    package = importlib.import_module("wfdim")
    if Path(package.__file__).resolve().parent != (SRC / "wfdim").resolve():
        raise BenchError(f"imported wfdim from {package.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"wfdim.{name}") for name in LAYERS}
    mods["wfdim"] = package
    return mods


def make_op(workload: workloads.Workload, mods: dict):
    """(op, convert): ``op`` is the timed call on one input, ``convert``
    reads its output into the fields the checker reads.  Layer functions
    are looked up on their modules at call time, so the tracer's wrappers
    are seen.  The program's input (JSON spec bytes, or a FactoredInput) is
    built inside the op, so work a change moves into its constructor is
    still timed."""
    if workload.via_json:
        jsonio, cli = mods["jsonio"], mods["cli"]

        def op(inp):
            spec = workloads.to_spec(inp)
            return jsonio.canonical_json(cli.build_dim_report(jsonio.parse_input_spec(spec)))

        return op, workloads.envelope_output
    wfdim, classify = mods["wfdim"], mods["classify"]
    fields = workloads.fields(wfdim)

    def op(inp):
        return classify.classify(workloads.to_factored(inp, wfdim, fields[inp.d]))

    return op, workloads.report_output


# -- outcomes -------------------------------------------------------------------------


@dataclass
class Outcomes:
    """Each op's input and output, for the checker after the timed region.
    An output is kept as zlib-compressed JSON, so that holding a whole run's
    outputs adds little to peak_rss_mb; it is None when the op raised or its
    output could not be read."""

    log: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    rejected: dict = field(default_factory=dict)

    def record(self, inp: workloads.Input, result, convert) -> None:
        if not isinstance(result, Exception):
            result = call(convert, result)
        if isinstance(result, Exception):
            self.log.append((inp, None))
            self.errors.append(f"input {inp}: {type(result).__name__}: {result}")
            return
        self.log.append((inp, zlib.compress(json.dumps(result).encode())))

    def outputs(self):
        """(position in the log, input, output) of every op that returned."""
        for i, (inp, blob) in enumerate(self.log):
            if blob is not None:
                yield i, inp, json.loads(zlib.decompress(blob))

    def failed(self) -> int:
        """Ops that raised or whose output the checker rejected."""
        return sum(1 for i, (_, blob) in enumerate(self.log)
                   if blob is None or i in self.rejected)


def call(op, request):
    """Run one op; an exception is a result to record, not a crash."""
    try:
        return op(request)
    except Exception as err:  # noqa: BLE001 - every failure is counted, the loop goes on
        return err


# -- timed runs ------------------------------------------------------------------------


@dataclass
class Run:
    name: str
    seed: int
    workload: workloads.Workload
    mods: dict
    op: object
    convert: object
    setup_s: float
    speed: Speed
    outcomes: Outcomes = field(default_factory=Outcomes)
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def run_round(self, inputs, spans: list, speed: Speed | None = None) -> None:
        """Send each input once, appending each op's (start, end) to
        ``spans``; with ``speed``, run the reference kernel after each op."""
        clock = time.perf_counter
        for inp in inputs:
            t0 = clock()
            result = call(self.op, inp)
            t1 = clock()
            spans.append((t0, t1))
            self.outcomes.record(inp, result, self.convert)
            if speed is not None:
                speed.after(t0, t1)


def busy(spans) -> float:
    """Seconds spent in the ops of ``spans``."""
    return sum(end - start for start, end in spans)


def set_up(name: str, seed: int) -> Run:
    """Import the package, build its fields and draw the workload's warm-up
    and first round, SETUP_REPS times, with the reference kernel run after
    each; setup_s is the median time, rescaled by the kernel's speed over
    the set-up, and the run uses the last."""
    speed = Speed()
    speed.sample(0.1)
    begin = time.perf_counter()
    spans = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        mods = load_package()
        workload = workloads.build(name, seed)
        op, convert = make_op(workload, mods)
        spans.append((start, time.perf_counter()))
        gc.collect()  # frees the previous import's modules, outside the timing
        speed.after(*spans[-1])
    wall = statistics.median(end - start for start, end in spans)
    run = Run(name, seed, workload, mods, op, convert,
              wall * speed.factor(begin, time.perf_counter()), speed)
    run.notes.append(f"setup_s wall {wall:.6g} s")
    return run


def warm_up(run: Run) -> None:
    for inp in run.workload.warmup:
        call(run.op, inp)
        run.speed.sample(0.02)


def tail(latencies: list, percentile: int) -> tuple[float, int]:
    """Latency at ``percentile`` and how many samples lie beyond it."""
    value = statistics.quantiles(latencies, n=100, method="inclusive")[percentile - 1]
    return value, sum(1 for x in latencies if x > value)


def time_metrics(spans: list, percentile: int, scale: float = 1.0) -> dict:
    """ops_per_s (ops per second of op time), op_ms_p50 and op_ms_tail,
    with each op's seconds multiplied by ``scale``."""
    times = [scale * (end - start) for start, end in spans]
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms_p50": (1000 * statistics.median(times), "ms"),
        "op_ms_tail": (1000 * tail(times, percentile)[0], "ms"),
    }


def measure(run: Run, seconds: float) -> None:
    """End-to-end metrics: send fresh rounds until ``seconds`` pass, then
    finish the round, so every run measures whole rounds.  Op times are
    rescaled by the reference kernel's speed over the timed loop."""
    warm_up(run)
    spans, rounds = [], 0
    start = time.perf_counter()
    inputs = run.workload.first
    while True:
        run.run_round(inputs, spans, run.speed)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
        inputs = run.workload.next_round()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    percentile = run.workload.tail_percentile
    end = time.perf_counter()
    scale = run.speed.factor(start, end)
    run.metrics = {
        **time_metrics(spans, percentile, scale),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (run.setup_s, "s"),
    }
    wall = time_metrics(spans, percentile)
    beyond = tail([e - s for s, e in spans], percentile)[1]
    run.notes.append(f"{len(spans)} ops in {rounds} rounds, {end - start:.2f} s; op_ms_tail is "
                     f"p{percentile} over {len(spans)} samples, {beyond} beyond it")
    run.notes.append(f"reference kernel: {1000 * REF_S / scale:.4g} ms (mean of "
                     f"{len(run.speed.times)} runs); times are rescaled to {1000 * REF_S:.4g} ms, "
                     f"by {scale:.4f}")
    run.notes.append("wall " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in wall.items()))
    if beyond < 10:
        run.notes.append(f"warning: only {beyond} samples beyond p{percentile}")


def count_layers(run: Run) -> None:
    """Per-op counts over the first round, run once with counting wrappers:
    calls into the layers, scalar operations, rref sizes.  They repeat
    exactly for a given seed."""
    counter = tracing.Counter(run.mods)
    with tracing.patched(counter.replacements):
        run.run_round(run.workload.first, [])
    ops = run.workload.round_size
    for name, count in counter.calls.items():
        run.metrics[f"{name}.calls"] = (count / ops, "count/op")
    run.metrics["linalg.rref.entries"] = (counter.rref_entries / ops, "count/op")
    run.metrics["linalg.rref.max_bits"] = (counter.rref_max_bits, "bits")
    for name, count in counter.field_ops.items():
        run.metrics[f"fields.{name}.calls"] = (count / ops, "count/op")


def time_layers(run: Run, seconds: float) -> None:
    """Per-op span times, and the tracing overhead.  Two fresh rounds at a
    time: each input of one runs untraced next to the input of the same
    profile from the other, traced, which one goes first alternating, until
    ``seconds`` pass.  So the two kinds see the same mix of inputs and the
    same drift of the machine's speed."""
    spans = tracing.SpanRecorder(run.mods)
    untraced, traced = [], []
    rounds = 0
    start = time.perf_counter()
    while True:
        plain = sorted(run.workload.next_round(), key=workloads.profile)
        wrapped = sorted(run.workload.next_round(), key=workloads.profile)
        rounds += 2
        for a, b in zip(plain, wrapped):
            steps = [(a, untraced, nullcontext()), (b, traced, tracing.patched(spans.replacements))]
            if len(traced) % 2:
                steps.reverse()
            for inp, times, context in steps:
                with context:
                    run.run_round((inp,), times)
        if time.perf_counter() - start >= seconds:
            break
    ops = len(traced)
    m = run.metrics
    for name in ("oracle.wf_contains", "bridge.to_z_problem", "poly.expand", "poly.mod",
                 "linalg.rref"):
        m[f"{name}.s"] = (spans.seconds[name] / ops, "s/op")
    for name in ("classify", "oracle.wf_kernel", "bridge.structural_kernel",
                 "bridge.attach_multiple_part", "zspace.z_report", "cli.build_dim_report"):
        m[f"{name}.self_s"] = (spans.self_seconds[name] / ops, "s/op")
    m["jsonio.parse.s"] = (spans.seconds["jsonio.parse"] / ops, "s/op")
    m["jsonio.emit.s"] = (spans.seconds["jsonio.emit"] / ops, "s/op")
    untraced_rate = len(untraced) / busy(untraced)
    traced_rate = ops / busy(traced)
    m["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    m["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    m["trace.overhead_ops_per_s"] = (untraced_rate - traced_rate, "1/s")
    m["trace.overhead_frac"] = (1 - traced_rate / untraced_rate, "frac")
    run.notes.append(f"counts over the first {run.workload.round_size} inputs; spans over "
                     f"{ops} traced ops, against {len(untraced)} untraced ops, in {rounds} rounds")


def trace(run: Run, seconds: float) -> None:
    """Per-layer metrics: counts first, on the first round, then times."""
    warm_up(run)
    count_layers(run)
    time_layers(run, seconds)


# -- checks ------------------------------------------------------------------------------


def digest(run: Run) -> str:
    """sha256 over the outputs of the first round, which every run covers."""
    outputs = {inp: out for _, inp, out in run.outcomes.outputs()}
    h = hashlib.sha256()
    for inp in run.workload.first:
        material = workloads.digest_material(outputs[inp]) if inp in outputs else "no output"
        h.update(material.encode() + b"\n")
    return h.hexdigest()


def stored_digest(name: str, seed: int) -> str | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))


def reject(run: Run) -> None:
    """Run the checker on every output."""
    import checker  # sympy is imported only after the timed region

    for i, inp, out in run.outcomes.outputs():
        problems = checker.check_report(inp.d, inp.roots, inp.leading, out)
        if problems:
            run.outcomes.rejected[i] = problems


def check(run: Run) -> bool:
    """Check every output and compare the digest; True when clean."""
    reject(run)
    ok = True
    found, wanted = digest(run), stored_digest(run.name, run.seed)
    run.notes.append(f"digest of the first {run.workload.round_size} outputs: {found}")
    if wanted is not None and found != wanted:
        run.notes.append(f"digest mismatch: digests.json has {wanted}")
        ok = False
    for i, problems in list(run.outcomes.rejected.items())[:5]:
        run.notes.append(f"rejected input {run.outcomes.log[i][0]}: {'; '.join(problems[:3])}")
    run.notes += run.outcomes.errors[:5]
    return ok and run.outcomes.failed() == 0


# -- command line ---------------------------------------------------------------------------


def finish(run: Run) -> dict:
    """Check the run, add ok_frac, print its lines; return the result line."""
    correct = check(run)
    attempted = len(run.outcomes.log)
    failed = run.outcomes.failed()
    if "ops_per_s" in run.metrics:
        run.metrics["ok_frac"] = ((attempted - failed) / attempted, "frac")
    print(f"workload {run.name} seed {run.seed}: attempted {attempted}, failed {failed} "
          f"(failed_frac {failed / attempted:.6f}), correct {correct}")
    for note in run.notes:
        print(f"  {note}")
    for metric, (value, unit) in run.metrics.items():
        print(f"  {metric:34s} {value:14.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()}}


def run_all(args) -> int:
    """Each workload in a child process of its own, so that peak_rss_mb is
    that workload's alone.  The children's lines are passed on and their
    result lines merged, each metric named with its workload as prefix."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            return child.returncode
        *lines, last = child.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        run = set_up(args.workload, args.seed)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.trace:
        trace(run, args.seconds)
    else:
        measure(run, args.seconds)
    print(json.dumps(finish(run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
