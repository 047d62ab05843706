"""Self-tests of the benchmark.

    python3 -m pytest -q wfbench

The checker must accept the package's outputs and reject wrong ones, a
rejected output must count as a failed op, traced counts must repeat
exactly, the default-seed digest must match digests.json, and the
speed rescaling must read only its own phase's kernel times.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checker
import run
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def first_outputs(name: str, seed: int, count: int):
    r = run.set_up(name, seed)
    return [(inp, r.convert(r.op(inp))) for inp in r.workload.first[:count]]


def times_x(out: dict) -> dict:
    """The first basis member multiplied by x."""
    if not out["basis"]:
        return out
    return {**out, "basis": [[["rat", "0", "1"]] + out["basis"][0]] + out["basis"][1:]}


def dim_off_by_one(out: dict) -> dict:
    return {**out, "dim": out["dim"] + 1}


def test_checker_imports_no_wfdim():
    code = "import sys, checker; print(sorted(m for m in sys.modules if m.split('.')[0] == 'wfdim'))"
    result = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("name,count", [("corpus-q", 12), ("corpus-quad", 12), ("dim-highdeg", 9)])
def test_checker_judges_the_package_outputs(name, count):
    corrupted = 0
    for inp, out in first_outputs(name, 7, count):
        assert checker.check_report(inp.d, inp.roots, inp.leading, out) == []
        assert checker.check_report(inp.d, inp.roots, inp.leading, dim_off_by_one(out))
        if out["basis"]:
            corrupted += 1
            assert checker.check_report(inp.d, inp.roots, inp.leading, times_x(out))
    assert corrupted


@pytest.mark.parametrize("corrupt", [times_x, dim_off_by_one])
def test_a_wrong_output_counts_as_a_failed_op(corrupt):
    r = run.set_up("corpus-q", 3)
    convert = r.convert
    wrong = []

    def corrupting(result):
        out = convert(result)
        bad = corrupt(out)
        wrong.append(bad is not out)
        return bad

    r.convert = corrupting
    run.measure(r, 0)
    result = run.finish(r)
    attempted, failed = result["attempted"], result["failed"]
    assert not result["correct"]
    assert attempted == r.workload.round_size
    assert failed == sum(wrong) > 0
    assert r.metrics["ok_frac"][0] == (attempted - failed) / attempted


def test_rescaling_reads_the_kernel_over_its_phase_only():
    s = speed.Speed()
    s.stamps = [float(t) for t in range(12)]
    s.times = [0.002, 0.004] * 5 + [0.001, 0.001]  # two speeds, then a faster phase
    assert s.factor(0, 9) == pytest.approx(speed.REF_S / 0.003)
    s.sample(0)
    assert len(s.times) == 13 and s.stamps[-1] > 11


def test_inputs_repeat_per_seed_and_never_within_a_run():
    def rounds(seed):
        w = workloads.build("corpus-q", seed)
        return [*w.warmup, *w.first, *w.next_round(), *w.next_round()]

    drawn = rounds(4)
    assert drawn == rounds(4) != rounds(5)
    assert len({(inp.d, frozenset(inp.roots), inp.leading) for inp in drawn}) == len(drawn)


def test_traced_counts_repeat_exactly():
    def counts():
        r = run.set_up("corpus-quad", 5)
        r.workload.first = r.workload.first[:6]
        r.workload.round_size = 6
        run.count_layers(r)
        return {key: value for key, (value, _) in r.metrics.items()}

    first, second = counts(), counts()
    assert first == second
    assert first["fields.mul.calls"] > 0 and first["linalg.rref.calls"] > 0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_default_seed_digest_matches(name):
    r = run.set_up(name, 0)
    r.run_round(r.workload.first, [])
    assert run.digest(r) == run.stored_digest(name, 0)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_declared_metric(trace, key):
    result = subprocess.run(
        [sys.executable, "wfbench/run.py", "--workload", "corpus-q", "--seed", "1",
         "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170)
    line = json.loads(result.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in line["metrics"].items()}


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "corpus-q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
