"""The package's top level: what it loads on import and what it exports.

``import wfdim`` and ``import wfdim.cli`` serve the exact routes only, so they
must not load the floating backend (mpmath); ``wfdim.approx`` loads it on
demand.  Neither ``import wfdim.cli`` nor a command other than ``verify``
loads the property suites: ``verify`` imports them when it runs.  The top
level exports what the README, the demos and the benchmark read from it; the
benchmark's workload builder is read here as a file (it is not changed or
imported), and every ``wfdim.<name>`` it uses must resolve.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wfdim

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "wfbench" / "workloads.py"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

_IMPORT_PROBE = """
import sys
import wfdim, wfdim.cli
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "mpmath")
print(" ".join(loaded) or "none")
"""


def _subprocess_env() -> dict:
    src = str(Path(wfdim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_importing_the_package_and_its_cli_loads_no_mpmath():
    run = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                         capture_output=True, text=True, env=_subprocess_env())
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "none", f"mpmath modules loaded: {run.stdout}"


_SUITE_MODULES_PROBE = """
import sys
import wfdim.cli
suites = {"wfdim.suites", "wfdim.constructions", "wfdim.corpus"}
print(" ".join(sorted(suites & set(sys.modules))) or "none")
"""


def test_importing_the_cli_loads_no_suites():
    run = subprocess.run([sys.executable, "-c", _SUITE_MODULES_PROBE],
                         capture_output=True, text=True, env=_subprocess_env())
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "none", f"suite modules loaded: {run.stdout}"


def test_verify_still_refuses_an_unknown_suite():
    run = subprocess.run([sys.executable, "-m", "wfdim.cli", "verify", "--suite", "bogus"],
                         capture_output=True, text=True, env=_subprocess_env())
    assert run.returncode == 2
    assert "unknown suite name(s): bogus" in run.stderr


_COMMANDS_PROBE = """
import contextlib, io, sys
from wfdim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["dim", sys.argv[1]]),
             main(["zdim", "--eta", "s,-s", "--omega", "1,-1", "-k", "3", "--d", "3"])]
suites = {"wfdim.suites", "wfdim.constructions", "wfdim.corpus"}
print(codes, " ".join(sorted(suites & set(sys.modules))) or "none")
"""


def test_the_dim_and_zdim_commands_load_no_suites(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"field": {"kind": "rational"}, '
                    '"roots": [[["rat", "0", "1"], 4], [["rat", "1", "1"], 1]]}')
    run = subprocess.run([sys.executable, "-c", _COMMANDS_PROBE, str(spec)],
                         capture_output=True, text=True, env=_subprocess_env())
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[0, 0] none", f"codes and suite modules: {run.stdout}"


def test_workload_builder_names_resolve_on_the_package():
    names = set(re.findall(r"\bwfdim\.([A-Za-z_]\w*)", WORKLOADS.read_text()))
    assert {"Field", "FactoredInput"} <= names
    missing = sorted(name for name in names if not hasattr(wfdim, name))
    assert not missing, f"wfbench/workloads.py reads wfdim.{missing} and it is gone"


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_top_level_imports_are_exported(demo):
    tree = ast.parse(demo.read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "wfdim"
             for alias in node.names]
    assert names
    assert set(names) <= set(wfdim.__all__)
