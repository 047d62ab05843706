"""Command-line interface: reports, formats, and exit codes."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from wfdim import cli
from wfdim.errors import RouteDisagreementError
from wfdim.jsonio import canonical_json

QUINTIC_SPEC = {"field": {"kind": "rational"}, "roots": [[["rat", "0", "1"], 5]]}
QUARTIC_SPEC = {"field": {"kind": "rational"},
                "roots": [[["rat", "1", "1"], 2], [["rat", "-1", "1"], 2]]}


@pytest.fixture
def spec_file(tmp_path):
    def write(payload, name="input.json") -> str:
        path = tmp_path / name
        text = payload if isinstance(payload, str) else canonical_json(payload)
        path.write_text(text)
        return str(path)

    return write


def run_main(args) -> tuple[int, str]:
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(args)
    return code, buffer.getvalue()


# -- dimension reports ---------------------------------------------------------


def test_dimension_report_for_a_pure_quintic(spec_file):
    code, out = run_main(["dim", spec_file(QUINTIC_SPEC)])
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert payload["case"] == "N1Zero"
    assert payload["basis_pretty"] == ["x^2", "x^3"]
    assert payload["routes_agree"] is True
    assert payload["dims"] == {"oracle": 2, "structural": 2, "theorem": 2}


def test_dimension_report_json_is_canonical(spec_file):
    code, out = run_main(["dim", spec_file(QUARTIC_SPEC)])
    assert code == 0
    assert canonical_json(json.loads(out)) == out


def test_pretty_dimension_report_is_text(spec_file):
    code, out = run_main(["dim", spec_file(QUARTIC_SPEC), "--format", "text"])
    assert code == 0
    assert "dim 1" in out
    assert "-x^2 + 1" in out


@pytest.mark.parametrize("args", [
    ["dim", "input.json", "--pretty"],
    ["table", "--pretty"],
    ["zdim", "--eta", "1", "--omega", "1", "-k", "1", "--pretty"],
    ["verify", "--suite", "cli", "--format", "csv"],
], ids=["dim-pretty", "table-pretty", "zdim-pretty", "verify-csv"])
def test_removed_output_switches_exit_two(args, capsys):
    with pytest.raises(SystemExit) as raised:
        cli.main(args)
    assert raised.value.code == 2


def test_coefficient_inputs_use_only_the_direct_kernel(spec_file):
    coeffs = {"field": {"kind": "rational"},
              "coefficients": [["rat", "0", "1"]] * 5 + [["rat", "1", "1"]]}
    code, out = run_main(["dim", spec_file(coeffs)])
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "OracleOnly"
    assert payload["dim"] == 2
    assert payload["dims"]["structural"] is None
    assert payload["n1"] is None


# -- exit codes -------------------------------------------------------------------


def test_malformed_input_exits_two(spec_file):
    code, _ = run_main(["dim", spec_file("{not json")])
    assert code == 2


def test_missing_file_exits_two(tmp_path):
    code, _ = run_main(["dim", str(tmp_path / "absent.json")])
    assert code == 2


def test_low_degree_input_exits_three(spec_file):
    cubic = {"field": {"kind": "rational"}, "roots": [[["rat", "0", "1"], 3]]}
    code, _ = run_main(["dim", spec_file(cubic)])
    assert code == 3


def test_route_disagreement_exits_four(spec_file, monkeypatch):
    def explode(spec):
        raise RouteDisagreementError("forced for the exit-code contract")

    monkeypatch.setattr(cli, "build_dim_report", explode)
    code, _ = run_main(["dim", spec_file(QUINTIC_SPEC)])
    assert code == 4


def test_failing_suite_exits_one(monkeypatch):
    from wfdim import suites

    def always_failing(rng, result):
        result.check(False, "forced failure for the exit-code contract")

    monkeypatch.setitem(suites._SUITES, "cli", always_failing)
    code, out = run_main(["verify", "--suite", "cli"])
    assert code == 1
    assert "FAILED" in out


def test_nonpositive_count_exits_two():
    code, _ = run_main(["verify", "--suite", "cli", "--count", "-3"])
    assert code == 2


# -- tables -------------------------------------------------------------------------


def test_table_is_stable_csv_with_the_reference_dims():
    code_a, first = run_main(["table"])
    code_b, second = run_main(["table"])
    assert code_a == code_b == 0
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0] == "degree,n2,N3,r,n1,mu,dim,witness"
    assert len(lines) == 14
    dims = [int(line.split(",")[6]) for line in lines[1:]]
    assert dims == [1, 1, 1, 2, 1, 1, 3, 2, 2, 1, 2, 1, 1]


def test_table_renders_as_json_records():
    code, out = run_main(["table", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 13
    assert payload[3]["witness"] == "x^5"
    assert payload[3]["dim"] == 2
    assert canonical_json(payload) == out


# -- interpolation reports -------------------------------------------------------------


def test_interpolation_report_matches_the_degenerate_example():
    code, out = run_main(["zdim", "--eta", "1,-1", "--omega", "1,-1", "-k", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 1
    assert payload["dim"] == 2
    assert payload["degenerate"] is True


def test_interpolation_report_accepts_quadratic_tokens():
    code, out = run_main(["zdim", "--eta", "s,-s", "--omega", "1,-1", "-k", "3",
                          "--d", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["field"] == {"kind": "quadratic", "d": 3}
    assert payload["dim"] == 2


def test_interpolation_tokens_reject_roots_in_the_rational_field():
    code, _ = run_main(["zdim", "--eta", "s", "--omega", "1", "-k", "1"])
    assert code == 2


def test_interpolation_nodes_must_be_distinct():
    code, _ = run_main(["zdim", "--eta", "0,0", "--omega", "1,1", "-k", "2"])
    assert code == 2


def test_scalar_tokens_parse_signs_and_fractions():
    root3 = cli.Field.quadratic(3)
    assert cli.parse_scalar_token(root3, "1/2-3/4s") == root3.scalar("1/2", "-3/4")
    rationals = cli.Field.rationals()
    assert cli.parse_scalar_token(rationals, "-7/3") == rationals.scalar("-7/3")
    root5 = cli.Field.quadratic(5)
    assert cli.parse_scalar_token(root5, "s") == root5.sqrt_generator()


# -- bounded input ------------------------------------------------------------------


def test_an_18_digit_quadratic_d_exits_two_at_once(spec_file):
    # Squarefreeness is tested by trial division: about 10^9 steps at this d.
    huge = 1000000000000000003
    spec = spec_file({"field": {"kind": "quadratic", "d": huge},
                      "roots": [[["rat", "0", "1"], 5]]})
    zdim = ["zdim", "--eta", "s", "--omega", "1", "-k", "1", "--d", str(huge)]
    for args in (["dim", spec], zdim):
        run = subprocess.run([sys.executable, "-m", "wfdim.cli", *args],
                             capture_output=True, text=True, timeout=10)
        assert run.returncode == 2, run.stderr
        assert "|d| must be below 10^12" in run.stderr


# -- the installed entry point ----------------------------------------------------------


def test_console_script_round_trips_bytes(tmp_path):
    path = tmp_path / "quintic.json"
    path.write_text(canonical_json(QUINTIC_SPEC))
    first, second = (subprocess.run([sys.executable, "-m", "wfdim.cli", "dim", str(path)],
                                    capture_output=True, text=True) for _ in range(2))
    assert first.returncode == second.returncode == 0
    assert canonical_json(json.loads(first.stdout)) == first.stdout
    assert first.stdout == second.stdout
