"""Command-line front end: dimension reports, the survey table, property
suites, and standalone derivative-interpolation problems.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 degree
below 4, 4 route disagreement (an implementation bug, never expected).
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from .classify import classify
from .errors import (
    CoincidentPointsError,
    DegreeTooSmallError,
    ParseError,
    RouteDisagreementError,
)
from .fields import Field
from .jsonio import (
    InputSpec,
    canonical_json,
    factored_from_spec,
    field_to_wire,
    input_spec_to_wire,
    parse_input_spec,
    poly_from_spec,
    poly_to_wire,
)
from .oracle import wf_kernel
from .zspace import ZProblem, z_report

__all__ = ["main", "build_dim_report"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_DEGREE = 3
EXIT_DISAGREEMENT = 4


# -- dim --------------------------------------------------------------------------


def build_dim_report(spec: InputSpec) -> dict:
    """The report envelope for one input, as a JSON-ready dict.

    The roots form runs every route through the classifier; the coefficients
    form cannot see multiplicities exactly, so it runs the kernel oracle only.
    """
    if spec.roots is not None:
        fi = factored_from_spec(spec)
        report = classify(fi)
        g = report.grouping
        basis = report.basis
        envelope = {
            "case": report.case_tag,
            "degree": g.n,
            "n1": g.n1,
            "n2": g.n2,
            "N3": g.N3,
            "r": g.r,
            "mu": g.mu,
            "dim": report.dimension,
            "degenerate": report.degenerate,
            "dims": {
                "oracle": report.dim_oracle,
                "structural": report.dim_structural,
                "theorem": report.dim_theorem,
            },
        }
    else:
        f = poly_from_spec(spec)
        kernel = wf_kernel(f)
        basis = kernel.basis
        envelope = {
            "case": "OracleOnly",
            "degree": f.degree,
            "n1": None,
            "n2": None,
            "N3": None,
            "r": None,
            "mu": None,
            "dim": kernel.dimension,
            "degenerate": None,
            "dims": {"oracle": kernel.dimension, "structural": None, "theorem": None},
        }
    envelope["input"] = input_spec_to_wire(spec)
    envelope["basis"] = [poly_to_wire(p) for p in basis]
    envelope["basis_pretty"] = [str(p) for p in basis]
    envelope["routes_agree"] = True
    return envelope


def _render_dim_text(envelope: dict) -> str:
    lines = [f"degree {envelope['degree']}  case {envelope['case']}"]
    if envelope["n1"] is not None:
        lines.append(
            f"simple {envelope['n1']}  double {envelope['n2']}  higher {envelope['N3']}"
            f"  r {envelope['r']}  mu {envelope['mu']}"
        )
        lines.append(f"degenerate {envelope['degenerate']}")
    lines.append(f"dim {envelope['dim']}")
    routes = envelope["dims"]
    lines.append(
        "routes  oracle {oracle}  structural {structural}  theorem {theorem}".format(
            **{key: ("-" if value is None else value) for key, value in routes.items()}
        )
    )
    for text in envelope["basis_pretty"]:
        lines.append(f"basis  {text}")
    lines.append(f"routes agree: {envelope['routes_agree']}")
    return "\n".join(lines) + "\n"


def _cmd_dim(args) -> int:
    try:
        with open(args.spec, "rb") as handle:
            text = handle.read()
    except OSError as err:
        raise ParseError(f"cannot read {args.spec}: {err}") from err
    spec = parse_input_spec(text)
    envelope = build_dim_report(spec)
    if args.format == "json":
        sys.stdout.write(canonical_json(envelope))
    else:
        sys.stdout.write(_render_dim_text(envelope))
    return EXIT_OK


# -- table ------------------------------------------------------------------------

_TABLE_HEADER = ("degree", "n2", "N3", "r", "n1", "mu", "dim", "witness")


def _table_records() -> list[dict]:
    from .corpus import table_rows

    records = []
    for row in table_rows():
        report = classify(row.witness)  # computed live; raises on any route mismatch
        if report.dimension != row.dim:
            raise RouteDisagreementError(
                f"table witness {row.label}: computed {report.dimension}, expected {row.dim}"
            )
        records.append(
            {
                "degree": row.degree,
                "n2": row.n2,
                "N3": row.N3,
                "r": row.r,
                "n1": row.n1,
                "mu": row.mu,
                "dim": report.dimension,
                "witness": row.label,
            }
        )
    return records


def _cmd_table(args) -> int:
    records = _table_records()
    if args.format == "csv":
        lines = [",".join(_TABLE_HEADER)]
        lines += [",".join(str(record[key]) for key in _TABLE_HEADER) for record in records]
        sys.stdout.write("\n".join(lines) + "\n")
    elif args.format == "json":
        sys.stdout.write(canonical_json(records))
    else:
        widths = {
            key: max(len(key), *(len(str(record[key])) for record in records))
            for key in _TABLE_HEADER
        }
        header = "  ".join(key.ljust(widths[key]) for key in _TABLE_HEADER)
        lines = [header, "-" * len(header)]
        for record in records:
            lines.append("  ".join(str(record[key]).ljust(widths[key]) for key in _TABLE_HEADER))
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# -- verify -----------------------------------------------------------------------


def _cmd_verify(args) -> int:
    from .suites import run_suites

    names = tuple(args.suite) if args.suite else None
    if args.count is not None and args.count < 1:
        raise ParseError(f"--count must be a positive integer, got {args.count}")
    try:
        results = run_suites(names, seed=args.seed, corpus_size=args.count)
    except ValueError as err:
        raise ParseError(str(err)) from err
    if args.format == "json":
        payload = [
            {
                "name": result.name,
                "passed": result.passed,
                "failed": result.failed,
                "failures": result.failures,
            }
            for result in results
        ]
        sys.stdout.write(canonical_json(payload))
    else:
        for result in results:
            status = "ok" if result.ok else "FAILED"
            sys.stdout.write(
                f"{result.name:20s} passed {result.passed:5d}  failed {result.failed:3d}  {status}\n"
            )
            for message in result.failures:
                sys.stdout.write(f"    {message}\n")
        total_passed = sum(result.passed for result in results)
        total_failed = sum(result.failed for result in results)
        sys.stdout.write(f"{'total':20s} passed {total_passed:5d}  failed {total_failed:3d}\n")
    return EXIT_OK if all(result.ok for result in results) else EXIT_VERIFY_FAILED


# -- zdim -------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"^(?P<a>[+-]?\d+(?:/\d+)?)?(?:(?P<bsign>[+-])?(?P<bmag>\d+(?:/\d+)?)?\*?(?P<s>s))?$"
)


def parse_scalar_token(field: Field, token: str):
    """One exact scalar: 'a', 'a/b', or combinations with s = sqrt(d), such
    as 's', '-s', '2*s', '3+s', '-1/2-3/4*s'."""
    text = token.replace(" ", "")
    if not text:
        raise ParseError("empty scalar")
    match = _TOKEN_RE.fullmatch(text)
    if not match or (match.group("a") is None and match.group("s") is None):
        raise ParseError(f"cannot parse scalar {token!r}")
    if match.group("s") is None:
        return field.scalar(Fraction(match.group("a")))
    if field.is_rational:
        raise ParseError(f"scalar {token!r} uses s = sqrt(d); pass --d")
    a_text, bsign, bmag = match.group("a"), match.group("bsign"), match.group("bmag")
    if bsign is None and bmag is None:
        # "s", "3s", "3*s": the leading number belongs to the sqrt part.
        b = Fraction(a_text) if a_text is not None else Fraction(1)
        a = Fraction(0)
    else:
        a = Fraction(a_text) if a_text is not None else Fraction(0)
        b = Fraction(bmag) if bmag is not None else Fraction(1)
        if bsign == "-":
            b = -b
    return field.scalar(a, b)


def _parse_scalar_list(field: Field, text: str):
    return tuple(parse_scalar_token(field, token) for token in text.split(","))


def _cmd_zdim(args) -> int:
    field = Field.quadratic(args.d) if args.d is not None else Field.rationals()
    eta = _parse_scalar_list(field, args.eta)
    omega = _parse_scalar_list(field, args.omega)
    if len(eta) != len(omega):
        raise ParseError(f"eta has {len(eta)} entries but omega has {len(omega)}")
    if args.k < 0:
        raise ParseError("k must be >= 0")
    problem = ZProblem(eta=eta, omega=omega, k=args.k)
    report = z_report(problem)
    payload = {
        "field": field_to_wire(field),
        "s": problem.s,
        "k": problem.k,
        "matrix": [[str(entry) for entry in row] for row in report.matrix],
        "rank": report.rank,
        "dim": report.dimension,
        "degenerate": report.degenerate,
        "basis": [poly_to_wire(p) for p in report.basis],
        "basis_pretty": [str(p) for p in report.basis],
    }
    if args.format == "json":
        sys.stdout.write(canonical_json(payload))
    else:
        lines = [
            f"nodes {problem.s}  degree cap {problem.k}",
            f"rank {report.rank}  dim {report.dimension}  degenerate {report.degenerate}",
        ]
        lines += [f"basis  {text}" for text in payload["basis_pretty"]]
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# -- parser -----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # Imported here and in _cmd_verify, so that importing this module loads no
    # suites (nor the constructions and corpus modules they use).
    from .suites import SUITE_NAMES

    parser = argparse.ArgumentParser(
        prog="wfdim",
        description=(
            "Exact dimension and basis of the divisibility kernel "
            "{p : deg p <= deg f - 2, f | f''p - f'p'}."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    dim = commands.add_parser("dim", help="dimension report for one input file")
    dim.add_argument("spec", help="path to a JSON input spec")
    dim.add_argument("--format", choices=("json", "text"), default="json")
    dim.set_defaults(func=_cmd_dim)

    table = commands.add_parser("table", help="regenerate the degree-4..6 survey table")
    table.add_argument("--format", choices=("json", "csv", "text"), default="csv")
    table.set_defaults(func=_cmd_table)

    verify = commands.add_parser("verify", help="run the property suites")
    verify.add_argument(
        "--suite",
        action="append",
        choices=SUITE_NAMES,
        help="run only this suite (repeatable; default all)",
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--count", type=int, default=None, help="random corpus size for the classifier suite"
    )
    verify.add_argument("--format", choices=("json", "text"), default="text")
    verify.set_defaults(func=_cmd_verify)

    zdim = commands.add_parser("zdim", help="one derivative-interpolation problem")
    zdim.add_argument("--eta", required=True, help="comma-separated exact scalars")
    zdim.add_argument("--omega", required=True, help="comma-separated distinct nodes")
    zdim.add_argument("-k", "--k", type=int, required=True, dest="k", help="degree cap")
    zdim.add_argument("--d", type=int, default=None, help="work over Q(sqrt(d))")
    zdim.add_argument("--format", choices=("json", "text"), default="json")
    zdim.set_defaults(func=_cmd_zdim)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegreeTooSmallError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DEGREE
    except RouteDisagreementError as err:
        print(f"error: route disagreement, an implementation bug: {err}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except (ParseError, CoincidentPointsError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
