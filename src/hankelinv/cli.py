"""Command-line front end.

Commands
--------
  gen     print the normalized moment matrix
  det     print its determinant           (--method explicit|kernel|oracle)
  inv     print its exact inverse         (--method explicit|kernel|oracle)
  kernel  evaluate the kernel at (x, y)
  verify  run the cross-route check battery; exit 1 if any check fails
  errata  as-printed vs exact jacobi determinant report (informational)

``_VALUES`` states each value command's routes, JSON key and mass power once.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage or
validation error.  Exact values serialize as canonical "p/q" strings (bare "p"
for integers); --float emits the nearest doubles, times the family's total
mass to the quantity's power under --unnormalized, and rounded to --digits
significant figures below 17.
"""

from __future__ import annotations

import argparse
import io
import math
import re
import sys
from fractions import Fraction

from .closed_form import (
    MAX_DIGITS,
    MAX_ERRATA_DIGITS,
    explicit_det,
    explicit_inverse,
    jacobi_det_as_printed,
)
from .elimination import bareiss_det, gauss_inverse
from .gram import det_from_norms, gram_schmidt, kernel_eval, kernel_inverse, moment_matrix
from .orthopoly import _PARAM_NAMES, Family, FamilySpec, InvalidFamilySpec
from .verify import VerifyReport, verify

__all__ = ["UsageError", "run", "main"]

# the largest n the CLI accepts, for every command: verify and the oracle's
# inverse, the slowest, grow faster than n^4 and take ~3 s for jacobi
# 1/8,1/9 at n = 100 (README, the --n bullet)
MAX_N = 100

# ASCII digits only: \d would also admit other scripts' digits, which
# Fraction() and int() accept
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_INT_RE = re.compile(r"[+-]?[0-9]+")


class UsageError(ValueError):
    """Bad command line: malformed value, missing argument, invalid parameter."""


def parse_rational(text: str, name: str) -> Fraction:
    """Strict "p/q" / "p" parser; anything else is a usage error."""
    if not _RATIONAL_RE.fullmatch(text):
        raise UsageError(f"malformed rational for {name}: {text!r} (expected p or p/q)")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise UsageError(f"malformed rational for {name}: zero denominator") from None


def _parse_int(text: str) -> int:
    """argparse type for --n and --digits: an optional sign and ASCII digits.
    int() alone also takes other scripts' digits, blanks and underscores."""
    if _INT_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _make_spec(request: argparse.Namespace) -> FamilySpec:
    kwargs = {
        field: parse_rational(text, name)
        for field, name in _PARAM_NAMES.items()
        if (text := getattr(request, field)) is not None
    }
    try:
        return FamilySpec(Family(request.family), **kwargs)
    except InvalidFamilySpec as exc:
        raise UsageError(str(exc)) from None


def _float(value: Fraction) -> float:
    try:
        return float(value)  # correctly rounded by construction
    except OverflowError:
        return math.inf


def _doubles(values: list[Fraction], request: argparse.Namespace, spec: FamilySpec) -> list[float]:
    """The doubles --float prints: the nearest double to each value, times
    the family's total mass to the quantity's power under --unnormalized,
    rounded to --digits significant figures below 17."""
    if request.unnormalized:
        from .doubles import scaled_doubles

        doubles = scaled_doubles(values, spec, _VALUES[request.command][1](request.n))
    else:
        doubles = map(_float, values)
    out = []
    for value, result in zip(values, doubles):
        if request.digits < 17:
            result = float(f"{result:.{request.digits}g}")
        # a double would overflow to inf or silently round a nonzero value to 0
        if not math.isfinite(result) or (result == 0 and value != 0):
            raise UsageError("--float value outside double range; drop --float for the exact value")
        out.append(result)
    return out


def _payload(value, request: argparse.Namespace, spec: FamilySpec):
    """The printed value, a scalar or a matrix as its list of rows, with
    "p/q" strings or under --float doubles."""
    scalar = isinstance(value, Fraction)
    entries = [value] if scalar else [entry for row in value.rows for entry in row]
    cells = _doubles(entries, request, spec) if request.as_float else list(map(str, entries))
    if scalar:
        return cells[0]
    return [cells[i : i + value.size] for i in range(0, len(cells), value.size)]


def _pretty_matrix(payload: list[list[object]]) -> list[str]:
    cells = [[str(entry) for entry in row] for row in payload]
    widths = [max(len(row[j]) for row in cells) for j in range(len(cells[0]))]
    return ["  ".join(cell.rjust(width) for cell, width in zip(row, widths)) for row in cells]


def _emit(
    request: argparse.Namespace,
    spec: FamilySpec,
    fields: dict,
    rows: list[list[object]],
    lines: list[str],
    point: dict[str, Fraction] | None = None,
) -> None:
    """Write one command's output in the requested format: ``fields`` follow
    the request's own fields in the JSON document, ``rows`` are the CSV rows
    and ``lines`` the pretty text.  ``point`` is the kernel's (x, y).  json
    and csv are imported here, so that a request loads only its own format's."""
    if request.output == "json":
        import json

        params = {name: str(value) for name, value in {**spec.params(), **(point or {})}.items()}
        doc = {
            "family": spec.family.value,
            "n": request.n,
            "params": params,
            "method": request.method,
            "normalized": not request.unnormalized or request.command not in _VALUES,
            **fields,
        }
        text = json.dumps(doc) + "\n"
    elif request.output == "csv":
        import csv

        buffer = io.StringIO()
        csv.writer(buffer).writerows(rows)
        text = buffer.getvalue()
    else:
        text = "".join(line + "\n" for line in lines)
    sys.stdout.write(text)


_METHODS = ("explicit", "kernel", "oracle")

# The value commands: each one's JSON key, its power of the family's total
# mass under --unnormalized (a function of n), and by --method the functions
# its route runs, by name, looked up here at run time so that patches hold:
# the first on (spec, n), the next on that result and the kernel's (x, y).
_VALUES = {
    "gen": ("result", lambda n: 1, dict.fromkeys(_METHODS, ("moment_matrix",))),
    "det": (
        "det",
        lambda n: n + 1,
        {
            "explicit": ("explicit_det",),
            "kernel": ("gram_schmidt", "det_from_norms"),
            "oracle": ("moment_matrix", "bareiss_det"),
        },
    ),
    "inv": (
        "result",
        lambda n: -1,
        {
            "explicit": ("explicit_inverse",),
            "kernel": ("gram_schmidt", "kernel_inverse"),
            "oracle": ("moment_matrix", "gauss_inverse"),
        },
    ),
    "kernel": ("result", lambda n: -1, dict.fromkeys(_METHODS, ("gram_schmidt", "kernel_eval"))),
}


def run(request: argparse.Namespace) -> int:
    """Execute one parsed command line (``build_parser().parse_args``) against
    stdout; returns the process exit code."""
    if request.n < 0:
        raise UsageError("n must be >= 0")
    if request.n > MAX_N:
        raise UsageError(f"n must be <= {MAX_N}")
    if request.unnormalized and not request.as_float:
        raise UsageError("--unnormalized requires --float")
    if request.digits < 1:
        raise UsageError("--digits must be >= 1")
    if request.digits > MAX_DIGITS:
        raise UsageError(f"--digits must be <= {MAX_DIGITS}")
    spec = _make_spec(request)
    runner = {"verify": _run_verify, "errata": _run_errata}.get(request.command, _run_value)
    return runner(request, spec)


def _run_value(request: argparse.Namespace, spec: FamilySpec) -> int:
    key, _, routes = _VALUES[request.command]
    # the kernel's (x, y): no other command has these options
    point = {name: parse_rational(getattr(request, name), name) for name in "xy" if name in request}
    first, *then = routes[request.method]
    value = globals()[first](spec, request.n)
    for name in then:
        value = globals()[name](value, *point.values())
    payload = _payload(value, request, spec)
    # a scalar prints as the 1x1 table, whose one cell is str(payload)
    table = payload if isinstance(payload, list) else [[payload]]
    _emit(request, spec, {key: payload}, table, _pretty_matrix(table), point)
    return 0


def _run_verify(request: argparse.Namespace, spec: FamilySpec) -> int:
    report: VerifyReport = verify(spec, request.n)
    width = max(len(c.name) for c in report.checks)
    checks, rows, lines = [], [], []
    for c in report.checks:
        doc, line = None, f"{c.name.ljust(width)}  {'pass' if c.passed else 'FAIL'}"
        if (w := c.witness) is not None:
            where = "det" if w.row < 0 else f"({w.row},{w.col})"
            line += f"  at {where}: expected {w.expected}, got {w.actual}"
            doc = {"row": w.row, "col": w.col, "expected": str(w.expected), "actual": str(w.actual)}
        checks.append({"name": c.name, "passed": c.passed, "witness": doc})
        rows.append([c.name, "pass" if c.passed else "fail"])
        lines.append(line)
    lines.append(f"{sum(c.passed for c in report.checks)}/{len(report.checks)} checks passed")
    _emit(request, spec, {"checks": checks, "passed": report.passed}, rows, lines)
    return 0 if report.passed else 1


def _run_errata(request: argparse.Namespace, spec: FamilySpec) -> int:
    if spec.family is not Family.JACOBI:
        raise UsageError("errata applies to the jacobi family only")
    if request.digits > MAX_ERRATA_DIGITS:
        raise UsageError(f"errata --digits must be <= {MAX_ERRATA_DIGITS}")
    note = jacobi_det_as_printed(spec, request.n, request.digits)
    from .doubles import nstr

    printed_str = nstr(note.printed, request.digits)
    exact_float = nstr(note.exact, request.digits)
    rel_error = "inf" if note.rel_error.is_infinite() else nstr(note.rel_error, 5)
    tolerance = nstr(note.tolerance, 5)
    verdict = "match" if note.agrees else "MISMATCH"
    fields = {
        "as_printed": printed_str,
        "exact": str(note.exact),
        "exact_float": exact_float,
        "rel_error": rel_error,
        "tolerance": tolerance,
        "agrees": note.agrees,
    }
    rows = [[name, fields[name]] for name in ("as_printed", "exact", "exact_float")]
    rows.append(["verdict", verdict])
    lines = [
        f"as-printed closed form : {printed_str}",
        f"exact determinant      : {note.exact} ~ {exact_float}",
        f"verdict                : {verdict} (rel err {rel_error}, tolerance {tolerance})",
    ]
    _emit(request, spec, fields, rows, lines)
    return 0


# the commands and their help, in the order --help lists them
_COMMANDS = {
    "gen": "print the normalized moment matrix",
    "det": "print its determinant",
    "inv": "print its exact inverse",
    "kernel": "evaluate the kernel at (x, y)",
    "verify": "run the cross-route check battery",
    "errata": "as-printed vs exact jacobi determinant report",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Given one of the commands, the top-level
    parser holds only that command's subparser, which parses every line that
    starts with the command exactly as the full parser does; given nothing,
    or any other name, all the commands."""
    parser = argparse.ArgumentParser(
        prog="hankelinv",
        description="Exact moment matrices of the classical orthogonal families: "
        "determinants, inverses, kernels, and cross-route verification.",
    )
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # the top-level usage that an "unrecognized arguments" error prints would
    # otherwise list the one command built, not all of them
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        cmd = sub.add_parser(name, help=_COMMANDS[name])
        cmd.add_argument("--family", required=True, choices=[f.value for f in Family])
        cmd.add_argument(
            "--n", required=True, type=_parse_int, help="largest index; matrix is (n+1)x(n+1)"
        )
        for field, option in _PARAM_NAMES.items():
            cmd.add_argument(f"--{option}", dest=field)
        cmd.add_argument("--method", choices=_METHODS, default="explicit")
        cmd.add_argument("--output", choices=["json", "csv", "pretty"], default="pretty")
        cmd.add_argument("--float", dest="as_float", action="store_true")
        cmd.add_argument("--digits", type=_parse_int, default=17)
        cmd.add_argument("--unnormalized", action="store_true")
        if name == "kernel":
            cmd.add_argument("--x", required=True)
            cmd.add_argument("--y", required=True)
    return parser


# options whose values are rationals and may begin with a minus sign;
# argparse would otherwise read "-1/2" as an option name, so such pairs are
# merged into the --option=value form before parsing
_VALUE_OPTIONS = frozenset(f"--{name}" for name in [*_PARAM_NAMES.values(), "x", "y"])


def _merge_negative_values(argv: list[str]) -> list[str]:
    merged: list[str] = []
    for token in argv:
        negative = token[:1] == "-" and _RATIONAL_RE.fullmatch(token)
        if negative and merged and merged[-1] in _VALUE_OPTIONS:
            merged[-1] += f"={token}"
        else:
            merged.append(token)
    return merged


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    # a line that starts with a command needs only that command's subparser
    parser = build_parser(argv[0] if argv else None)
    try:
        request = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # exact values can run past the default limit of 4300 digits that str()
    # and int() put on an int; lifted for the request only, so that callers
    # in the same process keep their own limit
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return run(request)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
