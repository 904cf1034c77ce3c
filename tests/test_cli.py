"""Tests for the command-line interface.

Commands run in-process through ``main(argv)`` with stdout/stderr captured,
so exit codes and emitted bytes can be asserted exactly; one subprocess smoke
test covers the ``python -m hankelinv`` entry point.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hankelinv
from hankelinv import cli
from hankelinv.cli import (
    _COMMANDS,
    MAX_ERRATA_DIGITS,
    MAX_N,
    UsageError,
    _merge_negative_values,
    build_parser,
    main,
    parse_rational,
    run,
)
from hankelinv.closed_form import MAX_DIGITS, explicit_det
from hankelinv.gram import moment_matrix
from hankelinv.orthopoly import Family, FamilySpec, InvalidFamilySpec
from hankelinv.verify import CheckResult, VerifyReport, Witness


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestParseRational:
    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("3/4", Fraction(3, 4)),
            ("-7", Fraction(-7)),
            ("+2/6", Fraction(1, 3)),
            ("0", Fraction(0)),
            ("-1/2", Fraction(-1, 2)),
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_rational(text, "x") == expected

    @pytest.mark.parametrize(
        "text", ["1.5", "1/0", "a", " 1", "1 ", "1\n", "2/-3", "1e3", "", "１", "٣/4"]
    )
    def test_rejected(self, text):
        with pytest.raises(UsageError):
            parse_rational(text, "x")


class TestGen:
    def test_json_round_trip_is_lossless(self):
        code, out, err = run_cli(
            ["gen", "--family", "jacobi", "--alpha", "1/3", "--beta", "1/5", "--n", "4", "--output", "json"]
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["family"] == "jacobi"
        assert doc["n"] == 4
        assert doc["params"] == {"alpha": "1/3", "beta": "1/5"}
        assert doc["normalized"] is True
        matrix = moment_matrix(FamilySpec.jacobi(Fraction(1, 3), Fraction(1, 5)), 4)
        parsed = [[Fraction(v) for v in row] for row in doc["result"]]
        assert parsed == matrix.to_lists()

    def test_pretty_matrix(self):
        code, out, _ = run_cli(["gen", "--family", "hermite", "--n", "2"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0].split() == ["1", "0", "1/2"]
        assert lines[2].split() == ["1/2", "0", "3/4"]

    def test_csv(self):
        code, out, _ = run_cli(["gen", "--family", "laguerre", "--alpha", "0", "--n", "1", "--output", "csv"])
        assert code == 0
        assert out.splitlines() == ["1,1", "1,2"]

    def test_hilbert_csv(self):
        code, out, _ = run_cli(
            ["gen", "--family", "jacobi-shifted", "--alpha", "0", "--beta", "0", "--n", "2", "--output", "csv"]
        )
        assert code == 0
        assert out.splitlines() == ["1,1/2,1/3", "1/2,1/3,1/4", "1/3,1/4,1/5"]


class TestDet:
    def test_pretty(self):
        code, out, _ = run_cli(["det", "--family", "hermite", "--n", "2"])
        assert code == 0
        assert out == "1/4\n"

    def test_json_document(self):
        code, out, _ = run_cli(["det", "--family", "hermite", "--n", "2", "--output", "json"])
        assert code == 0
        assert json.loads(out) == {
            "family": "hermite",
            "n": 2,
            "params": {},
            "method": "explicit",
            "normalized": True,
            "det": "1/4",
        }

    def test_csv_single_cell(self):
        code, out, _ = run_cli(["det", "--family", "hermite", "--n", "2", "--output", "csv"])
        assert code == 0
        assert out.splitlines() == ["1/4"]

    @pytest.mark.parametrize("method", ["explicit", "kernel", "oracle"])
    def test_methods_agree(self, method):
        code, out, _ = run_cli(
            ["det", "--family", "jacobi-shifted", "--alpha", "2", "--beta", "3", "--n", "6",
             "--method", method, "--output", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == method
        doc.pop("method")
        reference_code, reference_out, _ = run_cli(
            ["det", "--family", "jacobi-shifted", "--alpha", "2", "--beta", "3", "--n", "6", "--output", "json"]
        )
        reference = json.loads(reference_out)
        reference.pop("method")
        assert doc == reference

    def test_float(self):
        code, out, _ = run_cli(["det", "--family", "hermite", "--n", "2", "--float", "--output", "json"])
        assert code == 0
        assert json.loads(out)["det"] == 0.25

    def test_float_digits(self):
        # 9/32 = 0.28125 rounds to three significant figures
        code, out, _ = run_cli(
            ["det", "--family", "hermite", "--n", "4", "--float", "--digits", "3", "--output", "json"]
        )
        assert code == 0
        assert json.loads(out)["det"] == 0.281

    def test_float_laguerre(self):
        code, out, _ = run_cli(
            ["det", "--family", "laguerre", "--alpha", "1/2", "--n", "1", "--float", "--output", "json"]
        )
        assert code == 0
        assert json.loads(out)["det"] == 1.5

    @pytest.mark.parametrize(
        "argv",
        [
            ["det", "--family", "hermite", "--n", "80", "--float"],
            ["det", "--family", "jacobi", "--alpha", "0", "--beta", "0", "--n", "80", "--float"],
            ["det", "--family", "hermite", "--n", "100", "--float", "--unnormalized", "--output", "json"],
            # Gamma(10^30 + 1) and its reciprocal, decided from their logs
            ["gen", "--family", "laguerre", "--alpha", "10" + "0" * 29, "--n", "0", "--float",
             "--unnormalized"],
            ["inv", "--family", "laguerre", "--alpha", "10" + "0" * 29, "--n", "0", "--float",
             "--unnormalized"],
        ],
        ids=["overflow", "underflow-to-zero", "unnormalized-infinity", "huge-mass", "huge-mass-inverse"],
    )
    def test_float_outside_double_range_is_usage_error(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "double range" in err


class TestInv:
    def test_laguerre_json(self):
        code, out, _ = run_cli(
            ["inv", "--family", "laguerre", "--alpha", "0", "--n", "1", "--output", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == [["2", "-1"], ["-1", "1"]]
        assert doc["params"] == {"alpha": "0"}

    @pytest.mark.parametrize("method", ["explicit", "kernel", "oracle"])
    def test_methods_agree(self, method):
        base = ["inv", "--family", "laguerre", "--alpha", "1/2", "--n", "5", "--output", "json"]
        code, out, _ = run_cli(base + ["--method", method])
        assert code == 0
        doc = json.loads(out)
        doc.pop("method")
        _, reference_out, _ = run_cli(base)
        reference = json.loads(reference_out)
        reference.pop("method")
        assert doc == reference

    def test_float_entries(self):
        code, out, _ = run_cli(
            ["inv", "--family", "laguerre", "--alpha", "0", "--n", "1", "--float", "--output", "json"]
        )
        assert code == 0
        assert json.loads(out)["result"] == [[2.0, -1.0], [-1.0, 1.0]]


# the function that each --method of det and inv runs; the three routes
# print the same values, so only their calls tell them apart
_ROUTES = {
    ("det", "explicit"): "explicit_det",
    ("det", "kernel"): "det_from_norms",
    ("det", "oracle"): "bareiss_det",
    ("inv", "explicit"): "explicit_inverse",
    ("inv", "kernel"): "kernel_inverse",
    ("inv", "oracle"): "gauss_inverse",
}


class TestMethodRoutes:
    @pytest.mark.parametrize(("command", "method"), list(_ROUTES))
    def test_each_method_runs_its_own_route(self, command, method, monkeypatch):
        calls = dict.fromkeys(_ROUTES.values(), 0)

        def counting(name):
            route = getattr(cli, name)

            def counted(*args):
                calls[name] += 1
                return route(*args)

            return counted

        for name in calls:
            monkeypatch.setattr(cli, name, counting(name))
        argv = [command, "--family", "laguerre", "--alpha", "1/2", "--n", "3", "--method", method]
        assert run_cli(argv)[0] == 0
        assert calls == {name: int(name == _ROUTES[command, method]) for name in calls}


class TestKernel:
    def test_pretty_value(self):
        code, out, _ = run_cli(
            ["kernel", "--family", "hermite", "--n", "1", "--x", "1/2", "--y", "1/2"]
        )
        assert code == 0
        assert out == "3/2\n"

    def test_json_includes_points(self):
        code, out, _ = run_cli(
            ["kernel", "--family", "hermite", "--n", "1", "--x", "1/2", "--y", "1/2", "--output", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["params"] == {"x": "1/2", "y": "1/2"}
        assert doc["result"] == "3/2"

    def test_missing_point_is_usage_error(self):
        code, _, err = run_cli(["kernel", "--family", "hermite", "--n", "1", "--x", "1/2"])
        assert code == 2
        assert "--y" in err

    def test_malformed_point(self):
        code, _, err = run_cli(
            ["kernel", "--family", "hermite", "--n", "1", "--x", "0.5", "--y", "0"]
        )
        assert code == 2
        assert "malformed rational" in err


class TestVerifyCommand:
    def test_passes_exit_zero(self):
        code, out, _ = run_cli(["verify", "--family", "hermite", "--n", "3"])
        assert code == 0
        assert "9/9 checks passed" in out

    def test_json_structure(self):
        code, out, _ = run_cli(
            ["verify", "--family", "jacobi", "--alpha", "2", "--beta", "3", "--n", "3", "--output", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["checks"]) == 7
        assert all(c["passed"] and c["witness"] is None for c in doc["checks"])

    @pytest.fixture
    def failing_report(self, monkeypatch):
        # no real spec fails verify, so a report with one failing matrix
        # check and one failing determinant check stands in for it
        def fake_verify(spec, n):
            return VerifyReport(
                spec,
                n,
                (
                    CheckResult("matrix_symmetric", True),
                    CheckResult("inverse_identity", False, Witness(1, 0, Fraction(2), Fraction(3))),
                    CheckResult(
                        "det_explicit_equals_bareiss",
                        False,
                        Witness(-1, -1, Fraction(1, 4), Fraction(1, 3)),
                    ),
                ),
            )

        monkeypatch.setattr("hankelinv.cli.verify", fake_verify)

    def test_failure_pretty(self, failing_report):
        code, out, err = run_cli(["verify", "--family", "hermite", "--n", "2"])
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "matrix_symmetric             pass",
            "inverse_identity             FAIL  at (1,0): expected 2, got 3",
            "det_explicit_equals_bareiss  FAIL  at det: expected 1/4, got 1/3",
            "1/3 checks passed",
        ]

    def test_failure_json(self, failing_report):
        code, out, err = run_cli(["verify", "--family", "hermite", "--n", "2", "--output", "json"])
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["checks"] == [
            {"name": "matrix_symmetric", "passed": True, "witness": None},
            {
                "name": "inverse_identity",
                "passed": False,
                "witness": {"row": 1, "col": 0, "expected": "2", "actual": "3"},
            },
            {
                "name": "det_explicit_equals_bareiss",
                "passed": False,
                "witness": {"row": -1, "col": -1, "expected": "1/4", "actual": "1/3"},
            },
        ]

    def test_failure_csv(self, failing_report):
        code, out, err = run_cli(["verify", "--family", "hermite", "--n", "2", "--output", "csv"])
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "matrix_symmetric,pass",
            "inverse_identity,fail",
            "det_explicit_equals_bareiss,fail",
        ]

    def test_invalid_lambda_is_usage_error(self):
        code, _, err = run_cli(["verify", "--family", "gegenbauer", "--lambda", "0", "--n", "3"])
        assert code == 2
        assert "lambda must be > -1/2 and nonzero" in err


class TestErrata:
    def test_runs_and_reports(self):
        code, out, _ = run_cli(
            ["errata", "--family", "jacobi", "--alpha", "0", "--beta", "0", "--n", "1"]
        )
        assert code == 0
        assert "as-printed closed form" in out
        assert "verdict" in out

    def test_json_fields(self):
        code, out, _ = run_cli(
            ["errata", "--family", "jacobi", "--alpha", "1/2", "--beta", "-1/2", "--n", "2",
             "--output", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        for key in ("as_printed", "exact", "exact_float", "rel_error", "tolerance", "agrees"):
            assert key in doc
        # the exact value is authoritative either way
        from hankelinv.elimination import bareiss_det

        expected = bareiss_det(
            moment_matrix(FamilySpec.jacobi(Fraction(1, 2), Fraction(-1, 2)), 2)
        )
        assert Fraction(doc["exact"]) == expected

    def test_csv_rows(self):
        code, out, _ = run_cli(
            ["errata", "--family", "jacobi", "--alpha", "2", "--beta", "3", "--n", "2",
             "--output", "csv"]
        )
        assert code == 0
        labels = [line.split(",")[0] for line in out.splitlines()]
        assert labels == ["as_printed", "exact", "exact_float", "verdict"]

    @pytest.mark.parametrize("digits", [40, 60])
    def test_exact_float_is_correct_to_digits(self, digits):
        from mpmath import mp

        code, out, _ = run_cli(
            ["errata", "--family", "jacobi", "--alpha", "1/3", "--beta", "1/5", "--n", "3",
             "--digits", str(digits), "--output", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        exact = Fraction(doc["exact"])
        # the same value printed at 60 extra digits of working precision
        with mp.workdps(digits + 60):
            expected = mp.nstr(mp.mpf(exact.numerator) / exact.denominator, digits)
        assert doc["exact_float"] == expected

    def test_rejects_other_families(self):
        # the family is checked before errata's --digits bound
        argv = ["errata", "--family", "hermite", "--n", "1", "--digits", str(MAX_ERRATA_DIGITS + 1)]
        code, _, err = run_cli(argv)
        assert code == 2
        assert "jacobi" in err

    # errata at the bound itself takes seconds, so CI runs it, not tier-1
    @pytest.mark.parametrize("digits", [MAX_ERRATA_DIGITS + 1, MAX_DIGITS])
    def test_digits_above_errata_maximum(self, digits):
        argv = ["errata", "--family", "jacobi", "--alpha", "1/8", "--beta", "1/9", "--n", "2"]
        code, out, err = run_cli([*argv, "--digits", str(digits)])
        assert code == 2 and out == ""
        assert err == f"error: errata --digits must be <= {MAX_ERRATA_DIGITS}\n"

    @pytest.mark.parametrize("output", ["pretty", "json", "csv"])
    def test_gamma_pole_corner_reports_nan(self, output):
        # alpha + beta = -1 puts the printed display on a gamma pole
        code, out, err = run_cli(
            ["errata", "--family", "jacobi", "--alpha=-1/2", "--beta=-1/2", "--n", "3",
             "--output", output]
        )
        assert code == 0 and err == ""
        if output == "json":
            doc = json.loads(out)
            assert doc["as_printed"] == "nan"
            assert doc["exact"] == "1/512"
            assert doc["agrees"] is False
        elif output == "csv":
            rows = dict(line.split(",", 1) for line in out.splitlines())
            assert rows["as_printed"] == "nan" and rows["exact"] == "1/512"
            assert rows["verdict"] == "MISMATCH"
        else:
            assert "as-printed closed form : nan" in out
            assert "exact determinant      : 1/512 ~ 0.001953125" in out


class TestUsageErrors:
    def test_unknown_family(self):
        code, _, err = run_cli(["gen", "--family", "legendre", "--n", "1"])
        assert code == 2
        assert err != ""

    def test_missing_required_parameter(self):
        code, _, err = run_cli(["gen", "--family", "laguerre", "--n", "1"])
        assert code == 2
        assert "requires alpha" in err

    def test_extraneous_parameter(self):
        code, _, err = run_cli(["gen", "--family", "hermite", "--alpha", "1", "--n", "1"])
        assert code == 2
        assert "takes no alpha" in err

    # λ is --lambda on the command line, and the errors say so, not the
    # field name lam
    def test_missing_lambda_named_as_typed(self):
        code, out, err = run_cli(["det", "--family", "gegenbauer", "--n", "1"])
        assert (code, out, err) == (2, "", "error: gegenbauer requires lambda\n")

    def test_extraneous_lambda_named_as_typed(self):
        code, out, err = run_cli(["det", "--family", "hermite", "--lambda", "1/2", "--n", "1"])
        assert (code, out, err) == (2, "", "error: hermite takes no lambda\n")

    def test_library_names_lambda_as_typed(self):
        with pytest.raises(InvalidFamilySpec) as info:
            FamilySpec.gegenbauer("x")
        assert str(info.value) == "lambda is not a rational number: 'x'"

    def test_malformed_rational(self):
        code, _, err = run_cli(["gen", "--family", "laguerre", "--alpha", "1.5", "--n", "1"])
        assert code == 2
        assert "malformed rational" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["det", "--family", "laguerre", "--alpha", "１", "--n", "1"],
            ["det", "--family", "jacobi", "--alpha", "0", "--beta", "٣/4", "--n", "1"],
            ["det", "--family", "laguerre", "--alpha", "-١/2", "--n", "1"],
        ],
        ids=["fullwidth-one", "arabic-indic-three", "negative-separate-token"],
    )
    def test_non_ascii_digits_rejected(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]

    @pytest.mark.parametrize(
        "text", ["２", " 2_0 ", "1_7", "٣", pytest.param("1" * 5000, id="5000-digits")]
    )
    @pytest.mark.parametrize("option", ["--n", "--digits"])
    def test_non_ascii_or_loose_int_rejected(self, option, text):
        # int() would read the first four as 2, 20, 17 and 3; the last has
        # more digits than int() converts
        values = {"--n": "2", "--digits": "5", option: text}
        argv = ["det", "--family", "hermite", "--float", "--n", values["--n"], "--digits", values["--digits"]]
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
        assert err.endswith(f"error: argument {option}: invalid int value: {text!r}\n")

    def test_negative_n(self):
        code, _, err = run_cli(["det", "--family", "hermite", "--n", "-3"])
        assert code == 2
        assert "n must be >= 0" in err

    # refused before any work: without the bound, hermite det at n = 10**24
    # loops ~10**24 times in barnes_g_int
    @pytest.mark.parametrize("n", [MAX_N + 1, 10**24])
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--family", "hermite"],
            ["det", "--family", "hermite"],
            ["inv", "--family", "laguerre", "--alpha", "7/3", "--method", "oracle"],
            ["kernel", "--family", "gegenbauer", "--lambda", "3/2", "--x", "1/2", "--y", "1/3"],
            ["verify", "--family", "jacobi", "--alpha", "1/3", "--beta", "1/5"],
            ["errata", "--family", "jacobi", "--alpha", "1/3", "--beta", "1/5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_n_above_maximum(self, argv, n):
        code, out, err = run_cli([*argv, "--n", str(n)])
        assert code == 2 and out == ""
        assert err == f"error: n must be <= {MAX_N}\n"

    def test_out_of_domain_alpha(self):
        code, _, err = run_cli(["gen", "--family", "laguerre", "--alpha", "-2", "--n", "1"])
        assert code == 2
        assert "alpha must be > -1" in err

    def test_unnormalized_requires_float(self):
        code, _, err = run_cli(["det", "--family", "hermite", "--n", "1", "--unnormalized"])
        assert code == 2
        assert "--float" in err

    def test_digits_must_be_positive(self):
        code, _, err = run_cli(["det", "--family", "hermite", "--n", "1", "--float", "--digits", "0"])
        assert code == 2
        assert "--digits" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["det", "--family", "hermite", "--n", "2", "--float", "--unnormalized"],
            ["errata", "--family", "jacobi", "--alpha", "0", "--beta", "0", "--n", "1"],
        ],
        ids=["det-unnormalized", "errata"],
    )
    def test_digits_above_maximum(self, argv):
        code, out, err = run_cli([*argv, "--digits", str(MAX_DIGITS + 1)])
        assert code == 2 and out == ""
        assert err == f"error: --digits must be <= {MAX_DIGITS}\n"

    def test_help_exits_zero(self):
        code, out, _ = run_cli(["--help"])
        assert code == 0
        assert "hankelinv" in out


# Pythons with the int/str conversion limit (3.11, and 3.10 from 3.10.7)
_HAS_DIGIT_LIMIT = hasattr(sys, "get_int_max_str_digits")


class TestLongExactValues:
    """Exact values past the 4300-digit default limit on str(int) and
    int(str) print in full; main restores the caller's limit."""

    def test_hermite_det_at_n_100(self):
        code, out, err = run_cli(["det", "--family", "hermite", "--n", "100", "--output", "json"])
        assert code == 0 and err == ""
        det = explicit_det(FamilySpec.hermite(), 100)
        assert det.numerator.bit_length() > 4300 * 3.33  # past 4300 decimal digits
        limit = sys.get_int_max_str_digits() if _HAS_DIGIT_LIMIT else None
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            expected = str(det)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        assert json.loads(out)["det"] == expected

    def test_laguerre_alpha_with_5000_digit_denominator(self):
        alpha = "1/" + "7" * 5000
        code, out, err = run_cli(["det", "--family", "laguerre", "--alpha", alpha, "--n", "1"])
        assert code == 0 and err == ""
        # det at n = 1 is 0! 1! (alpha+1) = (7...7 + 1) / 7...7
        assert out == "7" * 4999 + "8/" + "7" * 5000 + "\n"

    @pytest.mark.skipif(not _HAS_DIGIT_LIMIT, reason="no int/str conversion limit")
    @pytest.mark.parametrize("argv", [["det", "--family", "hermite", "--n", "100"], ["--help"],
                                      ["det", "--family", "hermite", "--n", "-1"]])
    def test_limit_restored(self, argv):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)  # the caller's own limit
        try:
            run_cli(argv)
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(before)


class TestUnnormalized:
    def test_determinant_scales_by_mass_power(self):
        # hermite n=1: exact determinant 1/2, mass sqrt(pi), so pi/2 unnormalized
        code, out, _ = run_cli(
            ["det", "--family", "hermite", "--n", "1", "--float", "--unnormalized", "--output", "json"]
        )
        assert code == 0
        import math

        value = json.loads(out)["det"]
        assert abs(value - math.pi / 2) <= 1e-12 * (math.pi / 2)

    def test_inverse_scales_by_reciprocal_mass(self):
        code, out, _ = run_cli(
            ["inv", "--family", "hermite", "--n", "0", "--float", "--unnormalized", "--output", "json"]
        )
        assert code == 0
        import math

        value = json.loads(out)["result"][0][0]
        expected = 1 / math.sqrt(math.pi)
        assert abs(value - expected) <= 1e-12 * expected

    def test_matrix_scales_by_mass(self):
        code, out, _ = run_cli(
            ["gen", "--family", "laguerre", "--alpha", "0", "--n", "0", "--float", "--unnormalized",
             "--output", "json"]
        )
        assert code == 0
        assert json.loads(out)["result"] == [[1.0]]

    def test_kernel_scales_by_reciprocal_mass(self):
        code, out, _ = run_cli(
            ["kernel", "--family", "hermite", "--n", "0", "--x", "0", "--y", "0", "--float",
             "--unnormalized", "--output", "json"]
        )
        assert code == 0
        import math

        value = json.loads(out)["result"]
        expected = 1 / math.sqrt(math.pi)
        assert abs(value - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("digits", ["18", "4000", str(MAX_DIGITS)])
    def test_digits_above_17_print_the_same_double(self, digits):
        # --float prints the double nearest the exact value times the mass
        # power; more digits only bound --digits
        argv = ["det", "--family", "laguerre", "--alpha", "1/3", "--n", "2", "--float",
                "--unnormalized"]
        assert run_cli([*argv, "--digits", digits]) == run_cli([*argv, "--digits", "17"])

    def test_normalized_flag_in_document(self):
        code, out, _ = run_cli(
            ["gen", "--family", "hermite", "--n", "1", "--float", "--unnormalized", "--output", "json"]
        )
        assert code == 0
        assert json.loads(out)["normalized"] is False


class TestRunApi:
    def test_run_accepts_request_objects(self):
        request = build_parser().parse_args(["det", "--family", "hermite", "--n", "2"])
        out = io.StringIO()
        with redirect_stdout(out):
            code = run(request)
        assert code == 0
        assert out.getvalue() == "1/4\n"

    def test_run_rejects_bad_request(self):
        request = build_parser().parse_args(
            ["det", "--family", "hermite", "--n", "2", "--float", "--digits", "0"]
        )
        with pytest.raises(UsageError):
            run(request)


# integers that int() reads but --n and --digits refuse
_LOOSE_INTS = ["２", " 2_0 ", "1_7", "٣"]
_GOOD_RATIONALS = ["0", "1", "-1", "-1/2", "1/3", "+2/6", "7/3", "-8/9", "9"]
_BAD_RATIONALS = ["1.5", "1/0", "abc", "", "１", "٣/4", "1e3", "2/-3", " 1", "-", "--"]
_PARAMS = {
    "hermite": [],
    "laguerre": ["--alpha"],
    "gegenbauer": ["--lambda"],
    "jacobi": ["--alpha", "--beta"],
    "jacobi-shifted": ["--alpha", "--beta"],
}


@st.composite
def _argvs(draw) -> list[str]:
    """A command line over every command, family (or an unknown one), valid
    or garbage rational, and flag, at n <= 8."""
    command = draw(st.sampled_from(["gen", "det", "inv", "kernel", "verify", "errata"]))
    family = draw(st.sampled_from([*_PARAMS, "legendre"]))
    n = draw(st.sampled_from([str(n) for n in range(-1, 9)] * 3 + _LOOSE_INTS))
    argv = [command, "--family", family, "--n", n]
    if draw(st.sampled_from([True, True, True, False])):
        # the family's own parameters, plus the kernel's point
        options = _PARAMS.get(family, []) + ["--x", "--y"] * (command == "kernel")
    else:
        names = st.sampled_from(["--alpha", "--beta", "--lambda", "--x", "--y"])
        options = draw(st.lists(names, unique=True, max_size=3))
    # mostly valid values, so that most requests get past parsing
    value = st.sampled_from(_GOOD_RATIONALS * 2 + _BAD_RATIONALS)
    for option in options:
        argv += [option, draw(value)]
    for flag, choices in [
        ("--method", ["explicit", "kernel", "oracle"]),
        ("--output", ["json", "csv", "pretty"]),
        ("--digits", ["1", "5", "17", "30", "0", "x", str(MAX_DIGITS + 1), *_LOOSE_INTS]),
    ]:
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(choices))]
    argv += draw(st.sampled_from([[], ["--float"], ["--float", "--unnormalized"], ["--unnormalized"]]))
    return argv


class TestNeverTracebacks:
    @settings(max_examples=300)
    @given(_argvs())
    def test_property_exit_contract(self, argv):
        code, _, err = run_cli(argv)  # any exception escaping main fails here
        assert code in (0, 2) or (code == 1 and argv[0] == "verify")
        if code == 0:
            assert err == ""
        if code == 2:
            assert sum("error:" in line for line in err.splitlines()) == 1


_GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))


class TestGoldenOutput:
    """Every byte ``main`` writes for a fixed set of requests: each family at
    n = 0 and 3 through gen/det/inv in every output, the other methods,
    kernel, verify, errata (the alpha + beta = -1 pole too), the float
    options, one request per kind of usage error, and --help.  argparse
    wraps usage and help text to the terminal width, so the width is pinned."""

    @pytest.mark.parametrize(
        "case", _GOLDEN, ids=["-".join([f"{i:03}", *case["argv"][:1]]) for i, case in enumerate(_GOLDEN)]
    )
    def test_byte_identical(self, case, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli(case["argv"])
        assert {"argv": case["argv"], "exit": code, "stdout": out, "stderr": err} == case


_UNNORMALIZED_FLOAT = {
    "gen": ["gen", "--family", "laguerre", "--alpha", "1/3", "--n", "3"],
    "det": ["det", "--family", "laguerre", "--alpha", "1/3", "--n", "2", "--digits", "4000"],
    "inv": ["inv", "--family", "jacobi", "--alpha", "1/3", "--beta", "1/5", "--n", "4"],
    "kernel": ["kernel", "--family", "gegenbauer", "--lambda", "3/2", "--n", "3", "--x", "1/2",
               "--y", "1/3"],
}


def _loads_mpmath(script: list[str]) -> None:
    """Run ``script`` in a fresh interpreter, in which it asserts what it
    expects of sys.modules."""
    package_root = os.path.dirname(os.path.dirname(hankelinv.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(["import sys", *script])],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr


class TestLazyMpmath:
    def test_exact_requests_do_not_import_mpmath(self):
        # the errata request checks that the probe would see mpmath once it
        # is loaded
        _loads_mpmath(
            [
                "import hankelinv",
                "assert 'mpmath' not in sys.modules, 'import hankelinv'",
                "from hankelinv.cli import main",
                "assert main(['det', '--family', 'hermite', '--n', '2']) == 0",
                "assert main(['verify', '--family', 'laguerre', '--alpha', '1/2', '--n', '3']) == 0",
                "assert 'mpmath' not in sys.modules, 'exact request'",
                "assert main(['errata', '--family', 'jacobi', '--alpha', '1', '--beta', '2', '--n', '2']) == 0",
                "assert 'mpmath' in sys.modules, 'errata request'",
            ]
        )

    @pytest.mark.parametrize("command", list(_UNNORMALIZED_FLOAT))
    def test_unnormalized_float_requests_do_not_import_mpmath(self, command):
        # the mass scale runs on decimal; --digits 4000 only bounds --digits
        argv = [*_UNNORMALIZED_FLOAT[command], "--float", "--unnormalized"]
        _loads_mpmath(
            [
                "from hankelinv.cli import main",
                f"assert main({argv!r}) == 0",
                "assert 'mpmath' not in sys.modules, 'float request'",
            ]
        )


def _cold_run(script: str) -> str:
    """stdout of ``script`` in a fresh interpreter under -S, which keeps
    site-packages' start-up hooks, and whatever they import, out of the
    picture."""
    package_root = os.path.dirname(os.path.dirname(hankelinv.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestColdImport:
    def test_cli_import_loads_no_dataclasses_inspect_or_mpmath(self):
        # every CLI request imports the package in a fresh interpreter;
        # dataclasses would pull in inspect, ast, dis and tokenize with it,
        # and typing alone costs several ms
        script = (
            "import sys, hankelinv.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'mpmath', 'json', 'csv'} & sys.modules.keys()))"
        )
        assert _cold_run(script) == "[]\n"

    @pytest.mark.parametrize(
        "output, loaded", [("pretty", "[]"), ("json", "['json']"), ("csv", "['csv']")]
    )
    def test_json_and_csv_load_only_for_their_output(self, output, loaded):
        script = (
            "import sys, hankelinv.cli; "
            f"code = hankelinv.cli.main(['det', '--family', 'hermite', '--n', '2', '--output', '{output}']); "
            "print(code, sorted({'json', 'csv'} & sys.modules.keys()))"
        )
        assert _cold_run(script).splitlines()[-1] == f"0 {loaded}"

    def test_malformed_kernel_point_fails_before_any_work(self):
        # --x and --y are read right after the family, so neither the kernel
        # engine nor the mass scale of --unnormalized runs for them; the
        # engine's one entry in the CLI records whether it is called
        argv = ["kernel", "--family", "hermite", "--n", "1", "--x", "1/0", "--y", "0",
                "--float", "--unnormalized"]
        script = (
            "import contextlib, io, hankelinv.cli\n"
            "calls = []\n"
            "hankelinv.cli.gram_schmidt = lambda *args: calls.append(args)\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            f"    code = hankelinv.cli.main({argv!r})\n"
            "print(code, repr(err.getvalue()), bool(calls))"
        )
        stderr = "error: malformed rational for x: zero denominator\n"
        assert _cold_run(script) == f"2 {stderr!r} False\n"


# lines the golden file has no case for: an argument after a complete
# request, which the top-level parser reports, and each command's own errors
_EXTRA_ARGVS = [
    ["det", "--family", "hermite", "--n", "1", "extra"],
    ["verify", "--family", "hermite", "--n", "1", "--bogus"],
    *([command] for command in _COMMANDS),
    ["kernel", "--family", "jacobi", "--alpha", "-1/2", "--beta", "1", "--n", "2", "--x", "-1", "--y", "0"],
    ["--n", "1", "det"],
    ["-h"],
]


def _parse(parser, argv: list[str]):
    """``parser``'s namespace for ``argv`` or, when it exits, its exit code
    and the bytes it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


class TestOneCommandParser:
    """``main`` builds only the subparser of the command a line starts with;
    that parser must read every line as the full parser does, whatever
    argparse's version prints."""

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_help_is_the_full_parsers(self, command, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        one = _parse(build_parser(command), [command, "--help"])
        assert one == _parse(build_parser(), [command, "--help"])
        assert one[0] == 0 and one[1].startswith(f"usage: hankelinv {command} ")

    @pytest.mark.parametrize("argv", [case["argv"] for case in _GOLDEN] + _EXTRA_ARGVS)
    def test_same_namespace_or_error(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        argv = _merge_negative_values(argv)
        parser = build_parser(argv[0] if argv else None)
        assert _parse(parser, argv) == _parse(build_parser(), argv)

    def test_other_first_tokens_build_every_command(self):
        for first in (None, "-h", "frobnicate"):
            assert _parse(build_parser(first), ["--help"]) == _parse(build_parser(), ["--help"])


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hankelinv", "det", "--family", "hermite", "--n", "2"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1/4\n"

    def test_version_attribute(self):
        assert hankelinv.__version__ == "0.1.0"
