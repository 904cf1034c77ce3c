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
    MAX_N,
    UsageError,
    _merge_negative_values,
    build_parser,
    main,
    parse_rational,
    run,
)
from hankelinv.closed_form import MAX_DIGITS, MAX_ERRATA_DIGITS, explicit_det
from hankelinv.gram import moment_matrix
from hankelinv.orthopoly import Family, FamilySpec, InvalidFamilySpec
from hankelinv.verify import CheckResult, VerifyReport, Witness


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _case_id(args: str) -> str:
    """The test id "family-n" of a request written "--family F ... --n N ..."."""
    words = args.split()
    return f"{words[1]}-{words[words.index('--n') + 1]}"


def _route_cases(small: str, large: list[tuple[str, str]]) -> list:
    """The (args, method) cases of a test_methods_agree: every method at the
    request ``small``, with the method as its id, then the (method, request)
    pairs of ``large``."""
    return [
        *(pytest.param(small, method, id=method) for method in ("explicit", "kernel", "oracle")),
        *(pytest.param(args, method, id=f"{method}-{_case_id(args)}") for method, args in large),
    ]


def _assert_methods_agree(command: str, args: str, method: str) -> None:
    """``command`` prints by ``method`` the JSON document that the closed
    forms, the default method, print, but for its method field."""
    docs = []
    for extra in (["--method", method], []):
        code, out, err = run_cli([command, *args.split(), *extra, "--output", "json"])
        assert (code, err) == (0, "")
        docs.append(json.loads(out))
    assert (docs[0].pop("method"), docs[1].pop("method")) == (method, "explicit")
    assert docs[0] == docs[1]


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

    # past the bit-identity grid (tests/test_bit_identity.py), whose largest
    # n is 40: the oracle's forward sweep alone, whose determinant is read
    # off the finished pivots and row scales, at the corners alpha + beta = -1
    # (jacobi, and jacobi-shifted as jacobi over 2^(n(n+1))), laguerre
    # alpha = -8/9 and gegenbauer lambda = -4/9 (the corrected jacobi
    # display next to lambda = -1/2), and at the largest sizes; the kernel
    # engine's norms at MAX_N = 100, the gegenbauer case of the corrected
    # display among them
    @pytest.mark.parametrize(
        ("args", "method"),
        _route_cases(
            "--family jacobi-shifted --alpha 2 --beta 3 --n 6",
            [
                ("oracle", "--family jacobi --alpha -1/3 --beta -2/3 --n 60"),
                ("oracle", "--family hermite --n 100"),
                ("oracle", "--family laguerre --alpha -8/9 --n 60"),
                ("oracle", "--family jacobi --alpha 1/8 --beta 1/9 --n 100"),
                ("oracle", "--family gegenbauer --lambda -4/9 --n 60"),
                ("oracle", "--family jacobi-shifted --alpha -1/3 --beta -2/3 --n 60"),
                ("kernel", "--family jacobi --alpha 1/8 --beta 1/9 --n 100"),
                ("kernel", "--family hermite --n 100"),
                ("kernel", "--family gegenbauer --lambda 3/2 --n 100"),
            ],
        ),
    )
    def test_methods_agree(self, args, method):
        _assert_methods_agree("det", args, method)

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

    # past the bit-identity grid, in n or in the point: the oracle's
    # back-substitution, its running lcm at laguerre 7/3 (~750 bits at
    # n = 60) and its mirrored form at jacobi 1/8,1/9, whose rows carry the
    # largest scales; the kernel engine's inverse normalized into reduced
    # rows, which verify never does (it compares integer rows), at the
    # alpha + beta = -1 corner, laguerre next to alpha = -1, the one jacobi
    # table of both variants at c = 0, and the largest scales at MAX_N = 100
    @pytest.mark.parametrize(
        ("args", "method"),
        _route_cases(
            "--family laguerre --alpha 1/2 --n 5",
            [
                ("oracle", "--family laguerre --alpha 7/3 --n 60"),
                ("oracle", "--family jacobi --alpha 1/8 --beta 1/9 --n 60"),
                ("kernel", "--family jacobi --alpha 1/8 --beta 1/9 --n 100"),
                ("kernel", "--family jacobi --alpha -1/3 --beta -2/3 --n 60"),
                ("kernel", "--family laguerre --alpha -8/9 --n 100"),
                ("kernel", "--family jacobi --alpha -1/2 --beta -1/2 --n 40"),
                ("kernel", "--family jacobi-shifted --alpha -1/2 --beta -1/2 --n 40"),
                ("kernel", "--family jacobi-shifted --alpha 1/8 --beta 1/9 --n 100"),
            ],
        ),
    )
    def test_methods_agree(self, args, method):
        _assert_methods_agree("inv", args, method)

    def test_float_entries(self):
        code, out, _ = run_cli(
            ["inv", "--family", "laguerre", "--alpha", "0", "--n", "1", "--float", "--output", "json"]
        )
        assert code == 0
        assert json.loads(out)["result"] == [[2.0, -1.0], [-1.0, 1.0]]


# the functions that each value command runs under each --method, in the
# order they run; the routes print the same values, so only their calls tell
# them apart.  Stated here, not read from cli's own table, which this checks
_METHODS = ("explicit", "kernel", "oracle")
_ROUTES = {
    **{("gen", method): ("moment_matrix",) for method in _METHODS},
    ("det", "explicit"): ("explicit_det",),
    ("det", "kernel"): ("gram_schmidt", "det_from_norms"),
    ("det", "oracle"): ("moment_matrix", "bareiss_det"),
    ("inv", "explicit"): ("explicit_inverse",),
    ("inv", "kernel"): ("gram_schmidt", "kernel_inverse"),
    ("inv", "oracle"): ("moment_matrix", "gauss_inverse"),
    **{("kernel", method): ("gram_schmidt", "kernel_eval") for method in _METHODS},
}


class TestMethodRoutes:
    @pytest.mark.parametrize(("command", "method"), list(_ROUTES))
    def test_each_method_runs_its_own_route(self, command, method, monkeypatch):
        calls = []

        def counting(name):
            route = getattr(cli, name)

            def counted(*args):
                calls.append(name)
                return route(*args)

            return counted

        for name in {name for route in _ROUTES.values() for name in route}:
            monkeypatch.setattr(cli, name, counting(name))
        argv = [command, "--family", "laguerre", "--alpha", "1/2", "--n", "3", "--method", method]
        if command == "kernel":
            argv += ["--x", "1/2", "--y", "-1/3"]
        assert run_cli(argv)[0] == 0
        assert calls == list(_ROUTES[command, method])


class TestKernel:
    def test_pretty_value(self):
        code, out, _ = run_cli(
            ["kernel", "--family", "hermite", "--n", "1", "--x", "1/2", "--y", "1/2"]
        )
        assert code == 0
        assert out == "3/2\n"

    # the paper's identity k_n(x, y) = v(x)^T E v(y), end to end: the value
    # kernel prints against the inverse E that inv prints, with
    # v(x) = (1, u, ..., u^n) and u = x - t0 (t0 = 1 for jacobi-shifted);
    # jacobi-shifted on the diagonal and README's worst-case point jacobi
    # 1/8,1/9 at MAX_N = 100 (jacobi 1/3,1/5 at n = 40 is on the bit-identity
    # grid); the point goes last, since inv takes the request without it
    @pytest.mark.parametrize(
        "args",
        [
            "--family hermite --n 1 --x 1/2 --y 1/2",
            "--family jacobi-shifted --alpha 1/3 --beta 1/5 --n 40 --x 2/5 --y 2/5",
            "--family jacobi --alpha 1/8 --beta 1/9 --n 100 --x 1/2 --y -1/3",
        ],
        ids=_case_id,
    )
    def test_json_includes_points(self, args):
        words = args.split()
        code, out, _ = run_cli(["kernel", *words, "--output", "json"])
        assert code == 0
        doc = json.loads(out)
        typed = {option[2:]: value for option, value in zip(words[::2], words[1::2])}
        assert doc["params"] == {name: typed[name] for name in typed.keys() - {"family", "n"}}
        code, out, _ = run_cli(["inv", *words[:-4], "--output", "json"])
        assert code == 0
        origin = 1 if doc["family"] == "jacobi-shifted" else 0
        u, v = (Fraction(typed[name]) - origin for name in "xy")
        inverse = json.loads(out)["result"]
        assert Fraction(doc["result"]) == sum(
            u**i * v**j * Fraction(entry)
            for i, row in enumerate(inverse)
            for j, entry in enumerate(row)
        )

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
    # past the bit-identity grid, whose largest n is 40: the integer-row
    # Chebyshev engine and the jacobi table at x0 = 1 (jacobi-shifted), the
    # hermite factor columns from the running anchor product, the integer
    # moment sequence and laguerre columns next to alpha = -1, and README's
    # worst-case request, jacobi 1/8,1/9 at MAX_N = 100; hermite and
    # gegenbauer have two checks more, of their zero odd entries
    @pytest.mark.parametrize(
        ("args", "checks"),
        [
            pytest.param(args, checks, id=_case_id(args))
            for args, checks in [
                ("--family hermite --n 3", 9),
                ("--family jacobi-shifted --alpha 1/3 --beta 1/5 --n 60", 7),
                ("--family hermite --n 60", 9),
                ("--family laguerre --alpha -8/9 --n 60", 7),
                ("--family jacobi --alpha 1/8 --beta 1/9 --n 100", 7),
            ]
        ],
    )
    def test_passes_exit_zero(self, args, checks):
        code, out, _ = run_cli(["verify", *args.split()])
        assert code == 0
        assert out.endswith(f"\n{checks}/{checks} checks passed\n")

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


# errata's printed display at large --digits: mpmath's Barnes G display
# (_fraction_reference.printed_jacobi_det) at 200 digits past --digits,
# rounded by mp.nstr.  mpmath's barnesg loses digits as its precision grows,
# so at the 15 guard digits errata once used, the last digits of each came
# out wrong
_PRINTED_AT_LARGE_DIGITS = {
    ("1/8", "1/9", 2, 400): (
        "0.016732922139712162126941553362728019810238395800626400069470854530529445822848"
        "35272702026761727833417028256202656326827759879633121515057482708835977760261807"
        "46285682933753260147030888984261732490052252981133585310131013674381528740558285"
        "96262127034029863451451776720332900221217410474225537495926122350066765181463145"
        "12249570745535132083824179906609405961131136840015939436186446853513180432169346"
        "046"
    ),
    ("1/8", "1/9", 2, 500): (
        "0.016732922139712162126941553362728019810238395800626400069470854530529445822848"
        "35272702026761727833417028256202656326827759879633121515057482708835977760261807"
        "46285682933753260147030888984261732490052252981133585310131013674381528740558285"
        "96262127034029863451451776720332900221217410474225537495926122350066765181463145"
        "12249570745535132083824179906609405961131136840015939436186446853513180432169346"
        "04570298734511651662123000702007454238962040956306729441136545442911495482441907"
        "06985029837495001627027"
    ),
    ("2", "3", 2, 380): (
        "0.000000000000006943139134287198451135630945826629038185265614508916768092043140"
        "33406164085596352330206365647702676341292281495523286066663911629058181506321256"
        "04830736266026431475327082952849308774394858211100757502034062040780777658244694"
        "44188936924302675541442653225638024495839226669830516307378657256880150976060944"
        "986786928501886089859550848884854091875171912124964951033650118222218667335"
    ),
    ("2", "3", 2, 500): (
        "0.000000000000006943139134287198451135630945826629038185265614508916768092043140"
        "33406164085596352330206365647702676341292281495523286066663911629058181506321256"
        "04830736266026431475327082952849308774394858211100757502034062040780777658244694"
        "44188936924302675541442653225638024495839226669830516307378657256880150976060944"
        "98678692850188608985955084888485409187517191212496495103365011822221866733498546"
        "71766152407791779589881546713662275936568369590961343711826621039688982915656301"
        "059845193548057409651429975609029947"
    ),
    ("1/3", "1/5", 2, 380): (
        "0.006441684320303835794724311519135439428259379522196710084353916316144227313523"
        "12002133035581020366718293962993018915352723431532522858176066327578890030209685"
        "08903412854331747586741051265093893156305146867629589379338276910619786808223486"
        "24785731204848162518546225442909447204175375223230736676872111223641234251308654"
        "2312956202138359387530744275403407705801890217520275511904741499"
    ),
    ("1/3", "1/5", 2, 500): (
        "0.006441684320303835794724311519135439428259379522196710084353916316144227313523"
        "12002133035581020366718293962993018915352723431532522858176066327578890030209685"
        "08903412854331747586741051265093893156305146867629589379338276910619786808223486"
        "24785731204848162518546225442909447204175375223230736676872111223641234251308654"
        "23129562021383593875307442754034077058018902175202755119047414991917547775799894"
        "34534392103232915964564946216966774982397136567807747184416937919960964712835073"
        "751881578656872906208771"
    ),
    ("1/8", "1/9", 100, 500): (
        "4.005992196887102558777778239401550788898365482555182858201035520848727176354799"
        "49896180436906570839320623627416518999103772198873067236789783673399213583833435"
        "80989241702293389324766373589077536940401247397400917330921147990740698055211150"
        "19252415090562447010891732825053137721895318062363505027237515304061457579692796"
        "80537205471151790101102349550292108524606730797197487717752038709055149550937291"
        "11242594998130563130288669016290461745649068178682471836198737999138644334353804"
        "095438399101820662065e-3032"
    ),
}


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

    @pytest.mark.parametrize("case", list(_PRINTED_AT_LARGE_DIGITS), ids=lambda case: "-".join(map(str, case)))
    def test_printed_digits_at_large_digits(self, case):
        alpha, beta, n, digits = case
        argv = ["errata", "--family", "jacobi", "--alpha", alpha, "--beta", beta, "--n", str(n)]
        code, out, err = run_cli([*argv, "--digits", str(digits), "--output", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["as_printed"] == _PRINTED_AT_LARGE_DIGITS[case]

    def test_exact_display_has_no_relative_error(self):
        # at alpha = beta = 0 the display is the exact determinant
        argv = ["errata", "--family", "jacobi", "--alpha", "0", "--beta", "0", "--n", "1"]
        for digits in ("17", "5"):
            code, out, _ = run_cli([*argv, "--digits", digits, "--output", "json"])
            doc = json.loads(out)
            assert (code, doc["rel_error"], doc["agrees"]) == (0, "0.0", True)

    def test_rejects_other_families(self):
        # the family is checked before errata's --digits bound
        argv = ["errata", "--family", "hermite", "--n", "1", "--digits", str(MAX_ERRATA_DIGITS + 1)]
        code, _, err = run_cli(argv)
        assert code == 2
        assert "jacobi" in err

    # errata at the bound itself is test_printed_digits_at_large_digits
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

    # verify and errata accept --float --unnormalized but print only
    # normalized values
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--family", "hermite", "--n", "2"],
            ["errata", "--family", "jacobi", "--alpha", "1/3", "--beta", "1/5", "--n", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_verify_and_errata_print_normalized_values(self, argv):
        code, out, _ = run_cli([*argv, "--float", "--unnormalized", "--output", "json"])
        assert code == 0
        assert json.loads(out)["normalized"] is True


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


def _loads_mpmath(script: list[str], **env: str) -> str:
    """Run ``script`` in a fresh interpreter, in which it asserts what it
    expects of sys.modules, with ``env`` added to the environment; returns
    its stdout."""
    package_root = os.path.dirname(os.path.dirname(hankelinv.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(["import sys", *script])],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": package_root, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLazyMpmath:
    def test_exact_requests_do_not_import_mpmath(self):
        # errata evaluates the printed display in decimal, and
        # unnormalized_scale the mass
        _loads_mpmath(
            [
                "import hankelinv",
                "assert 'mpmath' not in sys.modules, 'import hankelinv'",
                "from hankelinv.cli import main",
                "assert main(['det', '--family', 'hermite', '--n', '2']) == 0",
                "assert main(['verify', '--family', 'laguerre', '--alpha', '1/2', '--n', '3']) == 0",
                "assert 'mpmath' not in sys.modules, 'exact request'",
                "assert main(['errata', '--family', 'jacobi', '--alpha', '1/3', '--beta', '2', '--n', '2']) == 0",
                "assert 'mpmath' not in sys.modules, 'errata request'",
                "from hankelinv.closed_form import unnormalized_scale",
                "from hankelinv.orthopoly import FamilySpec",
                "assert f'{unnormalized_scale(FamilySpec.hermite(), 5):.5g}' == '1.7725'",
                "assert 'mpmath' not in sys.modules, 'unnormalized_scale'",
            ]
        )

    def test_golden_errata_requests_run_without_mpmath(self):
        # an import of mpmath fails in the child, which prints the golden
        # errata requests' exit codes and bytes as JSON
        cases = [case for case in _GOLDEN if case["argv"][:1] == ["errata"]]
        script = [
            "import contextlib, io, json",
            "class Refuse:",
            "    def find_spec(self, name, path=None, target=None):",
            "        if name.partition('.')[0] == 'mpmath':",
            "            raise ModuleNotFoundError(f'no {name} here')",
            "sys.meta_path.insert(0, Refuse())",
            "from hankelinv.cli import main",
            "runs = []",
            f"for argv in {[case['argv'] for case in cases]!r}:",
            "    out, err = io.StringIO(), io.StringIO()",
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):",
            "        code = main(argv)",
            "    runs.append({'argv': argv, 'exit': code, 'stdout': out.getvalue(), 'stderr': err.getvalue()})",
            "assert 'mpmath' not in sys.modules",
            "print(json.dumps(runs))",
        ]
        stdout = _loads_mpmath(script, COLUMNS="80")
        assert len(cases) == 9 and json.loads(stdout) == cases

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
        # and typing alone costs several ms.  doubles compiles only for
        # --unnormalized and errata
        script = (
            "import sys, hankelinv.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'mpmath', 'json', 'csv', "
            "'hankelinv.doubles'} & sys.modules.keys()))"
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
