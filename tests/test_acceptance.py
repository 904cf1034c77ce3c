"""End-to-end acceptance battery.

One test per criterion, each over the full family/parameter grid.  Every
criterion emits a single PASS or FAIL line, replayed in the end-of-run
summary (and shown inline under ``pytest -s``); the ``pytest -v`` status of
each test is the same verdict.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction

from _fraction_reference import kernel_coeffs
from hankelinv.cli import main
from hankelinv.closed_form import explicit_inverse
from hankelinv.elimination import bareiss_det
from hankelinv.gram import ExactMatrix, gram_schmidt, moment_matrix
from hankelinv.orthopoly import Family, FamilySpec
from hankelinv.verify import verify

N_MAX = 12

GRID: list[FamilySpec] = (
    [FamilySpec.hermite()]
    + [
        FamilySpec.laguerre(a)
        for a in (Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 3))
    ]
    + [
        FamilySpec.gegenbauer(l)
        for l in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2))
    ]
    + [
        FamilySpec.jacobi(a, b)
        for a, b in (
            (Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(-1, 2)),
            (Fraction(2), Fraction(3)),
            (Fraction(1, 3), Fraction(1, 5)),
        )
    ]
    + [
        FamilySpec.shifted_jacobi(a, b)
        for a, b in (
            (Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(-1, 2)),
            (Fraction(2), Fraction(3)),
            (Fraction(1, 3), Fraction(1, 5)),
        )
    ]
)

JACOBI_PAIRS = [
    (Fraction(0), Fraction(0)),
    (Fraction(1, 2), Fraction(-1, 2)),
    (Fraction(2), Fraction(3)),
    (Fraction(1, 3), Fraction(1, 5)),
]


def _label(spec: FamilySpec) -> str:
    params = ",".join(f"{k}={v}" for k, v in spec.params().items())
    return f"{spec.family.value}({params})"


def _cli_params(spec: FamilySpec) -> list[str]:
    out: list[str] = []
    for key, value in spec.params().items():
        out += [f"--{key}", str(value)]
    return out


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


SUMMARY_LINES: list[str] = []


def _conclude(label: str, body) -> None:
    try:
        body()
    except BaseException:
        SUMMARY_LINES.append(f"acceptance criterion {label}: FAIL")
        print(SUMMARY_LINES[-1])
        raise
    SUMMARY_LINES.append(f"acceptance criterion {label}: PASS")
    print(SUMMARY_LINES[-1])


def test_criterion_1_closed_form_inverse_times_matrix_is_identity():
    """Exact identity over the whole grid, n = 0..12, in under 30 seconds."""

    def body():
        start = time.monotonic()
        for spec in GRID:
            for n in range(N_MAX + 1):
                product = explicit_inverse(spec, n) @ moment_matrix(spec, n)
                assert product == ExactMatrix.identity(n + 1), (_label(spec), n)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"identity sweep took {elapsed:.1f}s"

    _conclude("1 (inverse identity, full grid, < 30s)", body)


def test_criterion_2_three_routes_agree_on_inverses_and_determinants():
    """Closed form, kernel engine, and elimination: same inverses, same
    determinants, everywhere on the grid."""

    def body():
        for spec in GRID:
            for n in range(N_MAX + 1):
                report = verify(spec, n)
                failed = [c for c in report.checks if not c.passed]
                assert not failed, (
                    _label(spec),
                    n,
                    [(c.name, c.witness) for c in failed],
                )

    _conclude("2 (three-route agreement, full grid)", body)


def test_criterion_3_reference_determinants():
    """Spot values: hermite n=2 determinant 1/4; laguerre alpha=0 n=1
    determinant 1 (both from the closed form and from elimination)."""

    def body():
        hermite = FamilySpec.hermite()
        laguerre = FamilySpec.laguerre(0)
        from hankelinv.closed_form import explicit_det

        assert explicit_det(hermite, 2) == Fraction(1, 4)
        assert bareiss_det(moment_matrix(hermite, 2)) == Fraction(1, 4)
        assert explicit_det(laguerre, 1) == Fraction(1)
        assert bareiss_det(moment_matrix(laguerre, 1)) == Fraction(1)

    _conclude("3 (reference determinants)", body)


def test_criterion_4_shifted_jacobi_at_zero_zero_is_hilbert():
    """The alpha = beta = 0 shifted matrix is the Hilbert matrix; its inverse
    is integer through n = 6, with the documented 2x2 inverse."""

    def body():
        spec = FamilySpec.shifted_jacobi(0, 0)
        matrix = moment_matrix(spec, 6)
        for i in range(7):
            for j in range(7):
                assert matrix.entry(i, j) == Fraction(1, i + j + 1)
        for n in range(7):
            inverse = explicit_inverse(spec, n)
            assert all(v.denominator == 1 for row in inverse.rows for v in row), n
        assert explicit_inverse(spec, 1) == ExactMatrix([[4, -6], [-6, 12]])

    _conclude("4 (hilbert matrix and integer inverse)", body)


def test_criterion_5_kernel_reproduces_a_cubic():
    """Pairing the degree-6 kernel section against x^3 + 2x under the matrix
    bilinear form returns the polynomial's value, exactly, at y in
    {0, 1/2, -1/3} for every grid family."""

    def body():
        y_points = (Fraction(0), Fraction(1, 2), Fraction(-1, 3))
        for spec in GRID:
            n = 6
            table = gram_schmidt(spec, n)
            matrix = moment_matrix(spec, n)
            if spec.family is Family.SHIFTED_JACOBI:
                # x^3 + 2x rewritten in powers of (x - 1)
                coeffs = [Fraction(3), Fraction(5), Fraction(3), Fraction(1)]
            else:
                coeffs = [Fraction(0), Fraction(2), Fraction(0), Fraction(1)]
            coeffs += [Fraction(0)] * (n + 1 - len(coeffs))
            for y in y_points:
                section = kernel_coeffs(table, y)
                pairing = sum(
                    section[a] * matrix.entry(a, b) * coeffs[b]
                    for a in range(n + 1)
                    for b in range(n + 1)
                )
                assert pairing == y**3 + 2 * y, (_label(spec), y)

    _conclude("5 (kernel reproduces x^3 + 2x)", body)


def test_criterion_6_float_output_tracks_exact_values():
    """--float at the default 17 digits stays within 1e-10 relative error of
    the exact determinant and inverse entries (n = 6, full grid)."""

    def body():
        bound = Fraction(1, 10**10)
        for spec in GRID:
            base = ["--family", spec.family.value, *_cli_params(spec), "--n", "6"]
            code, out = _run_cli(["det", *base, "--float", "--output", "json"])
            assert code == 0
            det_float = json.loads(out)["det"]
            det_exact = bareiss_det(moment_matrix(spec, 6))
            assert abs(Fraction(det_float) - det_exact) <= bound * abs(det_exact), _label(spec)

            code, out = _run_cli(["inv", *base, "--float", "--output", "json"])
            assert code == 0
            inv_float = json.loads(out)["result"]
            inv_exact = explicit_inverse(spec, 6)
            for i in range(7):
                for j in range(7):
                    exact = inv_exact.entry(i, j)
                    approx = Fraction(inv_float[i][j])
                    if exact == 0:
                        assert approx == 0, (_label(spec), i, j)
                    else:
                        assert abs(approx - exact) <= bound * abs(exact), (_label(spec), i, j)

    _conclude("6 (float output within 1e-10 relative)", body)


def test_criterion_7_errata_report_runs_and_exits_zero():
    """The as-printed jacobi determinant report always runs to completion,
    prints both values and a verdict, and exits 0; the verdict itself is not
    asserted."""

    def body():
        for alpha, beta in JACOBI_PAIRS:
            code, out = _run_cli(
                ["errata", "--family", "jacobi", "--alpha", str(alpha), "--beta", str(beta),
                 "--n", "3"]
            )
            assert code == 0, (alpha, beta)
            assert "as-printed closed form" in out
            assert "exact determinant" in out
            assert "verdict" in out

    _conclude("7 (errata report runs, exit 0)", body)


def test_criterion_8_even_weight_families_have_checkerboard_zeros():
    """For hermite and every grid gegenbauer, matrix and inverse entries at
    odd i+j are exactly zero for all n = 0..12."""

    def body():
        even_specs = [s for s in GRID if s.family in (Family.HERMITE, Family.GEGENBAUER)]
        for spec in even_specs:
            matrix = moment_matrix(spec, N_MAX)
            for i in range(N_MAX + 1):
                for j in range(N_MAX + 1):
                    if (i + j) % 2:
                        assert matrix.entry(i, j) == 0, (_label(spec), i, j)
            for n in range(N_MAX + 1):
                inverse = explicit_inverse(spec, n)
                for i in range(n + 1):
                    for j in range(n + 1):
                        if (i + j) % 2:
                            assert inverse.entry(i, j) == 0, (_label(spec), n, i, j)

    _conclude("8 (checkerboard zeros for even weights)", body)
