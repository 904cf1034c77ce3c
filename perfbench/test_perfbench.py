"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

from __future__ import annotations

import sys
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def _first_passes(name: str, seed: int, count: int = 2) -> list:
    return [r for batch in islice(workloads.WORKLOADS[name](seed).passes(), count) for r in batch]


def test_same_seed_gives_same_inputs():
    for name in workloads.WORKLOADS:
        assert _first_passes(name, 5) == _first_passes(name, 5), name
        assert _first_passes(name, 5) != _first_passes(name, 6), name
    verify_sweep = workloads.VerifySweep(5)
    assert verify_sweep.properties(_first_passes("verify-sweep", 5, 4))["repeat_share"] == 0


def test_kernel_sweep_reuse_share_does_not_grow_with_passes():
    """From the second pass on, each pass reuses the same number of (spec, n)."""
    seen: set = set()
    reused = []
    for batch in islice(workloads.KernelSweep(5).passes(), 12):
        pairs = [(r.spec, r.n) for r in batch]
        reused.append(sum(pair in seen for pair in pairs))
        seen.update(pairs)
    assert reused[1:] == [19] * 11, reused


def test_passes_share_one_cost_mix():
    """Every pass holds the same (family, n) slots, hermite's rotation aside."""
    def mix(batch):
        return sorted((r.spec.family.value, r.n) for r in batch if r.spec.family.value != "hermite")

    for name in ("verify-sweep", "kernel-sweep"):
        first, second = islice(workloads.WORKLOADS[name](3).passes(), 2)
        assert mix(first) == mix(second), name


class _TinyKernelSweep(workloads.KernelSweep):
    """Three small requests per pass; the second one returns a corrupted
    result, or raises."""

    def __init__(self, fault: str) -> None:
        super().__init__(0)
        self.fault = fault

    def passes(self):
        spec = workloads.table_spec(workloads.Family.LAGUERRE)
        points = ((Fraction(1, 3), Fraction(-2, 5)),)
        while True:
            yield [workloads.KernelRequest(spec, n, points) for n in (2, 3, 4)]

    def execute(self, request, tracer=None):
        values = super().execute(request, tracer)
        if request.n != 3:
            return values
        if self.fault == "raise":
            raise ZeroDivisionError("injected")
        return [values[0] + 1]


@pytest.mark.parametrize("fault", ("wrong", "raise"))
def test_corrupted_result_counts_in_error_rate(fault):
    args = type("Args", (), {"seed": 0, "seconds": 0.0, "trace": 0})()
    result = run.measure(_TinyKernelSweep(fault), args)
    assert result["attempted"] == 3
    assert result["failed"] == 1
    assert result["metrics"]["error_rate"] == 1 / 3
    assert result["correct"] is False


def test_times_are_divided_by_the_host_slowdown():
    workload = _TinyKernelSweep("wrong")
    workload.slowdown = lambda: 2.0
    args = type("Args", (), {"seed": 0, "seconds": 0.0, "trace": 0})()
    metrics = run.measure(workload, args)["metrics"]
    assert metrics["throughput_rps"] == pytest.approx(2 * metrics["wall_throughput_rps"])
    assert metrics["latency_p50_ms"] == pytest.approx(metrics["wall_latency_p50_ms"] / 2)
    assert metrics["latency_p90_ms"] == pytest.approx(metrics["wall_latency_p90_ms"] / 2)


def test_only_the_known_errata_pole_is_tolerated():
    cli = workloads.CliRequests(0)
    jacobi = workloads.Family.JACOBI
    calls = [
        workloads.CliCall((), "errata", spec=workloads.FamilySpec(jacobi, alpha=a, beta=b), n=2)
        for a, b in ((Fraction(-1, 2), Fraction(-1, 2)), (Fraction(1, 3), Fraction(1, 5)))
    ]
    calls = [replace(call, argv=workloads._argv(call)) for call in calls]
    pole, regular = (cli.execute(call) for call in calls)
    assert run.verdicts(cli, calls, [pole, regular]) == ["known-defect", "ok"]
    assert run.verdicts(cli, calls[1:], [replace(regular, code=1)]) == ["error"]
    assert run.is_correct(["ok", "known-defect"]) and not run.is_correct(["ok", "error"])


def test_corrupted_cli_output_is_rejected():
    cli = workloads.CliRequests(0)
    spec = workloads.table_spec(workloads.Family.LAGUERRE)
    call = workloads.CliCall((), "det", spec=spec, n=3, method="kernel", output="json")
    call = replace(call, argv=workloads._argv(call))
    result = cli.execute(call)
    assert cli.check(call, result) == "ok"
    digits = [c for c in result.stdout if c.isdigit()]
    corrupted = result.stdout.replace(digits[-1], str((int(digits[-1]) + 1) % 10))
    assert run.verdicts(cli, [call], [replace(result, stdout=corrupted)]) == ["wrong"]
    assert run.verdicts(cli, [call], [replace(result, code=1)]) == ["error"]


def test_self_time_is_duration_minus_child_coverage():
    tree = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 7.0, 0, 0),
        Span("c", 6.0, 8.0, 0, 0),  # overlaps b: the covered time counts once
    ]
    assert self_times(tree) == [4.0, 2.0, 1.0, 2.0, 2.0]


def test_tracer_wraps_every_binding_and_restores_them():
    from hankelinv.orthopoly import FamilySpec

    # the package rebinds hankelinv.verify to the function, so go by sys.modules
    closed_form, special, verify_module = (
        sys.modules[f"hankelinv.{name}"] for name in ("closed_form", "special", "verify")
    )

    originals = (special.pochhammer, closed_form.pochhammer, verify_module.explicit_inverse)
    tracer = Tracer()
    tracer.install()
    try:
        assert closed_form.pochhammer is not originals[1]
        assert verify_module.explicit_inverse is not originals[2]
        verify_module.verify(FamilySpec.laguerre(Fraction(1, 2)), 3)
    finally:
        tracer.uninstall()
    assert (special.pochhammer, closed_form.pochhammer, verify_module.explicit_inverse) == originals
    metrics = tracer.layer_metrics()
    assert metrics["verify.verify.calls"] == 1
    assert metrics["closed_form.explicit_inverse.calls"] == 1
    assert metrics["special.pochhammer.calls"] > 0
    names = {f"{m}.{f}" for m, f, _ in spans.TARGETS}
    assert all(s.name in names | {spans.BITS_SPAN} for s in tracer.spans)
