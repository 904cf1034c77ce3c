"""Benchmark of hankelinv: three closed-loop workloads with one client each.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py):
  verify-sweep  verify(spec, n), n in 12..24: closed_form and elimination
  kernel-sweep  gram_schmidt + 16 kernel_eval, n in 28..40: gram only
  cli-requests  one `python -m hankelinv` subprocess per request, n in 0..10

--trace 0 runs whole passes of the workload until --seconds have passed (the
next request starts when the previous one returns), then checks every output
and prints the end-to-end metrics.  Times are given in reference-host time
(units s, 1/ref-s and ref-ms): each request's, and each set-up probe's, wall
time is divided by the slowdown that a fixed probe, run just before and just
after it, reads on the host (see workloads.py), so that they measure the
program and not the passing state of a shared host.  The raw wall figures are
printed beside them.  --trace 1 instead runs a fixed request list (the
per-family table requests, then the first pass), each request once untraced
and once under the span tracer, and prints the per-layer metrics and the
layer table; its call counts repeat exactly for a given seed.  --seconds
defaults to BENCHMARK.json's run_seconds.  Outputs are checked in both modes.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `failed` counts every request that raised,
exited with the wrong code or gave a wrong value; `correct` is false if any
did, except for the one known defect that cli-requests can hit (ROADMAP item
4: errata on jacobi with alpha + beta = -1 dies on a gamma pole).  Full
results, and the spans of a traced run, are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("verify-sweep", "kernel-sweep", "cli-requests")
SETUP_PROBES = 7


TABLE_ROWS = (
    "gram.gram_schmidt",
    "gram.kernel_inverse",
    "gram.kernel_eval",
    "closed_form.explicit_inverse",
    "closed_form.explicit_det",
    "elimination.gauss_inverse",
    "elimination.bareiss_det",
    "gram.moment_matrix",
    "gram.ExactMatrix.__matmul__",
    "verify.verify",
)


class Failed:
    """Outcome of a request that raised."""

    def __init__(self, exc: Exception) -> None:
        self.error = f"{type(exc).__name__}: {exc}"


def attempt(workload, request, tracer=None):
    try:
        return workload.execute(request, tracer)
    except Exception as exc:  # a failing request is counted, never fatal
        return Failed(exc)


def verdicts(workload, requests, outcomes) -> list[str]:
    """Per request: "ok", "error" (raised, or wrong exit code), "wrong"
    (returned a value that the check rejects) or "known-defect"."""
    out = []
    for request, outcome in zip(requests, outcomes):
        if isinstance(outcome, Failed):
            out.append("error")
            continue
        try:
            out.append(workload.check(request, outcome))
        except Exception:  # output the check cannot even parse is wrong output
            out.append("wrong")
    return out


def is_correct(checked: list[str]) -> bool:
    return all(v in ("ok", "known-defect") for v in checked)


def benchmark_doc() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    doc = benchmark_doc()
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_seconds(module: str) -> tuple[float, float]:
    """Median time of a fresh interpreter importing ``module``, in
    reference-host seconds (each probe divided by the interpreter-start
    slowdown read around it), and the median wall time."""
    from workloads import spawn_slowdown

    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, scaled = [], []
    before = spawn_slowdown()
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], cwd=ROOT, env=env, check=True)
        walls.append(perf_counter() - start)
        after = spawn_slowdown()
        scaled.append(walls[-1] / ((before + after) / 2))
        before = after
    return statistics.median(scaled), statistics.median(walls)


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-requests" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def context(args, samples: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "loop": "closed",
        "samples": samples,
    }


def measure(workload, args) -> dict:
    """Untraced closed loop over whole passes until ``args.seconds`` have
    passed, then the output checks.  Each request's wall time is divided by
    the host slowdown that the probes just before and just after it read."""
    setup, wall_setup = setup_seconds(workload.setup_module)
    passes = workload.passes()
    requests, outcomes, walls, slowdowns = [], [], [], []
    before = workload.slowdown()
    start = perf_counter()
    while not requests or perf_counter() - start < args.seconds:
        for request in next(passes):
            t0 = perf_counter()
            outcomes.append(attempt(workload, request))
            walls.append(perf_counter() - t0)
            after = workload.slowdown()
            slowdowns.append((before + after) / 2)
            before = after
            requests.append(request)
    rss = peak_rss_mb(workload)
    checked = verdicts(workload, requests, outcomes)
    failed = sum(v != "ok" for v in checked)
    latencies = [wall / slow for wall, slow in zip(walls, slowdowns)]
    metrics = {
        "setup_s": setup,
        "throughput_rps": len(requests) / sum(latencies),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "error_rate": failed / len(requests),
        "peak_rss_mb": rss,
        "wall_setup_s": wall_setup,
        "wall_throughput_rps": len(requests) / sum(walls),
        "wall_latency_p50_ms": percentile(walls, 50) * 1e3,
        "wall_latency_p90_ms": percentile(walls, 90) * 1e3,
        "host_slowdown_p50": statistics.median(slowdowns),
    }
    return {
        "workload": workload.name,
        "context": context(args, len(requests)),
        "properties": workload.properties(requests),
        "correct": is_correct(checked),
        "attempted": len(requests),
        "failed": failed,
        "failures": failure_notes(requests, outcomes, checked),
        "metrics": metrics,
        # printed with the others but not in BENCHMARK.json: error_rate is 0
        # on a correct program (`failed` carries it there), and the wall_*
        # figures and the slowdown are the raw readings behind the others
        "units": {
            **declared_units(0),
            "error_rate": "ratio",
            "wall_setup_s": "s",
            "wall_throughput_rps": "1/s",
            "wall_latency_p50_ms": "ms",
            "wall_latency_p90_ms": "ms",
            "host_slowdown_p50": "ratio",
        },
    }


def failure_notes(requests, outcomes, checked) -> list[str]:
    notes = []
    for request, outcome, verdict in zip(requests, outcomes, checked):
        if verdict != "ok":
            detail = outcome.error if isinstance(outcome, Failed) else getattr(outcome, "stderr", "")
            last = (detail.strip().splitlines() or [""])[-1]
            notes.append(f"{verdict}: {repr(request)[:300]} {last[:300]}")
    return notes


def traced(workload, args) -> dict:
    """The table requests and the first pass, each run once untraced and once
    traced (alternating which goes first); per-layer metrics."""
    from spans import Tracer, self_times

    table = workload.table_requests()
    requests = table + next(workload.passes())
    tracer = Tracer()
    outcomes, walls = [], []
    untraced_s = 0.0
    for index, request in enumerate(requests):
        for with_trace in (False, True) if index % 2 == 0 else (True, False):
            if not with_trace:
                t0 = perf_counter()
                attempt(workload, request)
                untraced_s += perf_counter() - t0
                continue
            tracer.request = index
            tracer.install()
            try:
                t0 = perf_counter()
                outcomes.append(attempt(workload, request, tracer))
                walls.append(perf_counter() - t0)
            finally:
                tracer.uninstall()

    checked = verdicts(workload, requests, outcomes)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = sum(walls) / untraced_s

    own = self_times(tracer.spans)
    per_request: list[dict[str, float]] = [{} for _ in requests]
    for span, seconds in zip(tracer.spans, own):
        per_request[span.request][span.name] = per_request[span.request].get(span.name, 0.0) + seconds
    tables = layer_tables(table, per_request, walls)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.json"
    spans_path.write_text(json.dumps(tracer.export()))
    return {
        "workload": workload.name,
        "context": context(args, len(requests)),
        "properties": workload.properties(requests),
        "correct": is_correct(checked),
        "attempted": len(requests),
        "failed": sum(v != "ok" for v in checked),
        "failures": failure_notes(requests, outcomes, checked),
        "metrics": metrics,
        "layer_tables": tables,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def layer_tables(table, per_request, walls) -> dict[str, dict[str, dict[str, float]]]:
    """{"n=12": {family: {layer: self ms}}} for the leading table requests."""
    out: dict[str, dict[str, dict[str, float]]] = {}
    for index, request in enumerate(table):
        row = {name: per_request[index].get(name, 0.0) * 1e3 for name in TABLE_ROWS}
        row["request (all)"] = walls[index] * 1e3
        out.setdefault(f"n={request.n}", {})[request.spec.family.value] = row
    return out


def print_report(result: dict) -> None:
    ctx = result["context"]
    print(
        f"== {result['workload']}  seed={ctx['seed']}  trace={ctx['trace']}  "
        f"samples={ctx['samples']}  clients=1 (closed loop)  nproc={ctx['nproc']}  "
        f"python={ctx['python']}"
    )
    if ctx["trace"]:
        for name, value in result["metrics"].items():
            print(f"  {name:48s} {value:.6g}")
        for label, columns in result["layer_tables"].items():
            families = list(columns)
            print(f"  layer self time, ms, {result['workload']} {label}")
            print("    " + f"{'layer':30s}" + "".join(f"{f:>15s}" for f in families))
            for layer in (*TABLE_ROWS, "request (all)"):
                print("    " + f"{layer:30s}" + "".join(f"{columns[f][layer]:15.1f}" for f in families))
    else:
        for name, value in result["metrics"].items():
            unit = result["units"][name]
            extra = f"  (n={ctx['samples']})" if name.startswith("latency") else ""
            print(f"  {name:16s} {value:.6g} {unit}{extra}")
    print(f"  properties {json.dumps(result['properties'])}")
    print(f"  attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    for note in result["failures"][:10]:
        print(f"  {note}")


def summary_line(result: dict, trace: int) -> str:
    """The result as the last output line, with the metrics and units that
    BENCHMARK.json declares for this mode."""
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": result["metrics"][name], "unit": unit}
                for name, unit in declared_units(trace).items()
            },
        }
    )


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS is per workload."""
    code = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        code = max(code, subprocess.run(command, cwd=ROOT).returncode)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark_doc()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hankelinv" / "__init__.py").is_file():
        sys.stderr.write(f"error: no hankelinv sources under {SRC}\n")
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    result = traced(workload, args) if args.trace else measure(workload, args)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1)
    )
    print_report(result)
    print(summary_line(result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
