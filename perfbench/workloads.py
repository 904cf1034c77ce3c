"""The benchmark's three workloads: seeded request streams, how one request
runs, and how its output is checked (outside the timed region).

Every stream is a pure function of the seed, and comes in passes.  Each pass
holds the same multiset of (family, n) slots, or of CLI request kinds, and a
run always measures whole passes.  So the cost mix of a run does not depend
on the seed or on how many passes the machine gets through; only the drawn
inputs do.  The seed draws the parameters, the order within each pass, the
kernel points and the CLI options.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import count
from pathlib import Path
from time import perf_counter

from hankelinv.closed_form import explicit_det, explicit_inverse
from hankelinv.elimination import bareiss_det, gauss_inverse
from hankelinv.gram import gram_schmidt, kernel_eval, moment_matrix
from hankelinv.orthopoly import Family, FamilySpec
from hankelinv.verify import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

FAMILIES = tuple(Family)
F = Fraction

# the acceptance battery's parameter grid
GRID: dict[Family, list[dict[str, Fraction]]] = {
    Family.HERMITE: [{}],
    Family.LAGUERRE: [{"alpha": a} for a in (F(-1, 2), F(0), F(1, 2), F(1), F(7, 3))],
    Family.GEGENBAUER: [{"lam": lam} for lam in (F(1, 4), F(1, 2), F(1), F(3, 2))],
    Family.JACOBI: [
        {"alpha": a, "beta": b}
        for a, b in ((F(0), F(0)), (F(1, 2), F(-1, 2)), (F(2), F(3)), (F(1, 3), F(1, 5)))
    ],
}
GRID[Family.SHIFTED_JACOBI] = GRID[Family.JACOBI]

# one fixed point per family, as in ROADMAP's baseline table
TABLE_PARAMS: dict[Family, dict[str, Fraction]] = {
    Family.HERMITE: {},
    Family.LAGUERRE: {"alpha": F(7, 3)},
    Family.GEGENBAUER: {"lam": F(3, 2)},
    Family.JACOBI: {"alpha": F(1, 3), "beta": F(1, 5)},
    Family.SHIFTED_JACOBI: {"alpha": F(1, 3), "beta": F(1, 5)},
}


# where each family's sizes start: the costly jacobi variants take the lower
# sizes, so that no single request dominates a pass
SIZE_OFFSET = {
    Family.JACOBI: 0,
    Family.SHIFTED_JACOBI: 1,
    Family.HERMITE: 2,
    Family.LAGUERRE: 3,
    Family.GEGENBAUER: 4,
}


def slots(lo: int, pass_index: int) -> list[tuple[Family, int]]:
    """15 (family, n) slots over lo..lo+12, three per family at n = lo+o,
    lo+o+4 and lo+o+8, so each family spans the range and n is close to
    uniform.  Hermite has no parameters, so its sizes rotate from pass to pass
    to keep its (spec, n) distinct."""
    out = []
    for family, offset in SIZE_OFFSET.items():
        shift = pass_index if family is Family.HERMITE else 0
        out += [(family, lo + (offset + 4 * j + shift) % 13) for j in range(3)]
    return out


class ParamSource:
    """Family parameters: alternately an acceptance-grid point and a random
    in-domain rational p/q with |p|, q <= 9; every fourth random draw is a
    domain corner (alpha -> -1, alpha + beta = -1, lambda -> -1/2)."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.uses: Counter[Family] = Counter()
        self.grid_offset = {family: rng.randrange(len(GRID[family])) for family in FAMILIES}

    def draw(self, family: Family) -> FamilySpec:
        k = self.uses[family]
        self.uses[family] += 1
        if family is Family.HERMITE:
            return FamilySpec(family)
        if k % 2 == 0:
            grid = GRID[family]
            return FamilySpec(family, **grid[(self.grid_offset[family] + k // 2) % len(grid)])
        corner = (k // 2) % 4 == 3
        return FamilySpec(family, **self._random(family, corner))

    def _rational(self, above: Fraction) -> Fraction:
        while True:
            value = F(self.rng.randint(-9, 9), self.rng.randint(1, 9))
            if value > above:
                return value

    def _random(self, family: Family, corner: bool) -> dict[str, Fraction]:
        if family is Family.LAGUERRE:
            return {"alpha": F(-8, 9) if corner else self._rational(F(-1))}
        if family is Family.GEGENBAUER:
            if corner:
                return {"lam": F(-4, 9)}
            lam = F(0)
            while not lam:
                lam = self._rational(F(-1, 2))
            return {"lam": lam}
        if corner and self.rng.random() < 0.5:
            q = self.rng.randint(2, 9)
            alpha = F(-self.rng.randint(1, q - 1), q)
            return {"alpha": alpha, "beta": -1 - alpha}
        alpha = F(-8, 9) if corner else self._rational(F(-1))
        return {"alpha": alpha, "beta": self._rational(F(-1))}


class FreshPairs:
    """(spec, n) pairs that were not drawn before: the parameters are redrawn,
    up to REDRAWS times, until the pair is new.  Hermite has no parameters to
    redraw, so its pairs are taken as they come."""

    REDRAWS = 100

    def __init__(self, params: ParamSource) -> None:
        self.params = params
        self.seen: set[tuple[FamilySpec, int]] = set()

    def draw(self, family: Family, n: int) -> tuple[FamilySpec, int]:
        for _ in range(self.REDRAWS):
            spec = self.params.draw(family)
            if (spec, n) not in self.seen or family is Family.HERMITE:
                break
        self.seen.add((spec, n))
        return spec, n


def _family_rounds(rng: random.Random):
    """Endless family stream, every round of five in a fresh order."""
    while True:
        families = list(FAMILIES)
        rng.shuffle(families)
        yield from families


def _point(rng: random.Random) -> Fraction:
    """A kernel evaluation point of height <= 99."""
    return F(rng.randint(-99, 99), rng.randint(1, 99))


def table_spec(family: Family) -> FamilySpec:
    return FamilySpec(family, **TABLE_PARAMS[family])


def height(value: Fraction) -> int:
    return max(abs(value.numerator), value.denominator)


def _spec_height(spec: FamilySpec) -> int:
    return max((height(v) for v in spec.params().values()), default=0)


def _repeat_share(keys: list) -> float:
    seen: set = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return repeats / len(keys)


def _shares(values) -> dict[str, float]:
    counts = Counter(values)
    total = sum(counts.values())
    return {str(k): round(v / total, 4) for k, v in sorted(counts.items(), key=lambda kv: str(kv[0]))}


def _spec_properties(pairs: list[tuple[FamilySpec, int]]) -> dict:
    return {
        "family_shares": _shares(spec.family.value for spec, _ in pairs),
        "n_range": [min(n for _, n in pairs), max(n for _, n in pairs)],
        "param_height_max": max(_spec_height(spec) for spec, _ in pairs),
        "repeat_share": round(_repeat_share(pairs), 4),
    }


class KernelOracle:
    """v(x)^T . gauss_inverse(moment_matrix) . v(y), with the elimination
    inverse computed once per (spec, n): independent of the ``gram`` engine.

    The inverse is kept as an integer matrix over one common denominator, and
    v(p/q)_i = p^i q^(n-i) / q^n, so the products run on integers."""

    def __init__(self) -> None:
        self._scaled: dict[tuple[FamilySpec, int], tuple[int, list[list[int]]]] = {}

    def value(self, spec: FamilySpec, n: int, x: Fraction, y: Fraction) -> Fraction:
        key = (spec, n)
        if key not in self._scaled:
            rows = gauss_inverse(moment_matrix(spec, n)).rows
            common = math.lcm(*(e.denominator for row in rows for e in row))
            self._scaled[key] = (
                common,
                [[e.numerator * (common // e.denominator) for e in row] for row in rows],
            )
        common, scaled = self._scaled[key]
        tx, ty = x - spec.basis_origin, y - spec.basis_origin
        vx, vy = _scaled_powers(tx, n), _scaled_powers(ty, n)
        total = sum(a * sum(c * b for c, b in zip(row, vy)) for a, row in zip(vx, scaled))
        return F(total, common * tx.denominator**n * ty.denominator**n)


def _scaled_powers(t: Fraction, n: int) -> list[int]:
    p, q = t.numerator, t.denominator
    return [p**i * q ** (n - i) for i in range(n + 1)]


# -- host speed ----------------------------------------------------------------
#
# A shared host can switch, for seconds to minutes at a time, between a fast
# state and one in which all compute runs 1.5-2x slower (as a 2-vCPU Xeon VM
# was seen to do, with no steal time reported).  The benchmark therefore times a fixed probe, which calls nothing in hankelinv,
# between consecutive requests, and divides each request's wall time by the
# probe's slowdown against its nominal duration: the time the request would
# have taken on the reference host, a 2-vCPU Xeon VM in its fast state.

# nominal probe durations on the reference host; each is the minimum seen there
COMPUTE_PROBE_S = 2.55e-3
SPAWN_PROBE_S = 25.6e-3

# big integers for the probe's gcds, ~5.5k and ~7.6k bits
_X, _Y = 3**3500, 7**2700


def _hilbert_elimination() -> None:
    """Small-Fraction work: eliminate the 10x10 Hilbert matrix."""
    n = 10
    a = [[F(1, i + j + 1) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]


def _big_gcds() -> None:
    """Big-integer work, as in the large-n Fractions."""
    for i in range(4):
        math.gcd(_X * _Y + i, _Y * _Y + 3)


def _fastest_of_3(work) -> float:
    times = []
    for _ in range(3):
        start = perf_counter()
        work()
        times.append(perf_counter() - start)
    return min(times)


def compute_slowdown() -> float:
    """Host slowdown on exact rational arithmetic, like the in-process work.
    Both halves are needed: small-Fraction work slows more than the library's
    requests in the slow state, big-integer work less."""
    probe = _fastest_of_3(_hilbert_elimination) + _fastest_of_3(_big_gcds)
    return probe / COMPUTE_PROBE_S


def spawn_slowdown() -> float:
    """Host slowdown on starting an interpreter and importing the standard
    modules the CLI starts with, like the CLI's requests."""
    start = perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "import argparse, fractions, json"], check=True)
    return (perf_counter() - start) / SPAWN_PROBE_S


# -- verify-sweep ------------------------------------------------------------


@dataclass(frozen=True)
class VerifyRequest:
    spec: FamilySpec
    n: int


class VerifySweep:
    """verify(spec, n): the three routes cross-checked.  n in 12..24; no
    (spec, n) repeats, hermite's after its 13 sizes aside.  closed_form and
    elimination (with the E @ M product) do nearly all the work."""

    name = "verify-sweep"
    setup_module = "hankelinv"
    slowdown = staticmethod(compute_slowdown)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def passes(self):
        rng = random.Random(f"{self.name}/{self.seed}")
        pairs = FreshPairs(ParamSource(rng))
        for pass_index in count():
            batch = [VerifyRequest(*pairs.draw(f, n)) for f, n in slots(12, pass_index)]
            rng.shuffle(batch)
            yield batch

    def table_requests(self) -> list[VerifyRequest]:
        return [VerifyRequest(table_spec(f), n) for n in (12, 24) for f in FAMILIES]

    def execute(self, request: VerifyRequest, tracer=None):
        return verify(request.spec, request.n)

    def check(self, request: VerifyRequest, outcome) -> str:
        return "ok" if outcome.passed else "wrong"

    def properties(self, requests: list[VerifyRequest]) -> dict:
        return _spec_properties([(r.spec, r.n) for r in requests])


# -- kernel-sweep ------------------------------------------------------------


@dataclass(frozen=True)
class KernelRequest:
    spec: FamilySpec
    n: int
    points: tuple[tuple[Fraction, Fraction], ...]


POINTS_PER_REQUEST = 16


class KernelSweep:
    """gram_schmidt(spec, n), then kernel_eval at 16 rational point pairs of
    height <= 99.  n in 28..40.  A pass is 15 fresh (spec, n) plus each of a
    pool of 8 twice.  The pool holds the table parameters at 8 of the 15
    sizes, the same for every seed, so that the reused half of a run costs
    the same whatever the seed.  Hermite has no parameters to redraw, so its
    3 slots keep their sizes and recur too: from the second pass on, 19 of
    the 31 requests of every pass reuse a (spec, n), however many passes a
    run gets through.  gram does nearly all the work; closed_form and
    elimination are never called.  The checks invert each fresh moment
    matrix once, so their cost grows with the number of passes."""

    name = "kernel-sweep"
    setup_module = "hankelinv"
    slowdown = staticmethod(compute_slowdown)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.oracle = KernelOracle()

    def passes(self):
        rng = random.Random(f"{self.name}/{self.seed}")
        fresh = FreshPairs(ParamSource(rng))
        pool = [(table_spec(f), n) for f, n in slots(28, 0)[::2]]
        fresh.seen.update(pool)
        while True:
            pairs = [fresh.draw(f, n) for f, n in slots(28, 0)] + pool + pool
            batch = [KernelRequest(spec, n, self._points(rng)) for spec, n in pairs]
            rng.shuffle(batch)
            yield batch

    @staticmethod
    def _points(rng: random.Random) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple((_point(rng), _point(rng)) for _ in range(POINTS_PER_REQUEST))

    def table_requests(self) -> list[KernelRequest]:
        rng = random.Random(f"{self.name}/table")
        return [KernelRequest(table_spec(f), 40, self._points(rng)) for f in FAMILIES]

    def execute(self, request: KernelRequest, tracer=None):
        table = gram_schmidt(request.spec, request.n)
        return [kernel_eval(table, x, y) for x, y in request.points]

    def check(self, request: KernelRequest, outcome) -> str:
        expected = [self.oracle.value(request.spec, request.n, x, y) for x, y in request.points]
        return "ok" if outcome == expected else "wrong"

    def properties(self, requests: list[KernelRequest]) -> dict:
        out = _spec_properties([(r.spec, r.n) for r in requests])
        out["point_height_max"] = max(height(v) for r in requests for p in r.points for v in p)
        out["points_per_request"] = POINTS_PER_REQUEST
        return out


# -- cli-requests ------------------------------------------------------------


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    command: str
    spec: FamilySpec | None = None  # None: a malformed or out-of-domain request
    n: int = 0
    method: str = "explicit"
    output: str = "pretty"
    as_float: bool = False
    digits: int = 17
    unnormalized: bool = False
    x: Fraction | None = None
    y: Fraction | None = None


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


# one block of 20 requests: 16 value requests, one verify, one errata and two
# invalid ones (one in ten); 4 of the 16 value requests use --float, 2 of
# those with --unnormalized
BLOCK = ("gen",) * 2 + ("det",) * 5 + ("inv",) * 5 + ("kernel",) * 4 + (
    "verify", "errata", "invalid", "invalid",
)
FLOATS_PER_BLOCK = 4
UNNORMALIZED_PER_BLOCK = 2
METHODS = ("explicit", "kernel", "oracle")
OUTPUTS = ("pretty", "json", "csv")


def _invalid_argv(rng: random.Random) -> list[str]:
    """A malformed or out-of-domain request; each must exit 2."""
    n = str(rng.randint(0, 10))
    kinds = [
        ["det", "--family", "legendre", "--n", n],
        ["det", "--family", "hermite", "--n", "two"],
        ["det", "--family", "hermite", "--n", str(-rng.randint(1, 5))],
        ["det", "--family", "laguerre", "--alpha", "1.5", "--n", n],
        ["inv", "--family", "laguerre", "--alpha", f"{rng.randint(1, 9)}/0", "--n", n],
        ["det", "--family", "laguerre", "--alpha", f"-{rng.randint(1, 9)}", "--n", n],
        ["gen", "--family", "gegenbauer", "--lambda", "0", "--n", n],
        ["gen", "--family", "gegenbauer", "--lambda", f"-{rng.randint(1, 9)}/2", "--n", n],
        ["inv", "--family", "jacobi", "--alpha", "1/2", "--beta", "-1", "--n", n],
        ["det", "--family", "jacobi-shifted", "--alpha", "1/2", "--n", n],
        ["det", "--family", "hermite", "--alpha", "1", "--n", n],
        ["det", "--family", "hermite", "--n", n, "--unnormalized"],
        ["det", "--family", "hermite", "--n", n, "--float", "--digits", "0"],
        ["errata", "--family", "laguerre", "--alpha", "1", "--n", n],
    ]
    return rng.choice(kinds)


def _argv(call: CliCall) -> tuple[str, ...]:
    argv = [call.command, "--family", call.spec.family.value, "--n", str(call.n)]
    for key, value in call.spec.params().items():
        argv += [f"--{key}", str(value)]
    if call.command in ("det", "inv"):
        argv += ["--method", call.method]
    argv += ["--output", call.output]
    if call.as_float:
        argv.append("--float")
        if call.digits != 17:
            argv += ["--digits", str(call.digits)]
    if call.unnormalized:
        argv.append("--unnormalized")
    if call.x is not None:
        argv += ["--x", str(call.x), "--y", str(call.y)]
    return tuple(argv)


def _mass(spec: FamilySpec) -> float:
    """Total mass of the family's unnormalized weight, in double precision."""
    g = math.gamma
    if spec.family is Family.HERMITE:
        return math.sqrt(math.pi)
    if spec.family is Family.LAGUERRE:
        return g(spec.alpha + 1)
    if spec.family is Family.GEGENBAUER:
        lam = float(spec.lam)
        return g(0.5) * g(lam + 0.5) / g(lam + 1)
    a, b = float(spec.alpha), float(spec.beta)
    return 2 ** (a + b + 1) * g(a + 1) * g(b + 1) / g(a + b + 2)


def _cells(output: str, command: str, stdout: str) -> list[list]:
    """The printed value as rows of cells (a scalar is one 1x1 row)."""
    if output == "json":
        doc = json.loads(stdout)
        value = doc["det"] if command == "det" else doc["result"]
        return value if isinstance(value, list) else [[value]]
    if output == "csv":
        return list(csv.reader(io.StringIO(stdout)))
    return [line.split() for line in stdout.splitlines()]


def _verify_passed(output: str, stdout: str) -> bool:
    if output == "json":
        return json.loads(stdout)["passed"] is True
    if output == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        return bool(rows) and all(row[1] == "pass" for row in rows)
    passed, total = stdout.splitlines()[-1].split()[0].split("/")
    return passed == total


def _errata_exact(output: str, stdout: str) -> Fraction:
    if output == "json":
        return F(json.loads(stdout)["exact"])
    if output == "csv":
        return F(dict(csv.reader(io.StringIO(stdout)))["exact"])
    line = next(l for l in stdout.splitlines() if l.startswith("exact determinant"))
    return F(line.split(":", 1)[1].split("~")[0].strip())


def _errata_pole(call: CliCall, result: CliResult) -> bool:
    """The known defect of ROADMAP item 4: errata on the jacobi corner
    alpha + beta = -1 dies on mpmath's gamma pole with exit 1."""
    spec = call.spec
    return (
        call.command == "errata"
        and spec.family is Family.JACOBI
        and spec.alpha + spec.beta == -1
        and result.code == 1
        and result.stderr.rstrip().endswith("ValueError: gamma function pole")
    )


def _close(printed: float, expected: float) -> bool:
    return abs(printed - expected) <= 1e-10 * abs(expected)


class CliRequests:
    """One ``python -m hankelinv`` subprocess per request: gen/det/inv/kernel,
    a few verify and errata, all methods and output formats, a quarter with
    --float.  n in 0..10.  Interpreter start, import, argparse and formatting
    dominate."""

    name = "cli-requests"
    setup_module = "hankelinv.cli"
    slowdown = staticmethod(spawn_slowdown)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.oracle = KernelOracle()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def passes(self):
        rng = random.Random(f"{self.name}/{self.seed}")
        params = ParamSource(rng)
        families = _family_rounds(rng)
        option = count(rng.randrange(9))  # walks the 9 (method, output) pairs
        while True:
            block = list(BLOCK)
            rng.shuffle(block)
            value_slots = [i for i, c in enumerate(block) if c in ("gen", "det", "inv", "kernel")]
            floats = rng.sample(value_slots, FLOATS_PER_BLOCK)
            unnormalized = floats[:UNNORMALIZED_PER_BLOCK]
            batch = []
            for i, command in enumerate(block):
                if command == "invalid":
                    batch.append(CliCall(tuple(_invalid_argv(rng)), "invalid"))
                    continue
                k = next(option)
                kernel = command == "kernel"
                call = CliCall(
                    (),
                    command,
                    spec=params.draw(Family.JACOBI if command == "errata" else next(families)),
                    n=rng.randint(0, 10),
                    method=METHODS[k % 3],
                    output=OUTPUTS[k // 3 % 3],
                    as_float=i in floats,
                    digits=rng.choice((17, 12)) if i in floats else 17,
                    unnormalized=i in unnormalized,
                    x=_point(rng) if kernel else None,
                    y=_point(rng) if kernel else None,
                )
                batch.append(replace(call, argv=_argv(call)))
            yield batch

    def table_requests(self) -> list[CliCall]:
        return []

    def execute(self, call: CliCall, tracer=None) -> CliResult:
        if tracer is None:
            command = [sys.executable, "-m", "hankelinv", *call.argv]
            proc = subprocess.run(
                command, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120
            )
            return CliResult(proc.returncode, proc.stdout, proc.stderr)
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"cli-child-{os.getpid()}.json"
        command = [sys.executable, str(HERE / "cli_child.py"), str(spans_file), *call.argv]
        start = perf_counter()
        proc = subprocess.run(
            command, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120
        )
        wall = perf_counter() - start
        tracer.merge_child(json.loads(spans_file.read_text()), wall)
        spans_file.unlink()
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def check(self, call: CliCall, result: CliResult) -> str:
        if result.code != (2 if call.spec is None else 0):
            return "known-defect" if _errata_pole(call, result) else "error"
        return "ok" if self._output_ok(call, result) else "wrong"

    def _output_ok(self, call: CliCall, result: CliResult) -> bool:
        if call.spec is None:  # one error line, no traceback
            errors = [line for line in result.stderr.splitlines() if "error:" in line]
            return not result.stdout and "Traceback" not in result.stderr and len(errors) == 1
        spec, n = call.spec, call.n
        if call.command == "verify":
            return _verify_passed(call.output, result.stdout)
        if call.command == "errata":
            return _errata_exact(call.output, result.stdout) == explicit_det(spec, n)
        expected = self._reference(call)
        printed = _cells(call.output, call.command, result.stdout)
        if len(printed) != len(expected) or any(
            len(p) != len(e) for p, e in zip(printed, expected)
        ):
            return False
        if not call.as_float:
            return all(F(p) == e for prow, erow in zip(printed, expected) for p, e in zip(prow, erow))
        power = {"gen": 1, "det": n + 1, "inv": -1, "kernel": -1}[call.command]
        scale = _mass(spec) ** power if call.unnormalized else 1.0
        return all(
            _close(float(p), float(e) * scale)
            for prow, erow in zip(printed, expected)
            for p, e in zip(prow, erow)
        )

    def _reference(self, call: CliCall) -> list[list[Fraction]]:
        """The exact value by a route other than the one the request used."""
        spec, n = call.spec, call.n
        if call.command == "gen":
            return gauss_inverse(explicit_inverse(spec, n)).to_lists()
        if call.command == "det":
            if call.method == "oracle":
                return [[explicit_det(spec, n)]]
            return [[bareiss_det(moment_matrix(spec, n))]]
        if call.command == "inv":
            if call.method == "oracle":
                return explicit_inverse(spec, n).to_lists()
            return gauss_inverse(moment_matrix(spec, n)).to_lists()
        return [[self.oracle.value(spec, n, call.x, call.y)]]

    def properties(self, calls: list[CliCall]) -> dict:
        valid = [c for c in calls if c.spec is not None]
        out = _spec_properties([(c.spec, c.n) for c in valid])
        out.update(
            command_shares=_shares(c.command for c in calls),
            method_shares=_shares(c.method for c in valid if c.command in ("det", "inv")),
            output_shares=_shares(c.output for c in valid),
            float_share=round(sum(c.as_float for c in calls) / len(calls), 4),
            unnormalized_share=round(sum(c.unnormalized for c in calls) / len(calls), 4),
            invalid_share=round((len(calls) - len(valid)) / len(calls), 4),
        )
        return out


WORKLOADS = {w.name: w for w in (VerifySweep, KernelSweep, CliRequests)}
