"""In-memory span tracer for the benchmark's traced run.

The program is measured from outside: each listed library function is
replaced, at every module binding that holds it, by a wrapper that counts its
calls or records a span around them.  ``uninstall`` puts the originals back.

A span records name, start, end, parent span and request id.  Spans stay in
memory until the run writes them out.  A layer's self time is its spans'
duration minus the part of that interval their child spans cover.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import wraps
from time import perf_counter

# (module, function, kind): "count" wrappers only count calls, which keeps the
# overhead of the many small special/orthopoly calls bounded; "span" wrappers
# also record a span and the bit size of the result.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("special", "pochhammer", "count"),
    ("special", "hyp_terminating", "count"),
    ("special", "binomial", "count"),
    ("special", "barnes_g_int", "count"),
    ("orthopoly", "special_value", "count"),
    ("orthopoly", "norm_squared", "count"),
    ("closed_form", "explicit_inverse", "span"),
    ("closed_form", "explicit_det", "span"),
    ("closed_form", "jacobi_det_as_printed", "span"),
    ("closed_form", "unnormalized_scale", "span"),
    ("elimination", "bareiss_det", "span"),
    ("elimination", "gauss_inverse", "span"),
    ("gram", "hankel_moment", "count"),
    ("gram", "moment_matrix", "span"),
    ("gram", "gram_schmidt", "span"),
    ("gram", "kernel_inverse", "span"),
    ("gram", "kernel_eval", "span"),
    ("gram", "det_from_norms", "span"),
    ("gram", "ExactMatrix.__matmul__", "span"),
    ("verify", "verify", "span"),
)

# modules whose results carry numerator/denominator bit sizes worth recording
BITS_MODULES = ("closed_form", "elimination", "gram")

# span covering the tracer's own result-size bookkeeping, so that it is not
# charged to the caller's self time
BITS_SPAN = "trace.result_bits"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    request: int


def result_bits(value) -> int:
    """Largest numerator or denominator bit length inside a library result."""
    # imported here: cli_child.py imports this module first and then times
    # the import of hankelinv on its own
    from hankelinv.closed_form import DiscrepancyNote
    from hankelinv.gram import ExactMatrix, OrthoTable

    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, (tuple, list)):
        return max((result_bits(v) for v in value), default=0)
    if isinstance(value, ExactMatrix):
        return result_bits(value.rows)
    if isinstance(value, OrthoTable):
        return max(result_bits(value.norms), max(result_bits(p.coeffs) for p in value.monic))
    if isinstance(value, DiscrepancyNote):
        return result_bits(value.exact)
    return 0  # floating-point results of the float paths


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children[index], key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: Counter[str] = Counter()
        self.bits: dict[str, int] = {module: 0 for module in BITS_MODULES}
        self.request = -1
        self.child_seconds = {"cli.spawn_s": 0.0, "cli.import_s": 0.0}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _counted(self, name: str, fn):
        calls = self.calls

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name: str, module: str, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if module in self.bits:
                start = perf_counter()
                self.bits[module] = max(self.bits[module], result_bits(result))
                self.spans.append(Span(BITS_SPAN, start, perf_counter(), span.parent, self.request))
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """Record one span, and one call of ``name``, around a block."""
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        span = Span(name, perf_counter(), 0.0, parent, self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every module binding (and class attribute)
        that holds it, across all loaded modules, the caller's included."""
        import hankelinv  # noqa: F401  (loads every library module)

        replacements: dict[int, tuple[object, object]] = {}
        for module, function, kind in TARGETS:
            name = f"{module}.{function}"
            owner = sys.modules[f"hankelinv.{module}"]
            if "." in function:  # a method: one binding, on its class
                cls_name, attr = function.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, self._spanned(name, module, original))
                continue
            original = getattr(owner, function)
            wrapper = (
                self._counted(name, original) if kind == "count"
                else self._spanned(name, module, original)
            )
            replacements[id(original)] = (original, wrapper)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def merge_child(self, child: dict, wall: float) -> None:
        """Fold in the export of a traced CLI child (see cli_child.py) that
        took ``wall`` seconds as seen from here, under the current request."""
        offset = len(self.spans)
        for name, start, end, parent, _ in child["spans"]:
            self.spans.append(
                Span(name, start, end, None if parent is None else parent + offset, self.request)
            )
        self.calls.update(child["calls"])
        for module, bits in child["bits"].items():
            self.bits[module] = max(self.bits[module], bits)
        self.child_seconds["cli.spawn_s"] += wall - child["child_s"]
        self.child_seconds["cli.import_s"] += child["import_s"]

    def export(self) -> dict:
        return {
            "spans": [list(asdict(s).values()) for s in self.spans],
            "calls": dict(self.calls),
            "bits": self.bits,
        }

    def layer_metrics(self) -> dict[str, float]:
        """``<module>.<function>.calls`` for every target, ``.self_s`` (total
        self time) for the spanned ones, ``<module>.result_bits_max``, and the
        CLI layer's times."""
        self_s: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            self_s[span.name] += own
        out: dict[str, float] = {}
        for module, function, kind in TARGETS:
            name = f"{module}.{function}"
            out[f"{name}.calls"] = self.calls[name]
            if kind == "span":
                out[f"{name}.self_s"] = self_s[name]
        for module in BITS_MODULES:
            out[f"{module}.result_bits_max"] = self.bits[module]
        # the CLI layer, from traced child processes: start-up outside the
        # child's own clock, import of hankelinv.cli, and main's parse + format
        out.update(self.child_seconds)
        out["cli.main.self_s"] = self_s["cli.main"]
        return out
