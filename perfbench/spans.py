"""Span tracing of nccorr from outside the library.

The traced run replaces nccorr's public functions, under the names their
callers look up, with wrappers that record one span per call: its name,
start, end, parent span and op id.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# (span name, attribute, modules whose attribute callers look up).  measures
# imports min_diag_entropy and marginal_eigenbasis by name, so those are
# replaced there as well as in search.
WRAPPED: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("qmat.herm_eig", "herm_eig", ("nccorr.qmat",)),
    ("qmat.partial_transpose", "partial_transpose", ("nccorr.qmat",)),
    ("qmat.partial_trace", "partial_trace", ("nccorr.qmat",)),
    ("qmat.diag_probs", "diag_probs", ("nccorr.qmat",)),
    ("qmat.density_spectrum", "density_spectrum", ("nccorr.qmat",)),
    ("qmat.von_neumann_entropy", "von_neumann_entropy", ("nccorr.qmat",)),
    ("qmat.shannon_entropy", "shannon_entropy", ("nccorr.qmat",)),
    ("search.min_diag_entropy", "min_diag_entropy", ("nccorr.search", "nccorr.measures")),
    ("search.marginal_eigenbasis", "marginal_eigenbasis", ("nccorr.search", "nccorr.measures")),
    ("measures.D", "measure_D", ("nccorr.measures",)),
    ("measures.G", "measure_G", ("nccorr.measures",)),
    ("measures.DG", "measure_DG", ("nccorr.measures",)),
    ("measures.K", "measure_K", ("nccorr.measures",)),
    ("measures.N", "negativity", ("nccorr.measures",)),
    ("states.load_state", "load_state", ("nccorr.states",)),
    ("sweep.evaluate_point", "evaluate_point", ("nccorr.sweep",)),
    ("cli.main", "main", ("nccorr.cli",)),
)
LAYERS = ("qmat", "search", "measures", "states", "sweep", "cli")
OP_SPAN = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for an op's root span
    op: int


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.errors: Counter = Counter()
        self.search_diagnostics: List[dict] = []
        self.op = -1
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op_span(self, op: int) -> Iterator[None]:
        self.op = op
        idx = self.begin(OP_SPAN)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                self.end(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Replace every WRAPPED function and family constructor while active."""
    saved = []
    families = importlib.import_module("nccorr.sweep").FAMILIES
    saved_families = dict(families)
    try:
        for name, attr, module_names in WRAPPED:
            modules = [importlib.import_module(m) for m in module_names]
            original = getattr(modules[0], attr)
            on_result = None
            if name == "search.min_diag_entropy":
                on_result = lambda result: tracer.search_diagnostics.append(result[2])
            wrapper = tracer.wrap(name, original, on_result)
            for mod in modules:
                if getattr(mod, attr) is not original:
                    raise RuntimeError(f"{mod.__name__}.{attr} is not {module_names[0]}.{attr}")
                saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)
        for fam, (ctor, lo, hi) in saved_families.items():
            families[fam] = (tracer.wrap(f"states.{ctor.__name__}", ctor), lo, hi)
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
        families.update(saved_families)


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        inner = [(max(lo, span.start), min(hi, span.end)) for lo, hi in children[i]]
        out.append(span.end - span.start - _covered([iv for iv in inner if iv[1] > iv[0]]))
    return out


# per-layer metrics: name -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "qmat.herm_eig.calls": ("count", "lower"),
    "qmat.herm_eig.time_s": ("s", "lower"),
    "qmat.partial_transpose.time_s": ("s", "lower"),
    "qmat.partial_trace.time_s": ("s", "lower"),
    "qmat.diag_probs.calls": ("count", "lower"),
    "qmat.diag_probs.time_s": ("s", "lower"),
    "search.min_diag_entropy.self_s": ("s", "lower"),
    "search.samples_evaluated": ("count", "lower"),
    "search.samples_per_s": ("1/s", "higher"),
    "search.refine_accept_ratio": ("ratio", "higher"),
    "search.best_source_refine_share": ("ratio", "higher"),
    **{f"measures.{m}.{kind}": ("s", "lower") for m in ("D", "G", "DG", "K", "N") for kind in ("time_s", "self_s")},
    "states.load_state.time_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "sweep.evaluate_point.self_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{layer}.errors": ("count", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
}


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> Dict[str, float]:
    """Every PER_LAYER metric from the spans and search diagnostics of a run."""
    calls: Counter = Counter()
    time_s: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span.name] += 1
        time_s[span.name] += span.end - span.start
        self_s[span.name] += own
        layer = span.name.split(".", 1)[0]
        if layer in LAYERS:
            self_s[layer] += own

    diags = tracer.search_diagnostics
    samples = sum(d["samples_evaluated"] for d in diags)
    steps = sum(d["refine_steps"] for d in diags)
    search_time = time_s["search.min_diag_entropy"]
    derived = {
        "qmat.herm_eig.calls": calls["qmat.herm_eig"],
        "qmat.diag_probs.calls": calls["qmat.diag_probs"],
        "search.samples_evaluated": samples,
        "search.samples_per_s": samples / search_time if search_time > 0 else 0.0,
        "search.refine_accept_ratio": sum(d["refine_accepts"] for d in diags) / steps if steps else 0.0,
        "search.best_source_refine_share": (
            sum(d["best_source"] == "refine" for d in diags) / len(diags) if diags else 0.0
        ),
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for metric in PER_LAYER:
        base, kind = metric.rsplit(".", 1)
        if metric in derived:
            out[metric] = derived[metric]
        elif kind == "time_s":
            out[metric] = time_s[base]
        elif kind == "self_s":
            out[metric] = self_s[base]
        elif kind == "errors":
            out[metric] = tracer.errors[base]
        else:
            raise KeyError(metric)
    return out
