"""In-memory span recorder and the wrappers that put spans around gapalign.

A span is (name, start, end, parent).  Self time of a span is its
duration minus the durations of its direct children; because calls nest
on one thread, the children lie inside the parent's interval and the
self times of all spans under a root add up to the root's duration.

``install`` wraps the public functions of every gapalign module, plus a
few methods, and rebinds each name where callers look it up: in the
defining module, in every module that did ``from .x import f``, and on
the class for methods.  Calls therefore pass through the wrapper however
the program reaches them, including ``_cmd_align``'s call-time
``from .realign import apply_blockwise``.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from dataclasses import dataclass, field

clock_ns = time.monotonic_ns  # CLOCK_MONOTONIC: comparable across processes on one host


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: int = -1
    counters: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans on one thread; spans stay in memory until read."""

    def __init__(self, clock=clock_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.clock(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(bound, result)`` adds counters."""
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counters = count(bound.arguments, result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn, count=None):
        """Wrap a generator function: one span per ``next()``, the last included.

        The consumer's work between two ``next()`` calls lies outside
        every span of the generator.  ``count(item)`` adds counters.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    span = self.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.end(span)
                    if count:
                        span.counters = count(item)
                    yield item
            finally:
                inner.close()

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, summed self and inclusive nanoseconds, summed counters."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.end - span.start
        out: dict[str, dict] = {}
        for span, inner in zip(self.spans, child_ns):
            entry = out.setdefault(span.name, {"calls": 0, "self_ns": 0, "total_ns": 0})
            entry["calls"] += 1
            entry["self_ns"] += span.end - span.start - inner
            entry["total_ns"] += span.end - span.start
            for key, value in span.counters.items():
                entry[key] = entry.get(key, 0) + value
        return out

    def children_of(self, parent_name: str) -> dict:
        """Per name: calls and inclusive nanoseconds of direct children of ``parent_name`` spans."""
        out: dict[str, dict] = {}
        for span in self.spans:
            if span.parent >= 0 and self.spans[span.parent].name == parent_name:
                entry = out.setdefault(span.name, {"calls": 0, "total_ns": 0})
                entry["calls"] += 1
                entry["total_ns"] += span.end - span.start
        return out


# ------------------------------------------------------------------ counters
# Counters are computed from argument shapes, results and file sizes, never
# measured.  Flop counts follow the dense-GEMM convention 2*m*n*k; operand
# bytes are the float64 rows a kernel must read (and write) at least once,
# so gflop / operand_bytes is its operations per byte.

GIGA = 1e-9


def _rows(x) -> int:
    data = getattr(x, "data", x)
    return int(data.shape[0]) if getattr(data, "ndim", 1) == 2 else 1


def _dims(x) -> int:
    data = getattr(x, "data", x)
    return int(data.shape[-1])


def _file_bytes(key):
    return lambda a, result: {"bytes": os.path.getsize(a[key])}


def _accumulate(a, result):
    n, d = _rows(a["batch"]), _dims(a["batch"])
    flop = 2 * n * d * d if a["self"].track_cov else 3 * n * d
    return {"rows": n, "gflop": flop * GIGA, "operand_bytes": n * d * 8}


def _knn_mixing(a, result):
    n, d = _rows(a["rows_a"]) + _rows(a["rows_b"]), _dims(a["rows_a"])
    return {"rows": n, "gflop": 2 * n * n * d * GIGA, "operand_bytes": n * d * 8}


def _knn_overlap(a, result):
    n, d = _rows(a["rows_before"]), _dims(a["rows_before"])
    return {"rows": n, "gflop": 2 * 2 * n * n * d * GIGA, "operand_bytes": 2 * n * d * 8}


def _apply_blockwise(a, result):
    n, d, r = _rows(a["e_src"]), a["stats"].dims, a["stats"].frame.rank
    return {"rows": n, "gflop": 2 * n * (2 * d * d + r * r + (d - r) ** 2) * GIGA,
            "operand_bytes": 2 * n * d * 8}


FUNCTION_COUNTERS = {
    "io.read_embeddings": _file_bytes("path"),
    "io.load_artifact": _file_bytes("path"),
    "io.file_digest": _file_bytes("path"),
    "io.write_embeddings": _file_bytes("path"),
    "io.save_artifact": _file_bytes("path"),
    "moments.accumulate": _accumulate,
    "frame.decompose_gap": lambda a, r: {"rows": _rows(a["paired_a"])},
    "realign.estimate_realign": lambda a, r: {"rows": _rows(a["calib_src"])},
    "realign.substitution_operator": lambda a, r: {"rows": _rows(a["source_set"])},
    "realign.estimate_blockwise": lambda a, r: {"rows": _rows(a["calib_src"])},
    "realign.apply_blockwise": _apply_blockwise,
    "diagnostics.cosine_histogram": lambda a, r: {"pairs": int(r.pair_count)},
    "diagnostics.knn_mixing_rate": _knn_mixing,
    "diagnostics.knn_overlap": _knn_overlap,
    "spectral.tyler_shape": lambda a, r: {"iterations": int(r.iterations)},
    "simulator.draw": lambda a, r: {"rows": int(a["n"])},
}

GENERATOR_COUNTERS = {
    "io.iter_embedding_batches": lambda batch: {"bytes": int(batch.data.nbytes)},
}

LAYER_MODULES = ("io", "moments", "spectral", "frame", "realign", "diagnostics",
                 "contrastive", "simulator")


def _methods():
    from gapalign.frame import ReferenceFrame
    from gapalign.moments import ModalityStats, MomentAccumulator
    from gapalign.realign import AlignmentStats, BlockwiseStats
    from gapalign.simulator import PairedDataGenerator

    methods = [
        (MomentAccumulator, "accumulate", "moments.accumulate"),
        (MomentAccumulator, "finalize", "moments.finalize"),
        (PairedDataGenerator, "draw", "simulator.draw"),
        (ReferenceFrame, "complement_basis", "frame.complement_basis"),
    ]
    for cls in (ModalityStats, ReferenceFrame, AlignmentStats, BlockwiseStats):
        methods.append((cls, "to_payload", "io.payload_encode"))
        methods.append((cls, "from_payload", "io.payload_decode"))
    return methods


def install(tracer: Tracer) -> dict:
    """Wrap gapalign's public functions and traced methods; return {span name: wrapper}."""
    import importlib

    import gapalign
    import gapalign.cli

    modules = [importlib.import_module(f"gapalign.{short}") for short in LAYER_MODULES]
    replacement = {}
    names = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(module).items():
            public = not attr.startswith("_") and inspect.isfunction(obj)
            if not public or obj.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            if inspect.isgeneratorfunction(obj):
                wrapped = tracer.wrap_generator(name, obj, GENERATOR_COUNTERS.get(name))
            else:
                wrapped = tracer.wrap(name, obj, FUNCTION_COUNTERS.get(name))
            replacement[obj] = wrapped
            names[name] = wrapped
    for namespace in [gapalign, gapalign.cli, *modules]:
        for attr, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and obj in replacement:
                setattr(namespace, attr, replacement[obj])
    for cls, attr, name in _methods():
        raw = inspect.getattr_static(cls, attr)
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        wrapped = tracer.wrap(name, fn, FUNCTION_COUNTERS.get(name))
        setattr(cls, attr, staticmethod(wrapped) if is_static else wrapped)
        names.setdefault(name, wrapped)
    return names
