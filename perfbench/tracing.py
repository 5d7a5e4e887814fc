"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: ``Tracer.install`` replaces
the module and class attributes that the layers are called through with
timing wrappers and ``Tracer.uninstall`` puts the originals back.  Spans
stay in memory until the run ends.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  A span opened on a worker thread with no
open span of its own is a child of the innermost open span on the thread
that installed the tracer (the sweep's ``run_experiment``).
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time

import numpy as np

# value and index bytes of one stored entry of a CSC factor (float64 + int32)
_ENTRY_BYTES = 8 + 4
_INDPTR_BYTES = 4


def _nnz_attrs(args, result):
    return {"nnz": int(result.matrix.nnz)}


def _support_attrs(args, result):
    return {"support": int(np.count_nonzero(args[0].values))}


def _steps_attrs(args, result):
    return {"steps": int(args[0].steps)}


def _lu_attrs(args, result):
    fill = int(result.L.nnz + result.U.nnz)
    n = int(result.shape[0])
    return {"fill": fill, "bytes": fill * _ENTRY_BYTES + 2 * (n + 1) * _INDPTR_BYTES}


# (module, attribute, span name, index of the epsilon argument, attrs(args, result))
# The attribute is the name the caller looks up, so harness.step_implicit and
# solve.step_implicit are separate entries: the sweeps call the first, the
# spectral workload the second.
WRAPS = (
    ("gradedheat.cli", "parse_sweep_config_file", "config.parse", None, None),
    ("gradedheat.cli", "run_experiment", "harness.run", None, None),
    ("gradedheat.cli", "persist_report", "cli.persist", None, None),
    ("gradedheat.harness", "build_rockland", "operators.build", None, _nnz_attrs),
    ("gradedheat.harness", "regularize_potential", "mollify.potential", 1, None),
    ("gradedheat.harness", "regularize_field", "mollify.convolve", 1, _support_attrs),
    ("gradedheat.harness", "step_implicit", "solve.step", None, _steps_attrs),
    ("gradedheat.harness", "fit_exponent", "harness.fit", None, None),
    ("gradedheat.harness", "check_moderate", "harness.fit", None, None),
    ("gradedheat.harness", "check_negligible", "harness.fit", None, None),
    ("gradedheat.solve", "splu", "solve.factor", None, _lu_attrs),
    ("gradedheat.operators", "build_rockland", "operators.build", None, _nnz_attrs),
    ("gradedheat.operators:DiscreteRockland", "eigensystem", "operators.eigh", None, None),
    ("gradedheat.operators", "semigroup_apply", "operators.apply", None, None),
    ("gradedheat.solve", "solve_duhamel", "solve.duhamel", None, None),
    ("gradedheat.solve", "step_implicit", "solve.step", None, _steps_attrs),
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "cover_end", "thread",
                 "eps", "error", "attrs")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Collects spans from the wrapped attributes while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = None
        self._saved = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, eps_index, attrs_fn):
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span()
            span.id = next(self._ids)
            if stack:
                span.parent = stack[-1]
            else:
                span.parent = self._main_stack[-1] if self._main_stack else None
            span.name = name
            span.thread = threading.get_ident()
            if eps_index is not None and len(args) > eps_index:
                self._local.eps = float(args[eps_index])
            span.eps = getattr(self._local, "eps", None)
            span.error = None
            span.attrs = None
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = span.cover_end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs_fn is not None:
                span.attrs = attrs_fn(args, result)
            # the attrs are instrumentation: the parent must not count them as its own time
            span.cover_end = time.perf_counter()
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every attribute in WRAPS; a missing one is recorded, not skipped."""
        self._main_thread = threading.get_ident()
        self._local = threading.local()
        for module_path, attr, name, eps_index, attrs_fn in WRAPS:
            module_name, _, class_name = module_path.partition(":")
            where = f"{module_path}.{attr}"
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                original = owner.__dict__[attr] if class_name else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(where)
                continue
            if not callable(original):
                self.missing.append(where)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, eps_index, attrs_fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.cover_end))
    return {s.id: (s.end - s.start) - _covered(s.start, s.end, children.get(s.id, ()))
            for s in spans}


def layer_metrics(spans, threads: int) -> dict[str, float]:
    """The per-layer metrics of one operation's spans."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def total(name):
        return sum(own[s.id] for s in spans if s.name == name)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in spans if s.name == name and s.attrs)

    step_bytes = 0
    for s in spans:
        if s.name == "solve.factor" and s.attrs and s.parent in by_id:
            parent = by_id[s.parent]
            if parent.name == "solve.step" and parent.attrs:
                step_bytes += s.attrs["bytes"] * parent.attrs["steps"]

    runs = {s.id: s for s in spans if s.name == "harness.run"}
    busy = sum(s.end - s.start for s in spans
               if s.parent in runs and s.thread != runs[s.parent].thread)
    wall = sum(s.end - s.start for s in runs.values())
    utilisation = busy / (threads * wall) if wall > 0 else 0.0

    eps_seen = {s.eps for s in spans if s.eps is not None}
    eps_failed = {s.eps for s in spans if s.eps is not None and s.error is not None}
    return {
        "config.parse_s": total("config.parse"),
        "operators.build_s": total("operators.build"),
        "operators.nnz": attr_sum("operators.build", "nnz"),
        "operators.eigh_s": total("operators.eigh"),
        "operators.apply_s": total("operators.apply"),
        "operators.apply_calls": count("operators.apply"),
        "mollify.potential_s": total("mollify.potential"),
        "mollify.convolve_s": total("mollify.convolve"),
        "mollify.convolve_calls": count("mollify.convolve"),
        "mollify.convolve_support": attr_sum("mollify.convolve", "support"),
        "solve.factor_s": total("solve.factor"),
        "solve.lu_fill": attr_sum("solve.factor", "fill"),
        "solve.step_s": total("solve.step"),
        "solve.steps": attr_sum("solve.step", "steps"),
        "solve.step_bytes_computed": step_bytes,
        "solve.duhamel_s": total("solve.duhamel"),
        "harness.self_s": total("harness.run"),
        "harness.fit_s": total("harness.fit"),
        "harness.pool_utilisation": utilisation,
        "harness.eps_attempted": len(eps_seen),
        "harness.eps_failed": len(eps_failed),
        "cli.persist_s": total("cli.persist"),
    }


# counts that must repeat exactly from one operation (and run) to the next
EXACT_COUNTS = ("operators.nnz", "operators.apply_calls", "mollify.convolve_calls",
                "mollify.convolve_support", "solve.lu_fill", "solve.steps",
                "solve.step_bytes_computed", "harness.eps_attempted",
                "harness.eps_failed")


def summarise(per_op: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each timed metric over the traced operations, the first
    operation's value of each exact count, and the exact counts that did
    not repeat across the operations."""
    merged = {n: (v if n in EXACT_COUNTS else statistics.median(m[n] for m in per_op))
              for n, v in per_op[0].items()}
    unstable = [n for n in EXACT_COUNTS if len({m[n] for m in per_op}) > 1]
    return merged, unstable
