"""Per-layer host time, measured from outside the program.

Two sources, one per kind of workload:

* **census** — :class:`LayerClock` wraps the public functions of each
  layer (installed only for the traced run) and accounts *self* time:
  a wrapped call's duration minus the time spent in wrapped calls it
  made.  ``execute_point``'s own self time is the op latency minus
  everything wrapped beneath it, so per op the layer self times tile
  the latency.
* **serve** — :func:`split_trace` reads the spans the cluster already
  attaches to every terminal response when ``tracing=True``: the root
  ``job`` span and its top-level stages (``route``, ``queue``,
  ``execute`` or ``cache``, ``resolve``).  The client-observed latency
  minus the root span is the time outside the cluster's trace.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

#: census layer metric -> (module, attribute path) of the wrapped callable.
CENSUS_TARGETS = {
    "matrices.random_spd_ms": ("repro.analysis.sweeps", "random_spd"),
    "sequential.run_algorithm_ms": ("repro.analysis.sweeps", "run_algorithm"),
    "sequential.dense_cholesky_ms": ("repro.sequential.kernels", "dense_cholesky"),
    "schedule.cache_get_ms": ("repro.schedule.cache", "ScheduleCache.get"),
    "machine.replay_schedule_ms": ("repro.machine.core", "HierarchicalMachine.replay_schedule"),
}

#: Top-level stages of a served job's trace, as named by the cluster.
SERVE_STAGES = ("route", "queue", "execute", "cache", "resolve")

#: Two float sums of the same window may differ by rounding only.
TILE_TOLERANCE_S = 1e-6


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class LayerClock:
    """Self-time accounting over a set of wrapped layer functions.

    ``take()`` returns and resets the per-layer self seconds gathered
    since the last call, so the caller can attribute them to one op.
    ``last_result`` holds the most recent return value of each layer,
    for checks on what a layer produced.
    """

    def __init__(self, targets: "dict[str, tuple[str, str]]") -> None:
        self.targets = dict(targets)
        self._self_s = dict.fromkeys(self.targets, 0.0)
        self._stack: "list[float]" = []
        self.last_result: dict = {}

    def _wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = self._stack.pop()
                self._self_s[name] += elapsed - children
                if self._stack:
                    self._stack[-1] += elapsed
            self.last_result[name] = result
            return result

        timed.__wrapped__ = fn
        return timed

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for name, (module, path) in self.targets.items():
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take(self) -> "dict[str, float]":
        """Per-layer self seconds since the last call (then reset)."""
        out = self._self_s
        self._self_s = dict.fromkeys(self.targets, 0.0)
        self.last_result = {}
        return out


def split_trace(records, latency_s: float) -> dict:
    """Break one served job's client-observed latency into layers.

    Returns seconds per top-level stage, ``outside`` (latency minus the
    root span), ``untiled`` (the part of the root window no top-level
    stage covers) and the ``execute`` span's ``schedule`` attribute.
    """
    root = next(r for r in records if r.parent_span_id is None)
    out = dict.fromkeys(SERVE_STAGES, 0.0)
    schedule = None
    covered = 0.0
    for r in records:
        if r.parent_span_id != root.span_id:
            continue
        covered += r.duration
        if r.name in out:
            out[r.name] += r.duration
        if r.name == "execute":
            schedule = r.attr("schedule")
    out["outside"] = latency_s - root.duration
    out["untiled"] = root.duration - covered
    out["schedule"] = schedule
    return out


def tiles(parts: "list[float]", total: float) -> bool:
    """Do non-negative parts add up to ``total`` (within rounding)?"""
    return min(parts) >= -TILE_TOLERANCE_S and abs(sum(parts) - total) <= TILE_TOLERANCE_S
