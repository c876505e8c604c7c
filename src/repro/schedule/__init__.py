"""Schedule compilation: trace one run, replay every same-shape run.

This package is the simulator's JIT.  The communication counts of
every registry algorithm are pure functions of shape — (algorithm,
layout, n, machine capacities, block params, fault plan) — so the
first run of a shape is *captured* into a
:class:`~repro.schedule.compiled.TransferSchedule` and every later run
of the same shape is *replayed*: one real ``dense_cholesky`` for the
numerics plus vectorized NumPy reductions for the counters, with the
Python interpretation of the algorithm skipped entirely.

Pipeline: **capture** (recorder hooks at the machine's charging
chokepoints) → **canonicalize** (struct-of-arrays, self-checked
against the captured counters) → **cache** (content-addressed memory +
disk tiers, keyed by shape and code version) → **replay**
(:meth:`~repro.machine.core.HierarchicalMachine.replay_schedule`).

Compilation is conservative: it engages only for a *pristine* batched
machine with no trace, no span recorder and zero counters — any
observer that sees per-event state falls back to the ordinary
interpreted run, whose counts are pinned against the element-wise
reference by the golden suite.  A budget guard is not such an
observer: counters only grow, so whether a run trips a cap is decided
before it starts from the cached schedule's totals
(:meth:`~repro.serving.budget.BudgetGuard.admits`).  A run that fits
replays and is polled once afterwards; one that does not runs
interpreted, so it trips at the same chokepoint with the same partial
counts as an uncompiled run.  ``REPRO_NO_COMPILE=1``
(or :func:`set_compile`) switches the whole layer off;
``REPRO_SLOW_PATH=1`` implies off, since capture requires the batched
fast path.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from repro.observability.metrics import METRICS
from repro.observability.spans import NULL_PROFILER
from repro.schedule.cache import (
    ScheduleCache,
    default_cache,
    fault_plan_digest,
    schedule_key,
    set_default_cache,
)
from repro.schedule.compiled import (
    ScheduleError,
    ScheduleRecorder,
    TransferSchedule,
)
from repro.util.fastpath import fastpath_enabled

__all__ = [
    "ScheduleCache",
    "ScheduleError",
    "ScheduleRecorder",
    "TransferSchedule",
    "compile_disabled",
    "compile_enabled",
    "compiled_session",
    "default_cache",
    "fault_plan_digest",
    "last_run_mode",
    "schedule_key",
    "set_compile",
    "set_default_cache",
]

_compile_enabled: bool = os.environ.get("REPRO_NO_COMPILE", "") != "1"


def compile_enabled() -> bool:
    """Whether schedule compilation is currently active."""
    return _compile_enabled and fastpath_enabled()


def set_compile(enabled: bool) -> bool:
    """Set the compilation toggle; returns the previous raw value."""
    global _compile_enabled
    prev = _compile_enabled
    _compile_enabled = bool(enabled)
    return prev


@contextmanager
def compile_disabled() -> Iterator[None]:
    """Run a block with schedule compilation forced off (ablation)."""
    prev = set_compile(False)
    try:
        yield
    finally:
        set_compile(prev)


class _RunMode(threading.local):
    """Per-thread record of how the last ``run_algorithm`` executed."""

    def __init__(self) -> None:
        self.mode = "off"


_run_mode = _RunMode()


def note_run_mode(mode: str) -> None:
    """Record this thread's last run mode (off/capture/replay)."""
    _run_mode.mode = mode


def last_run_mode() -> str:
    """How this thread's most recent algorithm run executed.

    ``"replay"`` — counters folded from a compiled schedule;
    ``"capture"`` — interpreted run that produced a new schedule;
    ``"off"`` — compilation disabled, the run was ineligible, or its
    budget guard did not admit the cached schedule.
    """
    return _run_mode.mode


def _machine_eligible(machine) -> bool:
    """Can this machine's next run be captured or replayed?

    Requires the batched fast path plus a machine no observer is
    watching and no previous run has touched: traces, span profilers
    and half-finished runs all see per-event state that a bulk replay
    cannot reproduce, so any of them disables the layer for this run
    (never breaking their semantics, only the speedup).  A budget
    guard does not: :meth:`_CompiledSession.run` settles it against
    the schedule's totals before replaying.
    """
    return (
        machine.batched
        and machine.trace is None
        and machine.profiler is NULL_PROFILER
        # an armed ChecksumGuardian must observe every boundary live:
        # a bulk replay recomputes the factor without running the
        # algorithm, so it could mask an injected silent fault
        and getattr(machine, "abft", None) is None
        and getattr(machine, "recorder", None) is None
        and machine._scope_depth == 0
        and machine.resident.is_empty()
        and machine.flops == 0
        and machine.batch_hits == 0
        and machine._read_seq == 0
        and not any(
            lvl.counters.words or lvl.counters.messages or lvl.peak_resident
            for lvl in machine.levels
        )
        and (
            machine.faults is None
            or not (
                machine.faults.events or machine.faults.stats.any_injected()
            )
        )
    )


class _CompiledSession:
    """One eligible ``run_algorithm`` invocation's compile/replay plan."""

    __slots__ = ("algorithm", "matrix", "key", "cache")

    def __init__(self, algorithm: str, matrix, key: str, cache: ScheduleCache):
        self.algorithm = algorithm
        self.matrix = matrix
        self.key = key
        self.cache = cache

    def run(self, fn: Callable[[], np.ndarray]) -> np.ndarray:
        """Replay a cached schedule, or run ``fn`` under capture.

        A cached schedule that refuses to apply (:class:`ScheduleError`
        — shape drift, corruption) falls through to a fresh capture;
        the machine is guaranteed untouched by a failed apply.  A
        budget guard that does not admit the cached schedule gets the
        plain interpreted run: no recorder, no recapture.
        """
        schedule = self.cache.get(self.key)
        if schedule is not None:
            guard = self.matrix.machine.guard
            if guard is not None and not guard.admits(schedule):
                note_run_mode("off")
                return fn()
            try:
                return self._replay(schedule)
            except ScheduleError:
                METRICS.counter(
                    "repro_schedule_events_total", event="apply-mismatch"
                ).inc()
        return self._capture(fn)

    def _canonical_factor(self, source: np.ndarray) -> np.ndarray:
        """Factor ``source`` with the stage-faithful dense kernel and
        poke the result into the tracked matrix.

        Both compiled modes return this factor — a capturing run and a
        later replay of the same input are *bitwise* identical, so
        which mode executed is numerically unobservable (interpreted
        vs compiled stays ``allclose``, as between the two interpreted
        paths).
        """
        from repro.sequential.kernels import dense_cholesky

        A = self.matrix
        L = dense_cholesky(source, stage=self.algorithm)
        tril = np.tril_indices(A.layout.n)
        A.data[tril] = L[tril]
        return A.lower()

    def _replay(self, schedule: TransferSchedule) -> np.ndarray:
        """Numerics first (so a non-SPD input fails before any charge),
        then fold the schedule into the machine in one shot."""
        A = self.matrix
        result = self._canonical_factor(A.data)
        A.machine.replay_schedule(schedule)
        if A.machine.guard is not None:
            # the caps were settled by admits(); this reads the deadline
            A.machine.guard.check_machine(A.machine)
        METRICS.counter(
            "repro_schedule_events_total", event="replay"
        ).inc()
        note_run_mode("replay")
        return result

    def _capture(self, fn: Callable[[], np.ndarray]) -> np.ndarray:
        machine = self.matrix.machine
        original = np.array(self.matrix.data, copy=True)
        recorder = ScheduleRecorder(machine)
        machine.recorder = recorder
        try:
            result = fn()
        finally:
            machine.recorder = None
        schedule = recorder.finalize()
        if schedule is None:
            METRICS.counter(
                "repro_schedule_events_total", event="discard"
            ).inc()
            note_run_mode("off")
        else:
            self.cache.put(self.key, schedule)
            result = self._canonical_factor(original)
            METRICS.counter(
                "repro_schedule_events_total", event="capture"
            ).inc()
            note_run_mode("capture")
        return result


def compiled_session(
    algorithm: str, A, params: dict, abft=None
) -> "_CompiledSession | None":
    """Build the compile/replay plan for one run, if it is eligible.

    Returns ``None`` (caller runs uncompiled) when compilation is off,
    the machine is being observed or is not pristine, or the params
    cannot be canonically keyed.  ``abft`` (a protection config) makes
    the run ineligible outright — the registry never compiles
    protected runs — but is still threaded into :func:`schedule_key`
    so any future keyed variant cannot collide with unprotected
    schedules.
    """
    if not compile_enabled():
        return None
    if abft is not None:
        return None
    machine = A.machine
    if not _machine_eligible(machine):
        return None
    try:
        key = schedule_key(
            algorithm=algorithm,
            layout=A.layout,
            base=A.base,
            machine=machine,
            params=params,
            fault_plan=machine.faults.plan if machine.faults else None,
            abft=abft,
        )
    except TypeError:
        return None
    return _CompiledSession(algorithm, A, key, default_cache())
