"""The resilient factorization service.

:class:`FactorizationService` turns the experiment engine's worker
function (:func:`repro.experiments.engine.execute_point`) into a
bounded, budgeted, self-protecting job service:

* **Admission control** — a :class:`~repro.serving.queue.BoundedPriorityQueue`
  is the only waiting room.  A full queue sheds the newcomer (or
  evicts a strictly-lower-priority waiter); a closed service sheds
  everything.  Every shed is a structured terminal response, never a
  hang, and :meth:`submit_or_raise` turns admission sheds into an
  :class:`Overloaded` exception for callers that prefer one.
* **Budgets** — each job may carry a :class:`~repro.serving.budget.Budget`.
  Its guard is armed once per job with the *submission* timestamp, so
  the deadline covers queueing time and the simulated-cost caps are
  cumulative across retries.  A mid-run violation surfaces as
  :class:`~repro.serving.budget.BudgetExceeded` from the simulator's
  charging chokepoints.
* **Circuit breakers** — one
  :class:`~repro.serving.breaker.CircuitBreaker` per algorithm.
  Consecutive execution failures (fault exhaustion, non-SPD inputs,
  deadline blowouts) trip it open; while open, jobs for that algorithm
  skip straight to the degradation ladder; after the cooldown a cheap
  canary run probes the backend before real traffic resumes.
* **Graceful degradation** — whenever budget or breaker forbids the
  full simulation, the closed-form Table 1/2 prediction
  (:mod:`repro.serving.degrade`) is served instead, flagged
  ``degraded=True`` with a machine-readable reason and its documented
  error bounds.

Concurrency model: ``workers >= 1`` starts that many daemon threads
which pop the queue and run jobs in-process (the simulators hold no
global state, so threads are safe; the GIL serializes the numeric
work, which is fine for a simulation service whose unit of work is
already seconds-scale).  ``workers=0`` is the deterministic test/CLI
mode: nothing runs until the caller pumps :meth:`run_pending`.

Every decision reads time through the injected clock, so the whole
state machine — deadlines, cooldowns, probes — is testable with a
:class:`~repro.serving.clock.ManualClock`.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Callable, Mapping

from repro.abft import SilentCorruptionError
from repro.experiments.cache import ResultCache
from repro.experiments.engine import execute_point
from repro.experiments.spec import PARALLEL, SpecPoint
from repro.faults.injector import FaultExhausted
from repro.observability.metrics import METRICS
from repro.observability.tracing import TraceLog, root_context
from repro.results import Measurement
from repro.serving.breaker import OPEN, STATE_CODES, CircuitBreaker
from repro.serving.budget import Budget, BudgetExceeded
from repro.serving.clock import MONOTONIC, Clock
from repro.serving.degrade import (
    degraded_measurement,
    predict_point,
)
from repro.serving.api import (
    DEGRADED,
    DONE,
    FAILED,
    SHED,
    Job,
    JobTicket,
    ServiceResponse,
)
from repro.serving.queue import (
    BoundedPriorityQueue,
    QueueClosed,
    priority_name,
)
from repro.util.validation import (
    NotPositiveDefiniteError,
    ValidationError,
    check_positive_int,
)


class Overloaded(RuntimeError):
    """Admission control refused the job; carries the shed response."""

    def __init__(self, response: ServiceResponse) -> None:
        super().__init__(
            f"{response.job_id} shed at admission: {response.reason}"
        )
        self.response = response


def canary_point(point: SpecPoint, n: int = 16) -> SpecPoint:
    """A cheap probe configuration for ``point``'s algorithm.

    Same algorithm, layout and fault plan — the things whose health the
    breaker is judging — at a tiny problem size, with verification and
    observation off and algorithm params dropped (they may not be valid
    at the probe size).
    """
    from dataclasses import replace

    if point.kind == PARALLEL:
        return replace(
            point,
            n=n,
            block=max(1, n // 2),
            P=4,
            verify=False,
            observe=False,
            params=(),
        )
    return replace(
        point,
        n=n,
        M=max(64, 4 * n),
        verify=False,
        observe=False,
        params=(),
    )


def _validate_job_point(point: SpecPoint) -> None:
    """Reject structurally invalid points before they reach a worker.

    Always raises :class:`ValidationError` (the structured client-error
    type) — the bare ``TypeError``/``ValueError`` from the low-level
    checkers is wrapped so callers match one exception.
    """
    try:
        check_positive_int("n", point.n)
        if point.kind == PARALLEL:
            if point.block is None or point.P is None:
                raise ValidationError(
                    "parallel points need both block and P set"
                )
            check_positive_int("block", point.block)
            check_positive_int("P", point.P)
        else:
            if point.M is None:
                raise ValidationError("sequential points need M set")
            check_positive_int("M", point.M)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(str(exc)) from exc


class FactorizationService:
    """Bounded, budgeted, breaker-protected factorization jobs.

    Parameters
    ----------
    queue_capacity:
        Waiting-room bound; beyond it admission sheds or evicts.
    workers:
        Worker threads (the in-flight budget).  ``0`` runs nothing
        until :meth:`run_pending` is called — the deterministic mode.
    retries:
        Execution retries per job after the first attempt (all
        attempts share the job's cumulative budget).
    cache:
        ``None`` (default) disables caching; ``"default"`` or an
        explicit :class:`ResultCache` serves repeat points without
        simulating (cache hits spend no budget).
    breaker_threshold / breaker_cooldown / half_open_probes:
        Per-algorithm :class:`CircuitBreaker` configuration.
    canary_n:
        Problem size of the half-open probe runs.
    default_budget:
        Budget applied to jobs that carry none.
    clock:
        Time source for deadlines, cooldowns and latency metrics.
    tracing:
        When true, jobs that arrive without a trace context get one
        minted from their spec cache key and every terminal response
        carries the job's span records.  Off by default: an untraced
        job allocates no log and its payload is byte-identical to the
        pre-tracing schema (the golden suite enforces this).
    name:
        The process label stamped on span records and telemetry events
        (the cluster names each shard; standalone default "service").
    on_event:
        Optional telemetry sink called as ``on_event(kind, t, attrs)``
        for queue waits, sheds, degradations, retries, breaker
        transitions, canaries and completions.  ``None`` (default)
        emits nothing — not even an event object is built.
    """

    def __init__(
        self,
        *,
        queue_capacity: int = 16,
        workers: int = 2,
        retries: int = 1,
        cache: "ResultCache | str | None" = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        half_open_probes: int = 1,
        canary_n: int = 16,
        default_budget: "Budget | None" = None,
        clock: Clock = MONOTONIC,
        tracing: bool = False,
        name: str = "service",
        on_event: "Callable[[str, float, dict], None] | None" = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.workers = int(workers)
        self.retries = int(retries)
        self.tracing = bool(tracing)
        self.name = str(name)
        self.on_event = on_event
        if cache == "default":
            cache = ResultCache.default()
        elif isinstance(cache, str):
            cache = ResultCache(cache)
        self.cache: "ResultCache | None" = cache
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown = float(breaker_cooldown)
        self.half_open_probes = int(half_open_probes)
        self.canary_n = int(canary_n)
        self.default_budget = default_budget
        self._clock = clock
        self._queue: BoundedPriorityQueue[Job] = BoundedPriorityQueue(
            queue_capacity
        )
        self._lock = threading.Lock()
        self._tickets: "dict[str, JobTicket]" = {}
        self._trace_logs: "dict[str, TraceLog]" = {}
        self._breakers: "dict[str, CircuitBreaker]" = {}
        self._inflight = 0
        self._closed = False
        self._status_counts: "dict[str, int]" = {}
        self._threads: "list[threading.Thread]" = []
        for i in range(self.workers):
            t = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-{i}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)

    # -- telemetry ---------------------------------------------------------

    def _emit(self, kind: str, **attrs: Any) -> None:
        """Hand one structured event to the telemetry sink, if any.

        The ``None`` check is the entire disabled-mode cost — no event
        object, no clock read, nothing (the golden suite relies on it).
        """
        if self.on_event is not None:
            self.on_event(kind, self._clock(), attrs)

    # -- breakers ---------------------------------------------------------

    def _breaker(self, algorithm: str) -> CircuitBreaker:
        with self._lock:
            b = self._breakers.get(algorithm)
            if b is None:

                def on_transition(frm: str, to: str, *, alg=algorithm) -> None:
                    METRICS.gauge(
                        "repro_service_breaker_state", algorithm=alg
                    ).set(STATE_CODES[to])
                    METRICS.counter(
                        "repro_service_breaker_transitions_total",
                        algorithm=alg,
                        to=to,
                    ).inc()
                    self._emit("breaker", algorithm=alg, to=to)

                b = CircuitBreaker(
                    failure_threshold=self.breaker_threshold,
                    cooldown=self.breaker_cooldown,
                    half_open_probes=self.half_open_probes,
                    clock=self._clock,
                    on_transition=on_transition,
                )
                self._breakers[algorithm] = b
            return b

    # -- submission -------------------------------------------------------

    def submit(
        self,
        job: "Job | SpecPoint | Mapping",
        *,
        priority: "int | None" = None,
        budget: "Budget | None" = None,
    ) -> JobTicket:
        """Admit (or immediately resolve) one job; returns its ticket.

        Accepts a :class:`Job`, a bare :class:`SpecPoint`, or a
        point-shaped mapping.  Structurally invalid points raise
        :class:`~repro.util.validation.ValidationError` here — before
        any queueing — so garbage never reaches a worker.  Admission
        sheds (queue full, shutdown) resolve the ticket immediately
        with a structured ``shed`` response; use
        :meth:`submit_or_raise` to get them as exceptions.
        """
        if isinstance(job, SpecPoint):
            job = Job(point=job)
        elif isinstance(job, Mapping):
            job = Job(point=SpecPoint.from_dict(dict(job)))
        if priority is not None:
            job.priority = int(priority)
        if budget is not None:
            job.budget = budget
        _validate_job_point(job.point)
        ticket = JobTicket(job)
        with self._lock:
            self._tickets[job.job_id] = ticket
        job.submitted_at = self._clock()

        # Tracing: a job may arrive already carrying a context (the
        # cluster front door minted it and owns the root span); with
        # ``tracing=True`` a bare job gets one minted here, in which
        # case this service emits the root record too.  Untraced jobs
        # skip all of this — no log, no records, no wire change.
        minted_root = False
        if job.trace is None and self.tracing:
            job.trace = root_context(job.point.key())
            minted_root = True
        if job.trace is not None:
            with self._lock:
                self._trace_logs[job.job_id] = TraceLog(
                    job.trace,
                    process=self.name,
                    minted_root=minted_root,
                    start=job.submitted_at,
                )

        if self._closed:
            self._finish_shed(job, reason="shutdown")
            return ticket

        # Admission estimate: if even the *optimistic* end of the
        # closed-form bound overshoots the job's cost quota, the full
        # simulation is guaranteed to be cancelled mid-run — degrade
        # now instead of burning a worker on a doomed attempt.
        est_reason = self._admission_estimate(job)
        if est_reason is not None:
            self._finish_degraded(
                job,
                reason="admission-estimate",
                attempts=0,
                detail={"exceeds": est_reason},
            )
            return ticket

        # Breaker shortcut: a hard-open breaker (cooldown not yet
        # elapsed) means this job would degrade anyway — answer now
        # and keep the queue for runnable work.  Once a probe is due
        # the job is admitted so a worker can canary.
        snap = self._breaker(job.point.algorithm).snapshot()
        if snap["state"] == OPEN and not snap["probe_due"]:
            self._finish_degraded(
                job, reason="breaker-open", attempts=0, detail=snap
            )
            return ticket

        try:
            admitted, evicted = self._queue.offer(job, job.priority)
        except QueueClosed:
            self._finish_shed(job, reason="shutdown")
            return ticket
        if evicted is not None:
            self._finish_shed(evicted, reason="evicted")
        if not admitted:
            self._finish_shed(job, reason="queue-full")
        self._publish_gauges()
        return ticket

    def submit_or_raise(self, job, **kw) -> JobTicket:
        """Like :meth:`submit`, but admission sheds raise :class:`Overloaded`."""
        ticket = self.submit(job, **kw)
        if ticket.done():
            response = ticket.result(timeout=0)
            if response.status == SHED:
                raise Overloaded(response)
        return ticket

    def _admission_estimate(self, job: Job) -> "str | None":
        budget = job.budget or self.default_budget
        if budget is None:
            return None
        pred = predict_point(job.point)
        if pred is None:
            return None
        lows = {name: lo for name, (lo, _hi) in pred.bounds().items()}
        for cap_name, field in (
            ("max_words", "words"),
            ("max_messages", "messages"),
            ("max_flops", "flops"),
        ):
            cap = getattr(budget, cap_name)
            if cap is not None and lows[field] > cap:
                return field
        return None

    # -- execution --------------------------------------------------------

    def run_pending(self, max_jobs: "int | None" = None) -> int:
        """Run queued jobs on the calling thread (``workers=0`` mode).

        Returns how many jobs ran.  With worker threads active this is
        still safe — it just competes for the same queue.
        """
        ran = 0
        while max_jobs is None or ran < max_jobs:
            job = self._queue.pop(timeout=0)
            if job is None:
                break
            self._execute(job)
            ran += 1
        return ran

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.pop(timeout=0.2)
            if job is None:
                if self._queue.closed:
                    return
                continue
            self._execute(job)

    def _execute(self, job: Job) -> None:
        with self._lock:
            self._inflight += 1
        self._publish_gauges()
        try:
            self._run_job(job)
        finally:
            with self._lock:
                self._inflight -= 1
            self._publish_gauges()

    def _run_job(self, job: Job) -> None:
        point = job.point
        if job.trace is not None or self.on_event is not None:
            popped_at = self._clock()
            with self._lock:
                log = self._trace_logs.get(job.job_id)
            if log is not None:
                log.add("queue", popped_at, job_id=job.job_id)
            self._emit(
                "queue_wait",
                seconds=max(0.0, popped_at - job.submitted_at),
                job_id=job.job_id,
                priority=priority_name(job.priority),
            )
        breaker = self._breaker(point.algorithm)
        budget = job.budget or self.default_budget
        guard = None
        if budget is not None and not budget.is_unlimited():
            guard = budget.guard(clock=self._clock, start=job.submitted_at)

        # Deadline may have expired while the job sat in the queue.
        if guard is not None:
            try:
                guard.check_deadline()
            except BudgetExceeded:
                self._finish_degraded(
                    job,
                    reason="deadline",
                    attempts=0,
                    detail={"spent": guard.spent()},
                )
                return

        if not breaker.allow():
            self._finish_degraded(
                job,
                reason="breaker-open",
                attempts=0,
                detail=breaker.snapshot(),
            )
            return
        if breaker.probing():
            if not self._canary(point):
                breaker.record_failure()
                self._finish_degraded(
                    job,
                    reason="canary-failed",
                    attempts=0,
                    detail=breaker.snapshot(),
                )
                return
            breaker.record_success()

        if self.cache is not None:
            entry = self.cache.get(point)
            if entry is not None:
                try:
                    m = Measurement.from_dict(entry["measurement"])
                except (KeyError, TypeError, ValueError):
                    m = None
                if m is not None:
                    breaker.record_success()
                    self._finish_done(
                        job, m, attempts=0, detail={"cached": True}
                    )
                    return

        last_error: "Exception | None" = None
        for attempt in range(1, self.retries + 2):
            try:
                if guard is not None:
                    guard.check_deadline()
                m, _dt = execute_point(point, guard=guard)
            except BudgetExceeded as exc:
                if exc.reason == "deadline":
                    # a deadline blowout is a timeout — breaker-relevant
                    breaker.record_failure()
                detail = {
                    "violated": exc.reason,
                    "spent": exc.spent,
                    "limit": exc.limit,
                }
                if guard is not None:
                    detail["totals"] = guard.spent()
                self._finish_degraded(
                    job,
                    reason=f"budget-{exc.reason}",
                    attempts=attempt,
                    detail=detail,
                )
                return
            except ValidationError as exc:
                # client error, not backend health: no breaker impact
                self._finish_failed(
                    job,
                    reason="invalid-point",
                    error=f"{type(exc).__name__}: {exc}",
                    attempts=attempt,
                )
                return
            except Exception as exc:  # noqa: BLE001 - terminal boundary
                breaker.record_failure()
                last_error = exc
                METRICS.counter(
                    "repro_service_retries_total",
                    algorithm=point.algorithm,
                ).inc()
                self._emit(
                    "retry",
                    algorithm=point.algorithm,
                    job_id=job.job_id,
                    attempt=attempt,
                    error=type(exc).__name__,
                )
                if breaker.state == OPEN:
                    # the breaker tripped on this job's own failures;
                    # stop hammering the backend and serve the ladder
                    self._finish_degraded(
                        job,
                        reason="breaker-open",
                        attempts=attempt,
                        detail={
                            "last_error": f"{type(exc).__name__}: {exc}"
                        },
                    )
                    return
                continue
            else:
                breaker.record_success()
                if self.cache is not None:
                    self.cache.put(point, m.to_dict(), _dt)
                detail = {}
                if guard is not None:
                    detail["spent"] = guard.spent()
                self._finish_done(job, m, attempts=attempt, detail=detail)
                return

        self._finish_failed(
            job,
            reason=self._classify_error(last_error),
            error=(
                f"{type(last_error).__name__}: {last_error}"
                if last_error is not None
                else "unknown"
            ),
            attempts=self.retries + 1,
        )

    @staticmethod
    def _classify_error(exc: "Exception | None") -> str:
        if isinstance(exc, FaultExhausted):
            return "fault-exhausted"
        if isinstance(exc, SilentCorruptionError):
            # the ABFT retry ladder exhausted its attempts with an
            # uncorrectable double fault every time
            return "silent-corruption"
        if isinstance(exc, NotPositiveDefiniteError):
            return "not-positive-definite"
        return "execution-error"

    def _canary(self, point: SpecPoint) -> bool:
        """Run the cheap probe; True when the backend looks healthy."""
        try:
            execute_point(canary_point(point, self.canary_n))
        except Exception:  # noqa: BLE001 - any failure means unhealthy
            METRICS.counter(
                "repro_service_canary_runs_total",
                algorithm=point.algorithm,
                outcome="failure",
            ).inc()
            self._emit("canary", algorithm=point.algorithm, outcome="failure")
            return False
        METRICS.counter(
            "repro_service_canary_runs_total",
            algorithm=point.algorithm,
            outcome="success",
        ).inc()
        self._emit("canary", algorithm=point.algorithm, outcome="success")
        return True

    # -- terminal transitions ----------------------------------------------

    def _attach_trace(
        self, log: TraceLog, job: Job, response: ServiceResponse
    ) -> ServiceResponse:
        """Record the terminal span (and root, if minted) onto ``response``.

        The terminal span is the job's *work* leaf and carries the
        measurement's simulated counter deltas; everything before it
        (queue, admission) is zero-counter, so the leaf-sum invariant
        (:func:`repro.observability.tracing.validate_trace`) holds by
        construction.  When the engine observed the run, the
        measurement's span-profile tree is grafted under ``execute``,
        splitting the same counters into per-phase leaves.
        """
        now = self._clock()
        m = response.measurement
        counts = {
            "words": 0 if m is None else int(m.words),
            "messages": 0 if m is None else int(m.messages),
            "flops": 0 if m is None else int(m.flops),
        }
        if response.status == DONE:
            name = "cache" if response.detail.get("cached") else "execute"
            extra = {}
            if name == "execute":
                # Compile-vs-replay attribution lives on the span only
                # (the trace key is stripped from golden comparisons);
                # same worker thread as the run, so the thread-local
                # mode is this job's.
                from repro.schedule import last_run_mode

                extra["schedule"] = last_run_mode()
            if m is not None and getattr(m, "abft", None):
                stats = (m.abft or {}).get("stats") or {}
                extra["abft_detected"] = int(stats.get("detected", 0))
                extra["abft_corrected"] = int(stats.get("corrected", 0))
                extra["abft_verified"] = bool(stats.get("verified"))
            span = log.add(
                name,
                now,
                status=DONE,
                attempts=response.attempts,
                **counts,
                **extra,
            )
            if name == "execute" and m is not None and m.profile:
                log.graft_profile(span, m.profile)
        elif response.status == DEGRADED:
            log.add(
                "degrade",
                now,
                status=DEGRADED,
                reason=response.reason,
                attempts=response.attempts,
                **counts,
            )
        elif response.status == SHED:
            log.add("admission", now, status=SHED, reason=response.reason)
        else:
            log.add(
                "failed",
                now,
                status=FAILED,
                reason=response.reason,
                attempts=response.attempts,
            )
        if log.minted_root:
            log.close_root(
                now,
                t_start=job.submitted_at,
                status=response.status,
                algorithm=job.point.algorithm,
                job_id=job.job_id,
                **counts,
            )
        return dataclasses.replace(response, trace=log.records())

    def _emit_terminal(self, job: Job, response: ServiceResponse) -> None:
        attrs = {"job_id": job.job_id, "algorithm": job.point.algorithm}
        if response.status == DONE:
            self._emit(
                "done", cached=bool(response.detail.get("cached")), **attrs
            )
        else:
            self._emit(response.status, reason=response.reason, **attrs)

    def _finish(self, job: Job, response: ServiceResponse) -> None:
        with self._lock:
            log = self._trace_logs.pop(job.job_id, None)
        if log is not None:
            response = self._attach_trace(log, job, response)
        if self.on_event is not None:
            self._emit_terminal(job, response)
        with self._lock:
            ticket = self._tickets.pop(job.job_id, None)
            self._status_counts[response.status] = (
                self._status_counts.get(response.status, 0) + 1
            )
        METRICS.counter(
            "repro_service_jobs_total",
            status=response.status,
            priority=priority_name(job.priority),
        ).inc()
        METRICS.histogram(
            "repro_service_job_wall_seconds",
            priority=priority_name(job.priority),
        ).observe(response.wall_seconds)
        if ticket is not None:
            ticket.resolve(response)

    def _wall(self, job: Job) -> float:
        return max(0.0, self._clock() - job.submitted_at)

    def _finish_done(
        self, job: Job, m: Measurement, *, attempts: int, detail: dict
    ) -> None:
        # schema v3: a protected job's response says whether the
        # checksum protection verified end-to-end; unprotected jobs
        # omit the key entirely
        verified = None
        abft_rec = getattr(m, "abft", None)
        if abft_rec is not None:
            verified = bool((abft_rec.get("stats") or {}).get("verified"))
        elif job.point.abft:
            verified = False
        self._finish(
            job,
            ServiceResponse(
                job_id=job.job_id,
                status=DONE,
                measurement=m,
                attempts=attempts,
                wall_seconds=self._wall(job),
                priority=job.priority,
                detail=detail,
                verified=verified,
            ),
        )

    def _finish_degraded(
        self,
        job: Job,
        *,
        reason: str,
        attempts: int,
        detail: "dict | None" = None,
    ) -> None:
        pred = predict_point(job.point)
        if pred is None:
            # no closed form to fall back on: the honest answer is a
            # failure that says which rung of the ladder was missing
            self._finish_failed(
                job,
                reason="no-closed-form",
                error=f"degradation ({reason}) has no Table 1/2 row for "
                f"{job.point.label()}",
                attempts=attempts,
                extra_detail={"degrade_reason": reason},
            )
            return
        METRICS.counter("repro_service_degraded_total", reason=reason).inc()
        self._finish(
            job,
            ServiceResponse(
                job_id=job.job_id,
                status=DEGRADED,
                reason=reason,
                detail=dict(detail or {}),
                measurement=degraded_measurement(job.point, pred),
                prediction=pred,
                attempts=attempts,
                wall_seconds=self._wall(job),
                priority=job.priority,
                # a closed-form answer never ran the protection
                verified=False if job.point.abft else None,
            ),
        )

    def _finish_shed(self, job: Job, *, reason: str) -> None:
        METRICS.counter("repro_service_shed_total", reason=reason).inc()
        self._finish(
            job,
            ServiceResponse(
                job_id=job.job_id,
                status=SHED,
                reason=reason,
                wall_seconds=self._wall(job),
                priority=job.priority,
                detail={"queue": self._queue.snapshot()},
            ),
        )

    def _finish_failed(
        self,
        job: Job,
        *,
        reason: str,
        error: str,
        attempts: int,
        extra_detail: "dict | None" = None,
    ) -> None:
        detail = {"error": error}
        detail.update(extra_detail or {})
        self._finish(
            job,
            ServiceResponse(
                job_id=job.job_id,
                status=FAILED,
                reason=reason,
                detail=detail,
                attempts=attempts,
                wall_seconds=self._wall(job),
                priority=job.priority,
                verified=False if job.point.abft else None,
            ),
        )

    # -- introspection -----------------------------------------------------

    def _publish_gauges(self) -> None:
        METRICS.gauge("repro_service_queue_depth").set(len(self._queue))
        with self._lock:
            METRICS.gauge("repro_service_inflight").set(self._inflight)

    def health(self) -> dict:
        """Liveness snapshot: queue, in-flight, breakers, job counts."""
        with self._lock:
            breakers = {
                alg: b.snapshot() for alg, b in sorted(self._breakers.items())
            }
            counts = dict(self._status_counts)
            inflight = self._inflight
            closed = self._closed
        return {
            "accepting": not closed,
            "queue": self._queue.snapshot(),
            "inflight": inflight,
            "workers": self.workers,
            "breakers": breakers,
            "jobs": counts,
        }

    def readiness(self) -> dict:
        """Readiness snapshot: may this instance take *new* traffic?

        ``ready`` is false when the service is closed or the waiting
        room is full (a submit right now would shed or evict).
        """
        h = self.health()
        q = h["queue"]
        ready = h["accepting"] and q["depth"] < q["capacity"]
        return {"ready": ready, "accepting": h["accepting"], "queue": q}

    # -- lifecycle ---------------------------------------------------------

    def stop(self, *, shed_pending: bool = True, timeout: float = 10.0) -> None:
        """Shut down: refuse new work, resolve the backlog, join workers.

        ``shed_pending=True`` (default) resolves every queued job with
        a ``shed``/``shutdown`` response immediately; ``False`` lets
        the workers drain the backlog first (``workers=0`` callers
        should pump :meth:`run_pending` before stopping).
        """
        with self._lock:
            self._closed = True
        if shed_pending:
            for job in self._queue.drain():
                self._finish_shed(job, reason="shutdown")
        self._queue.close()
        for t in self._threads:
            t.join(timeout=timeout)
        self._publish_gauges()

    def __enter__(self) -> "FactorizationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = [
    "FactorizationService",
    "Overloaded",
    "canary_point",
]
