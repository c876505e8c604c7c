"""Budget-guarded runs on the compiled path.

A budget guard only compares monotone counters with caps, so whether a
run trips is settled before it starts from the cached schedule's
totals (``BudgetGuard.admits``).  These pin the contract across the
whole sequential registry: a run that fits replays with the counters
and guard spend of an uncompiled run, and a run that does not fit
trips exactly as an uncompiled run does — same ``(reason, spent,
limit)``, same partial guard totals — because it *is* the interpreted
run.
"""

from __future__ import annotations

import pytest

from repro.experiments.engine import execute_point
from repro.experiments.spec import SpecPoint
from repro.machine import SequentialMachine
from repro.schedule import (
    ScheduleCache,
    compile_disabled,
    last_run_mode,
    set_default_cache,
)
from repro.sequential.registry import available_algorithms
from repro.serving.api import DEGRADED, DONE, Job
from repro.serving.budget import Budget, BudgetExceeded
from repro.serving.clock import ManualClock
from repro.serving.cluster import ServingCluster
from repro.util.intervals import IntervalSet

ALGORITHMS = available_algorithms()


@pytest.fixture()
def fresh_cache():
    """Isolate each test from the ambient process-wide schedule cache."""
    cache = ScheduleCache(None, version="test")
    prev = set_default_cache(cache)
    yield cache
    set_default_cache(prev)


def _point(algorithm: str, seed: int = 0) -> SpecPoint:
    layout = "morton" if algorithm == "square-recursive" else "column-major"
    return SpecPoint(
        kind="sequential",
        algorithm=algorithm,
        layout=layout,
        n=32,
        M=96,
        seed=seed,
    )


def _captured(algorithm: str):
    """Capture the shape's schedule; return the unguarded measurement."""
    m, _ = execute_point(_point(algorithm, seed=1))
    assert last_run_mode() == "capture"
    return m


def _guard(budget: Budget, prior_words: int = 0):
    """A guard on a frozen clock, optionally carrying an earlier
    attempt's spend of ``prior_words`` words."""
    guard = budget.guard(clock=ManualClock())
    if prior_words:
        earlier = SequentialMachine(4 * prior_words)
        earlier.read(IntervalSet.single(0, prior_words))
        guard.attempt_done(earlier)
    return guard


def _outcome(point: SpecPoint, guard):
    """Run ``point`` under ``guard``: (measurement or trip, guard spend, mode)."""
    try:
        m, _ = execute_point(point, guard=guard)
        result = m
    except BudgetExceeded as exc:
        result = (exc.reason, exc.spent, exc.limit)
    return result, guard.spent(), last_run_mode()


def _both(point: SpecPoint, make_guard):
    """The outcome with compilation on, then with it off."""
    compiled = _outcome(point, make_guard())
    with compile_disabled():
        interpreted = _outcome(point, make_guard())
    assert interpreted[2] == "off"
    return compiled, interpreted


@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestGuardedReplay:
    def test_roomy_budget_replays_with_identical_counts(self, fresh_cache, algorithm):
        m0 = _captured(algorithm)
        budget = Budget(
            max_words=10 * m0.words,
            max_messages=10 * m0.messages,
            max_flops=10 * m0.flops,
        )
        compiled, interpreted = _both(_point(algorithm), lambda: _guard(budget))
        assert compiled[2] == "replay"
        assert isinstance(compiled[0], type(m0))
        assert compiled[0] == interpreted[0]
        assert compiled[1] == interpreted[1]
        assert compiled[1]["words"] == compiled[0].words

    def test_exact_budget_still_replays(self, fresh_cache, algorithm):
        m0 = _captured(algorithm)
        budget = Budget(
            max_words=m0.words, max_messages=m0.messages, max_flops=m0.flops
        )
        compiled, interpreted = _both(_point(algorithm), lambda: _guard(budget))
        assert compiled[2] == "replay"
        assert compiled[:2] == interpreted[:2]

    @pytest.mark.parametrize("cap", ["words", "messages", "flops"])
    def test_cap_one_under_trips_identically(self, fresh_cache, algorithm, cap):
        m0 = _captured(algorithm)
        budget = Budget(**{f"max_{cap}": getattr(m0, cap) - 1})
        compiled, interpreted = _both(_point(algorithm), lambda: _guard(budget))
        assert compiled[2] == "off"
        assert compiled[0] == interpreted[0]
        assert compiled[0][0] == cap
        assert compiled[1] == interpreted[1]

    def test_earlier_spend_pushes_over_cap(self, fresh_cache, algorithm):
        m0 = _captured(algorithm)
        budget = Budget(max_words=m0.words)
        compiled, interpreted = _both(
            _point(algorithm), lambda: _guard(budget, prior_words=7)
        )
        assert compiled[2] == "off"
        assert compiled[0] == interpreted[0]
        assert compiled[0][0] == "words"
        assert compiled[1] == interpreted[1]

    def test_deadline_already_past_trips_identically(self, fresh_cache, algorithm):
        _captured(algorithm)

        def past_deadline():
            clock = ManualClock()
            guard = Budget(deadline_seconds=1.0).guard(clock=clock)
            clock.advance(2.0)
            return guard

        compiled, interpreted = _both(_point(algorithm), past_deadline)
        assert compiled[2] == "off"
        assert compiled[0] == interpreted[0] == ("deadline", 2.0, 1.0)
        assert compiled[1] == interpreted[1]


def test_trip_during_capture_caches_nothing(fresh_cache):
    point = _point("lapack")
    with compile_disabled():
        m0, _ = execute_point(point)
    guard = _guard(Budget(max_words=m0.words - 1))
    with pytest.raises(BudgetExceeded):
        execute_point(point, guard=guard)
    assert fresh_cache.stats()["entries_memory"] == 0
    execute_point(point)
    assert last_run_mode() == "capture"


def test_expired_deadline_degrades_in_service(fresh_cache):
    from repro.serving.service import FactorizationService

    _captured("lapack")
    clock = ManualClock()
    with FactorizationService(workers=0, clock=clock) as svc:
        ticket = svc.submit(
            Job(point=_point("lapack"), budget=Budget(deadline_seconds=1.0))
        )
        clock.advance(2.0)
        svc.run_pending()
        response = ticket.result(timeout=0)
    assert response.status == DEGRADED
    assert response.reason == "deadline"


def test_inline_cluster_budgeted_jobs_replay(fresh_cache):
    cluster = ServingCluster(shards=2, mode="inline", tracing=True)
    try:
        tickets = []
        for seed in range(4):
            point = _point("toledo", seed=seed)
            tickets.append(
                cluster.submit(Job(point=point, budget=Budget(max_words=10**9)))
            )
            cluster.run_pending()
        responses = [t.result(timeout=0) for t in tickets]
    finally:
        cluster.stop()
    modes = []
    for response in responses:
        assert response.status == DONE
        (execute,) = [r for r in response.trace if r.name == "execute"]
        modes.append(dict(execute.attrs)["schedule"])
    assert modes == ["capture", "replay", "replay", "replay"]
