"""Per-job resource budgets and their live enforcement.

A :class:`Budget` is a declarative quota for one job: a wall-clock
deadline plus caps on the *simulated* cost the job may charge — words,
messages and flops in the machine model's own currency.  A
:class:`BudgetGuard` is the live enforcer: the simulators call into it
from their charging chokepoints (``HierarchicalMachine`` polls its
counters, the ``Network`` reports each transfer), and the guard raises
:class:`BudgetExceeded` the moment any cap is crossed.  The exception
carries a machine-readable ``reason`` so the serving layer can decide
how to degrade.  A run replayed from a compiled schedule reaches no
chokepoint: it is admitted up front against the schedule's totals
(:meth:`BudgetGuard.admits`) and polled once after the replay.

The guard is deliberately dumb and cheap: integer comparisons plus one
clock read per check.  A machine or network with no guard attached
(``guard is None``) takes a single pointer test per chokepoint and is
otherwise untouched — the zero-overhead-when-unused guarantee the
golden count tests enforce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.serving.clock import MONOTONIC, Clock


class BudgetExceeded(RuntimeError):
    """A job crossed one of its budget caps mid-run.

    ``reason`` is one of ``"words"``, ``"messages"``, ``"flops"``,
    ``"deadline"``; ``spent``/``limit`` quantify the violation in the
    reason's unit (words, messages, flops, or seconds).
    """

    def __init__(self, reason: str, spent: float, limit: float) -> None:
        super().__init__(
            f"budget exceeded: {reason} spent {spent:g} > limit {limit:g}"
        )
        self.reason = reason
        self.spent = spent
        self.limit = limit


@dataclass(frozen=True)
class Budget:
    """Declarative per-job quota (``None`` caps are unlimited).

    ``max_words``/``max_messages``/``max_flops`` cap the simulated cost
    charged to the job's machine or network; ``deadline_seconds`` caps
    real wall-clock time, measured from the moment the guard is created
    (job submission, so queueing time counts against the deadline).
    """

    max_words: int | None = None
    max_messages: int | None = None
    max_flops: int | None = None
    deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        for name in ("max_words", "max_messages", "max_flops"):
            v = getattr(self, name)
            if v is not None and int(v) < 0:
                raise ValueError(f"{name} must be >= 0, got {v}")
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise ValueError(
                f"deadline_seconds must be >= 0, got {self.deadline_seconds}"
            )

    def is_unlimited(self) -> bool:
        """True when no cap is set (guarding would be a no-op)."""
        return (
            self.max_words is None
            and self.max_messages is None
            and self.max_flops is None
            and self.deadline_seconds is None
        )

    def guard(self, *, clock: Clock = MONOTONIC, start: float | None = None) -> "BudgetGuard":
        """A live enforcer for one job (``start`` defaults to now)."""
        return BudgetGuard(self, clock=clock, start=start)

    def to_dict(self) -> dict:
        """JSON-ready dict (response/artifact payload)."""
        return {
            "max_words": self.max_words,
            "max_messages": self.max_messages,
            "max_flops": self.max_flops,
            "deadline_seconds": self.deadline_seconds,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Budget":
        """Rebuild a budget from :meth:`to_dict` output."""
        return cls(
            max_words=d.get("max_words"),
            max_messages=d.get("max_messages"),
            max_flops=d.get("max_flops"),
            deadline_seconds=d.get("deadline_seconds"),
        )


class BudgetGuard:
    """Live budget enforcement for one job, across all its attempts.

    The guard is created once at submission and reused through every
    retry, so the deadline is absolute (submission + deadline) and the
    simulated-cost caps are cumulative across attempts — a job cannot
    evade its quota by failing and retrying.

    Two feeding styles, one per simulator:

    * :meth:`check_machine` — the sequential machine polls: the guard
      reads the fastest level's counters plus the flop count, adds the
      cost of earlier attempts, and compares against the caps.
    * :meth:`spend` — the network reports incrementally: each physical
      transfer and each ``compute`` call adds to the running totals.

    Both paths raise :class:`BudgetExceeded` (and remember the verdict:
    a tripped guard keeps raising on every later check).
    """

    def __init__(
        self,
        budget: Budget,
        *,
        clock: Clock = MONOTONIC,
        start: float | None = None,
    ) -> None:
        self.budget = budget
        self._clock = clock
        self.start = clock() if start is None else float(start)
        self._deadline_at = (
            None
            if budget.deadline_seconds is None
            else self.start + budget.deadline_seconds
        )
        # cumulative spend from *finished* attempts (attempt_done) plus
        # the incremental network-style spends of the current attempt
        self.words = 0
        self.messages = 0
        self.flops = 0
        self.exceeded: BudgetExceeded | None = None

    # -- feeding ---------------------------------------------------------

    def check_machine(self, machine) -> None:
        """Poll a sequential machine's counters against the caps."""
        lvl = machine.levels[0]
        self._enforce(
            self.words + lvl.words,
            self.messages + lvl.messages,
            self.flops + machine.flops,
        )

    def spend(self, words: int = 0, messages: int = 0, flops: int = 0) -> None:
        """Record incremental cost (network transfers and compute)."""
        self.words += words
        self.messages += messages
        self.flops += flops
        self._enforce(self.words, self.messages, self.flops)

    def attempt_done(self, machine=None) -> None:
        """Fold a finished attempt's machine counters into the base spend.

        Called between retries so the next attempt's fresh machine
        still counts against the same cumulative quota.  Network-style
        incremental spends are already cumulative and need no folding.
        """
        if machine is not None:
            lvl = machine.levels[0]
            self.words += lvl.words
            self.messages += lvl.messages
            self.flops += machine.flops

    # -- verdicts --------------------------------------------------------

    def admits(self, schedule) -> bool:
        """Would a run with this compiled schedule finish within budget?

        ``schedule`` is a :class:`~repro.schedule.TransferSchedule`.
        Machine counters only grow, so a run trips no cap at any
        chokepoint exactly when the earlier attempts' spend plus the
        schedule's fastest-level totals and flops fit every cap.  A
        guard that has already tripped, or whose deadline has passed,
        admits nothing: the interpreted run reports those verdicts
        itself.
        """
        if self.exceeded is not None:
            return False
        if self._deadline_at is not None and self._clock() >= self._deadline_at:
            return False
        wr, mr, ww, mw = schedule.totals[0]
        b = self.budget
        return not (
            (b.max_words is not None and self.words + wr + ww > b.max_words)
            or (
                b.max_messages is not None
                and self.messages + mr + mw > b.max_messages
            )
            or (b.max_flops is not None and self.flops + schedule.flops > b.max_flops)
        )

    def check_deadline(self) -> None:
        """Raise if the wall-clock deadline has passed (cost caps not read)."""
        if self.exceeded is not None:
            raise self.exceeded
        self._check_deadline()

    def remaining_seconds(self) -> float | None:
        """Seconds until the deadline (``None`` when no deadline is set)."""
        if self._deadline_at is None:
            return None
        return self._deadline_at - self._clock()

    def spent(self) -> dict:
        """Current cumulative spend (response/diagnostic payload)."""
        return {
            "words": self.words,
            "messages": self.messages,
            "flops": self.flops,
            "elapsed_seconds": self._clock() - self.start,
        }

    def _check_deadline(self) -> None:
        if self._deadline_at is not None and self._clock() >= self._deadline_at:
            exc = BudgetExceeded(
                "deadline",
                self._clock() - self.start,
                self.budget.deadline_seconds,
            )
            self.exceeded = exc
            raise exc

    def _enforce(self, words: int, messages: int, flops: int) -> None:
        if self.exceeded is not None:
            raise self.exceeded
        b = self.budget
        exc: BudgetExceeded | None = None
        if b.max_words is not None and words > b.max_words:
            exc = BudgetExceeded("words", words, b.max_words)
        elif b.max_messages is not None and messages > b.max_messages:
            exc = BudgetExceeded("messages", messages, b.max_messages)
        elif b.max_flops is not None and flops > b.max_flops:
            exc = BudgetExceeded("flops", flops, b.max_flops)
        if exc is not None:
            self.exceeded = exc
            raise exc
        self._check_deadline()


__all__ = ["Budget", "BudgetExceeded", "BudgetGuard"]
