"""Transfer-schedule capture and array replay (the cost-model JIT).

The paper's central observation is that the communication cost of a
Cholesky algorithm is a *closed-form function of shape*: every count
in Tables 1 and 2 depends only on (n, M, block sizes, layout), never
on matrix values.  The simulator exploits that: one instrumented run
of an algorithm is *captured* into a :class:`TransferSchedule` — a
struct-of-arrays record of every interval run it charged, which
direction it moved, and which hierarchy levels it hit — and any later
run of the same shape is *replayed* as a handful of vectorized NumPy
reductions plus one real ``dense_cholesky``, skipping the Python
interpretation of the algorithm entirely.

Capture happens through a :class:`ScheduleRecorder` hooked into every
charging chokepoint of :class:`~repro.machine.core.HierarchicalMachine`
(explicit reads/writes, batched charges, ideal-cache scope charges).
Each recorded run carries a *level bitmask* because the two charging
disciplines differ: explicit transfers are write-through (all levels),
while scope charges land only on the levels where the footprint first
fit.  Replay folds the arrays back into per-level counters and
validates itself: the totals recomputed from the arrays must match the
counter deltas observed during capture, or the schedule is discarded
(:meth:`ScheduleRecorder.finalize` returns ``None``) / refused
(:meth:`TransferSchedule.apply` raises :class:`ScheduleError`) —
a missed chokepoint can therefore never silently under-count.

Fault determinism survives compilation: the realized read-fault
schedule (which sequence numbers faulted, and what the retries cost)
is part of the schedule, so a replay under the same
:class:`~repro.faults.plan.FaultPlan` reconstructs byte-identical
fault events and statistics.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.core import HierarchicalMachine
    from repro.util.intervals import IntervalSet, RunBatch

#: On-disk / serialization format version; bump on layout changes.
SCHEDULE_FORMAT = 1


class ScheduleError(RuntimeError):
    """A compiled schedule cannot be applied to the given machine."""


def _ceil_messages(lengths: np.ndarray, cap: int) -> int:
    """Σ ceil(len / cap) over runs — the per-level message count."""
    if not len(lengths):
        return 0
    return int(-((-lengths) // cap).sum())


class TransferSchedule:
    """One algorithm run, compiled to arrays (the replayable artifact).

    Arrays (one entry per charged interval run, in charge order):

    * ``starts`` / ``stops`` — the half-open address run;
    * ``kinds`` — True for writes (fast → slow), False for reads;
    * ``masks`` — bitmask of hierarchy levels the run was charged at
      (bit ``i`` = ``machine.levels[i]``); explicit transfers carry the
      full mask, ideal-cache scope charges only their fitted levels.

    Scalars / metadata: the machine shape it was captured on
    (``capacities``, ``enforce_capacity``), the run's arithmetic and
    bookkeeping totals (``flops``, ``batch_hits``, ``read_calls``,
    per-level ``peaks``), the per-level counter totals observed at
    capture (``totals``, the ground truth replay is checked against),
    and the realized fault schedule (``fault_seqs`` and retry costs)
    under ``fault_digest`` (digest of the plan, ``None`` = fault-free).
    """

    __slots__ = (
        "starts",
        "stops",
        "kinds",
        "masks",
        "capacities",
        "enforce_capacity",
        "flops",
        "batch_hits",
        "read_calls",
        "peaks",
        "totals",
        "fault_digest",
        "fault_seqs",
        "fault_retry_words",
        "fault_retry_messages",
        "_verified",
    )

    def __init__(
        self,
        *,
        starts: np.ndarray,
        stops: np.ndarray,
        kinds: np.ndarray,
        masks: np.ndarray,
        capacities: Sequence[int],
        enforce_capacity: bool,
        flops: int,
        batch_hits: int,
        read_calls: int,
        peaks: Sequence[int],
        totals: Sequence[Sequence[int]],
        fault_digest: str | None = None,
        fault_seqs: Sequence[int] = (),
        fault_retry_words: int = 0,
        fault_retry_messages: int = 0,
    ) -> None:
        self.starts = np.asarray(starts, dtype=np.int64)
        self.stops = np.asarray(stops, dtype=np.int64)
        self.kinds = np.asarray(kinds, dtype=bool)
        self.masks = np.asarray(masks, dtype=np.int64)
        nruns = len(self.starts)
        if not (len(self.stops) == len(self.kinds) == len(self.masks) == nruns):
            raise ValueError("schedule arrays must have equal length")
        self.capacities = tuple(int(c) for c in capacities)
        self.enforce_capacity = bool(enforce_capacity)
        self.flops = int(flops)
        self.batch_hits = int(batch_hits)
        self.read_calls = int(read_calls)
        self.peaks = tuple(int(p) for p in peaks)
        self.totals = tuple(tuple(int(x) for x in row) for row in totals)
        if len(self.peaks) != len(self.capacities):
            raise ValueError("need one peak per level")
        if len(self.totals) != len(self.capacities) or any(
            len(row) != 4 for row in self.totals
        ):
            raise ValueError(
                "totals must be one (wr, mr, ww, mw) quadruple per level"
            )
        self.fault_digest = fault_digest
        self.fault_seqs = tuple(int(s) for s in fault_seqs)
        self.fault_retry_words = int(fault_retry_words)
        self.fault_retry_messages = int(fault_retry_messages)
        self._verified = False

    # -- queries ---------------------------------------------------------

    @property
    def nruns(self) -> int:
        """Number of recorded interval runs."""
        return len(self.starts)

    def level_runs(
        self, level: int = 0
    ) -> Iterator[tuple[int, int, bool]]:
        """Yield ``(start, stop, is_write)`` runs charged at ``level``.

        In charge order — the stream an element-wise run would have
        issued at that boundary, suitable for
        :meth:`~repro.machine.lru.LRUCache.replay_runs` and
        :meth:`~repro.machine.stack_distance.StackDistanceAnalyzer.analyze_runs`.
        """
        if not 0 <= level < len(self.capacities):
            raise ValueError(f"no level {level} in {self.capacities}")
        sel = (self.masks & (1 << level)) != 0
        for a, b, w in zip(
            self.starts[sel].tolist(),
            self.stops[sel].tolist(),
            self.kinds[sel].tolist(),
        ):
            yield a, b, w

    def computed_totals(self) -> tuple[tuple[int, int, int, int], ...]:
        """Per-level (wr, mr, ww, mw) recomputed from the arrays.

        This is the replay reduction itself: boolean-mask selects, one
        sum and one ceil-divide sum per (level, direction).
        """
        lengths = self.stops - self.starts
        out = []
        for i, cap in enumerate(self.capacities):
            sel = (self.masks & (1 << i)) != 0
            wsel = sel & self.kinds
            rsel = sel & ~self.kinds
            rlen = lengths[rsel]
            wlen = lengths[wsel]
            out.append(
                (
                    int(rlen.sum()),
                    _ceil_messages(rlen, cap),
                    int(wlen.sum()),
                    _ceil_messages(wlen, cap),
                )
            )
        return tuple(out)

    def verify(self) -> None:
        """Check the arrays against the captured counter totals.

        Raises :class:`ScheduleError` on any mismatch.  Runs once per
        instance (the result is memoized), so a schedule replayed many
        times pays the array reduction only on its first application.
        """
        if self._verified:
            return
        computed = self.computed_totals()
        if computed != self.totals:
            raise ScheduleError(
                "schedule self-check failed: array totals "
                f"{computed} != captured counter totals {self.totals}"
            )
        if len(self.fault_seqs) and self.fault_digest is None:
            raise ScheduleError("fault events recorded without a fault plan")
        self._verified = True

    # -- replay ----------------------------------------------------------

    def apply(self, machine: "HierarchicalMachine") -> None:
        """Fold this schedule into ``machine`` — the replay entry point.

        Validates *everything* before mutating anything, so a raised
        :class:`ScheduleError` leaves the machine untouched and the
        caller free to fall back to a normal captured run:

        * the machine's shape (capacities, enforcement) matches;
        * the machine is pristine (zero counters, nothing resident, no
          trace/recorder — those observe per-event state a bulk replay
          cannot reproduce; a budget guard is settled by the caller
          against :attr:`totals` before replaying);
        * the fault configuration matches (plan digest, fresh injector);
        * the arrays reproduce the captured totals (:meth:`verify`).

        On success the machine ends in exactly the state the captured
        run left it in: counters, peaks, flops, batch hits, read
        sequence, and — with faults armed — the identical realized
        fault event list and statistics.
        """
        from repro.faults.injector import FaultEvent

        caps = tuple(lvl.capacity for lvl in machine.levels)
        if caps != self.capacities:
            raise ScheduleError(
                f"machine capacities {caps} != schedule {self.capacities}"
            )
        if machine.enforce_capacity != self.enforce_capacity:
            raise ScheduleError("capacity-enforcement flag mismatch")
        if machine.trace is not None:
            raise ScheduleError("cannot replay onto a tracing machine")
        if getattr(machine, "recorder", None) is not None:
            raise ScheduleError("cannot replay onto a recording machine")
        if machine._scope_depth != 0 or not machine.resident.is_empty():
            raise ScheduleError("machine is mid-run (scope open or data resident)")
        if (
            machine.flops
            or machine.batch_hits
            or machine._read_seq
            or any(
                lvl.counters.words or lvl.counters.messages or lvl.peak_resident
                for lvl in machine.levels
            )
        ):
            raise ScheduleError("machine counters are not pristine")
        if self.fault_digest is None:
            if machine.faults is not None:
                raise ScheduleError("fault-free schedule, faulty machine")
        else:
            if machine.faults is None:
                raise ScheduleError("faulty schedule, fault-free machine")
            from repro.schedule.cache import fault_plan_digest

            if fault_plan_digest(machine.faults.plan) != self.fault_digest:
                raise ScheduleError("fault plan digest mismatch")
            if machine.faults.events or machine.faults.stats.any_injected():
                raise ScheduleError("machine fault injector is not fresh")
        self.verify()

        for level, (wr, mr, ww, mw), peak in zip(
            machine.levels, self.totals, self.peaks
        ):
            level.counters.add_batch(wr, mr, ww, mw)
            level.note_resident(peak)
        machine.flops += self.flops
        machine.batch_hits += self.batch_hits
        machine._read_seq += self.read_calls
        if self.fault_digest is not None and machine.faults is not None:
            stats = machine.faults.stats
            for seq in self.fault_seqs:
                machine.faults.events.append(FaultEvent("read", -1, -1, seq, 0))
            stats.read_faults += len(self.fault_seqs)
            stats.read_retry_words += self.fault_retry_words
            stats.read_retry_messages += self.fault_retry_messages

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready representation (plain lists, schema-versioned)."""
        return {
            "format": SCHEDULE_FORMAT,
            "starts": self.starts.tolist(),
            "stops": self.stops.tolist(),
            "kinds": self.kinds.astype(np.int8).tolist(),
            "masks": self.masks.tolist(),
            "capacities": list(self.capacities),
            "enforce_capacity": self.enforce_capacity,
            "flops": self.flops,
            "batch_hits": self.batch_hits,
            "read_calls": self.read_calls,
            "peaks": list(self.peaks),
            "totals": [list(row) for row in self.totals],
            "fault_digest": self.fault_digest,
            "fault_seqs": list(self.fault_seqs),
            "fault_retry_words": self.fault_retry_words,
            "fault_retry_messages": self.fault_retry_messages,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TransferSchedule":
        """Rebuild a schedule from :meth:`to_dict` output."""
        if doc.get("format") != SCHEDULE_FORMAT:
            raise ScheduleError(
                f"unsupported schedule format {doc.get('format')!r}"
            )
        return cls(
            starts=np.asarray(doc["starts"], dtype=np.int64),
            stops=np.asarray(doc["stops"], dtype=np.int64),
            kinds=np.asarray(doc["kinds"], dtype=bool),
            masks=np.asarray(doc["masks"], dtype=np.int64),
            capacities=doc["capacities"],
            enforce_capacity=doc["enforce_capacity"],
            flops=doc["flops"],
            batch_hits=doc["batch_hits"],
            read_calls=doc["read_calls"],
            peaks=doc["peaks"],
            totals=doc["totals"],
            fault_digest=doc.get("fault_digest"),
            fault_seqs=doc.get("fault_seqs", ()),
            fault_retry_words=doc.get("fault_retry_words", 0),
            fault_retry_messages=doc.get("fault_retry_messages", 0),
        )

    def canonical_json(self) -> str:
        """The canonical JSON text of :meth:`to_dict` (what is digested)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form (corruption detection)."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        return (
            f"TransferSchedule(runs={self.nruns}, "
            f"capacities={self.capacities}, flops={self.flops})"
        )


class ScheduleRecorder:
    """Capture hook: tap every charge a machine makes into arrays.

    Attached as ``machine.recorder`` for the duration of one run on a
    *pristine* machine (all counters zero — asserted here), then
    :meth:`finalize` diffs the counters against the recorded arrays
    and produces a :class:`TransferSchedule`, or ``None`` when the
    self-check fails (in which case nothing is cached and the run
    simply keeps the counts it computed the ordinary way).
    """

    def __init__(self, machine: "HierarchicalMachine") -> None:
        if any(
            lvl.counters.words or lvl.counters.messages or lvl.peak_resident
            for lvl in machine.levels
        ) or machine.flops or machine.batch_hits or machine._read_seq:
            raise ScheduleError("capture requires a pristine machine")
        self.machine = machine
        self.full_mask = (1 << len(machine.levels)) - 1
        self._starts: list[np.ndarray] = []
        self._stops: list[np.ndarray] = []
        self._kinds: list[np.ndarray] = []
        self._masks: list[np.ndarray] = []
        self._fault_seqs: list[int] = []

    def record_set(
        self, ivs: "IntervalSet", is_write: bool, mask: int | None = None
    ) -> None:
        """Record one explicit/scope transfer of ``ivs``.

        ``mask`` selects the charged levels; ``None`` means the full
        write-through mask (explicit transfers).
        """
        pairs = ivs.intervals
        if not pairs:
            return
        arr = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
        self._starts.append(arr[:, 0])
        self._stops.append(arr[:, 1])
        self._kinds.append(np.full(len(arr), bool(is_write), dtype=bool))
        self._masks.append(
            np.full(
                len(arr),
                self.full_mask if mask is None else int(mask),
                dtype=np.int64,
            )
        )

    def record_batch(self, batch: "RunBatch") -> None:
        """Record a whole batched charge (always full write-through mask)."""
        if not len(batch.starts):
            return
        self._starts.append(batch.starts.copy())
        self._stops.append(batch.stops.copy())
        self._kinds.append(
            np.repeat(batch.is_write, np.diff(batch.offsets))
        )
        self._masks.append(
            np.full(len(batch.starts), self.full_mask, dtype=np.int64)
        )

    def record_fault(self, seq: int) -> None:
        """Record that explicit read ``seq`` faulted (retry was charged)."""
        self._fault_seqs.append(int(seq))

    def finalize(self) -> TransferSchedule | None:
        """Close the capture and build the schedule, or ``None`` on drift.

        The machine's final counters are the ground truth; the arrays
        must reproduce them exactly (every charging chokepoint hooked,
        no double recording).  A mismatch means the capture is not
        trustworthy — the schedule is discarded, never cached.
        """
        machine = self.machine
        if self._starts:
            starts = np.concatenate(self._starts)
            stops = np.concatenate(self._stops)
            kinds = np.concatenate(self._kinds)
            masks = np.concatenate(self._masks)
        else:
            starts = np.empty(0, dtype=np.int64)
            stops = np.empty(0, dtype=np.int64)
            kinds = np.empty(0, dtype=bool)
            masks = np.empty(0, dtype=np.int64)
        totals = tuple(
            (
                lvl.counters.words_read,
                lvl.counters.messages_read,
                lvl.counters.words_written,
                lvl.counters.messages_written,
            )
            for lvl in machine.levels
        )
        fault_digest = None
        retry_words = retry_messages = 0
        if machine.faults is not None:
            from repro.schedule.cache import fault_plan_digest

            fault_digest = fault_plan_digest(machine.faults.plan)
            retry_words = machine.faults.stats.read_retry_words
            retry_messages = machine.faults.stats.read_retry_messages
            if len(self._fault_seqs) != machine.faults.stats.read_faults:
                return None
        schedule = TransferSchedule(
            starts=starts,
            stops=stops,
            kinds=kinds,
            masks=masks,
            capacities=[lvl.capacity for lvl in machine.levels],
            enforce_capacity=machine.enforce_capacity,
            flops=machine.flops,
            batch_hits=machine.batch_hits,
            read_calls=machine._read_seq,
            peaks=[lvl.peak_resident for lvl in machine.levels],
            totals=totals,
            fault_digest=fault_digest,
            fault_seqs=self._fault_seqs,
            fault_retry_words=retry_words,
            fault_retry_messages=retry_messages,
        )
        try:
            schedule.verify()
        except ScheduleError:
            return None
        return schedule
