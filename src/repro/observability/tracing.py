"""Distributed tracing: W3C-style trace context across the serving cluster.

PR 2's phase spans (:mod:`repro.observability.spans`) attribute every
simulated word, message and flop to a phase — inside one process.  The
sharded cluster (PR 6) broke that accounting at the process boundary:
a job crosses client → front door → shard subprocess → engine → shared
store, and none of those hops shared a trace.  This module is the
cross-process half of the story:

* :class:`TraceContext` — the W3C-trace-context-shaped triple
  (``trace_id`` / ``span_id`` / ``parent_span_id``) minted once at job
  submission and carried through the versioned wire schema
  (``schema_version: 2`` in :mod:`repro.serving.api`).
* :class:`SpanRecord` — one finished stage of one job on one process
  (``frontdoor`` root and routing, shard-side ``queue`` /
  ``execute`` / ``cache`` / ``degrade``), with wall-clock bounds read
  from the *injected* clock and the simulated counter deltas the stage
  is responsible for.
* :class:`TraceLog` — the per-job accumulator a service keeps while a
  traced job is in flight; it derives span ids deterministically and
  can graft a :class:`~repro.observability.spans.SpanProfile` tree
  (the engine's in-process phase spans) under the ``execute`` span, so
  a single trace reaches from the client down to individual ``trsm``
  panels.
* :func:`validate_trace` — the cross-process extension of PR 2's
  leaf-reconciliation invariant: in every terminal trace the *leaf*
  spans' counter deltas sum exactly to the job's measured totals.
* :func:`cluster_trace_doc` / :func:`write_cluster_trace` — a merged
  Chrome ``trace_event`` export with one track per process (front door
  plus each shard), spans linked by trace id.

Determinism
-----------

Trace ids are **content-derived**: :func:`mint_trace_id` hashes the
job's spec cache key (:meth:`SpecPoint.key`), and span ids hash
``(trace_id, parent, name, occurrence)``.  With the inline cluster's
shared :class:`~repro.serving.clock.ManualClock` (time never moves
unless a test moves it), two runs of the same workload — at *any*
shard count — produce byte-identical :func:`canonical_trace` forms.
The canonical form deliberately excludes the ``process`` label and the
placement attributes (:data:`VOLATILE_ATTRS`): which shard served a
key is configuration, not structure.

Zero cost when disabled
-----------------------

Nothing here runs unless a job carries a :class:`TraceContext`
(``tracing=True`` on the service or cluster front door).  An untraced
job allocates no log, records no span and gains no wire field beyond a
``None`` — the golden equality suite asserts counters, span trees and
fault schedules are unchanged either way.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping, Sequence

from repro.util.serialization import atomic_write_json

#: Length of a trace id / span id in hex characters (W3C sizes).
TRACE_ID_HEX = 32
SPAN_ID_HEX = 16

#: Name of the root span every traced job gets (front door / service).
ROOT_SPAN = "job"

#: Attribute keys excluded from :func:`canonical_trace`: placement is
#: configuration (which shard owns a key changes with the ring), not
#: trace structure, and ``job_id`` comes from a process-global counter
#: — neither may break cross-run / cross-shard-count determinism.
VOLATILE_ATTRS = frozenset({"shard", "from_shard", "job_id"})

#: The three simulated counters a span attributes (headline fields of
#: :class:`~repro.results.Measurement`).
COUNTER_KEYS = ("words", "messages", "flops")


def mint_trace_id(key: str) -> str:
    """Derive the 32-hex trace id for a job from its spec cache key.

    Content-derived on purpose: the same spec always yields the same
    trace id, across runs, shard counts and processes — the property
    the inline determinism suite pins down.  Two jobs for an identical
    spec share a trace (they are the same logical work; the Chrome
    export disambiguates instances by ``job_id`` in the event args).
    """
    digest = hashlib.sha256(b"repro-trace:" + key.encode("ascii"))
    return digest.hexdigest()[:TRACE_ID_HEX]


def derive_span_id(
    trace_id: str, parent_span_id: "str | None", name: str, occurrence: int = 0
) -> str:
    """Deterministic 16-hex span id for one named child of a parent."""
    material = f"{trace_id}/{parent_span_id or '-'}/{name}/{occurrence}"
    return hashlib.sha256(material.encode("ascii")).hexdigest()[:SPAN_ID_HEX]


@dataclass(frozen=True)
class TraceContext:
    """The propagated context: where in which trace am I?

    ``span_id`` names the span that owns the context — for the context
    a job carries over the wire, that is the *root* span the front
    door minted; shard-side spans parent themselves under it.
    """

    trace_id: str
    span_id: str
    parent_span_id: "str | None" = None

    def child(self, name: str, occurrence: int = 0) -> "TraceContext":
        """The context a child span of this one would carry."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=derive_span_id(
                self.trace_id, self.span_id, name, occurrence
            ),
            parent_span_id=self.span_id,
        )

    def traceparent(self) -> str:
        """W3C ``traceparent`` header rendering (version 00, sampled)."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    def to_dict(self) -> dict:
        """JSON-ready wire form (rides in the schema-v2 job document)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TraceContext":
        """Rebuild from :meth:`to_dict` output."""
        parent = d.get("parent_span_id")
        return cls(
            trace_id=str(d["trace_id"]),
            span_id=str(d["span_id"]),
            parent_span_id=None if parent is None else str(parent),
        )


def root_context(point_key: str) -> TraceContext:
    """Mint the root context for a job from its spec cache key."""
    trace_id = mint_trace_id(point_key)
    return TraceContext(
        trace_id=trace_id,
        span_id=derive_span_id(trace_id, None, ROOT_SPAN, 0),
        parent_span_id=None,
    )


@dataclass(frozen=True)
class SpanRecord:
    """One finished stage of one traced job on one process.

    ``words`` / ``messages`` / ``flops`` are the *inclusive* simulated
    counter deltas the stage is responsible for (children included,
    exactly like :class:`~repro.observability.spans.SpanProfile`); the
    reconciliation invariant (:func:`validate_trace`) is over leaves.
    ``t_start`` / ``t_end`` are readings of the recording process's
    injected clock.
    """

    trace_id: str
    span_id: str
    parent_span_id: "str | None"
    name: str
    process: str
    t_start: float = 0.0
    t_end: float = 0.0
    status: str = ""
    words: int = 0
    messages: int = 0
    flops: int = 0
    attrs: "tuple[tuple[str, Any], ...]" = ()

    @property
    def duration(self) -> float:
        """Seconds the stage was open (on the recording process's clock)."""
        return self.t_end - self.t_start

    def attr(self, key: str, default: Any = None) -> Any:
        """One attribute value by key."""
        for k, v in self.attrs:
            if k == key:
                return v
        return default

    def to_dict(self) -> dict:
        """JSON-ready wire form (rides in the schema-v2 response)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "name": self.name,
            "process": self.process,
            "t_start": float(self.t_start),
            "t_end": float(self.t_end),
            "status": self.status,
            "words": int(self.words),
            "messages": int(self.messages),
            "flops": int(self.flops),
            "attrs": [[k, v] for k, v in self.attrs],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SpanRecord":
        """Rebuild from :meth:`to_dict` output."""
        parent = d.get("parent_span_id")
        return cls(
            trace_id=str(d["trace_id"]),
            span_id=str(d["span_id"]),
            parent_span_id=None if parent is None else str(parent),
            name=str(d["name"]),
            process=str(d.get("process", "")),
            t_start=float(d.get("t_start", 0.0)),
            t_end=float(d.get("t_end", 0.0)),
            status=str(d.get("status", "")),
            words=int(d.get("words", 0)),
            messages=int(d.get("messages", 0)),
            flops=int(d.get("flops", 0)),
            attrs=tuple(
                (str(k), v) for k, v in (d.get("attrs") or ())
            ),
        )


def _freeze_attrs(attrs: Mapping[str, Any]) -> tuple:
    return tuple(sorted((str(k), v) for k, v in attrs.items()))


class TraceLog:
    """Per-job span accumulator for one process (service or front door).

    Span ids are derived from ``(trace_id, parent, name, occurrence)``
    in append order, so the same sequence of stages always yields the
    same ids — no randomness, no global counters.
    """

    __slots__ = ("ctx", "process", "minted_root", "cursor", "_records",
                 "_occurrences")

    def __init__(
        self,
        ctx: TraceContext,
        *,
        process: str,
        minted_root: bool = False,
        start: float = 0.0,
    ) -> None:
        self.ctx = ctx
        self.process = str(process)
        #: Did this process mint the root context?  If so it must also
        #: emit the root record at finish; a context received over the
        #: wire belongs to the front door, which closes the root itself.
        self.minted_root = bool(minted_root)
        #: Where the next stage starts (stages tile the job's window).
        self.cursor = float(start)
        self._records: "list[SpanRecord]" = []
        self._occurrences: "dict[tuple[str | None, str], int]" = {}

    def _next_occurrence(self, parent: "str | None", name: str) -> int:
        key = (parent, name)
        n = self._occurrences.get(key, 0)
        self._occurrences[key] = n + 1
        return n

    def add(
        self,
        name: str,
        t_end: float,
        *,
        t_start: "float | None" = None,
        parent_span_id: "str | None" = None,
        status: str = "",
        words: int = 0,
        messages: int = 0,
        flops: int = 0,
        **attrs: Any,
    ) -> SpanRecord:
        """Record one stage ending at ``t_end``.

        ``t_start`` defaults to the log's cursor (the previous stage's
        end), so consecutive stages tile the job's wall-clock window;
        the cursor advances to ``t_end``.
        """
        parent = parent_span_id if parent_span_id is not None else self.ctx.span_id
        start = self.cursor if t_start is None else float(t_start)
        record = SpanRecord(
            trace_id=self.ctx.trace_id,
            span_id=derive_span_id(
                self.ctx.trace_id, parent, name,
                self._next_occurrence(parent, name),
            ),
            parent_span_id=parent,
            name=name,
            process=self.process,
            t_start=start,
            t_end=float(t_end),
            status=status,
            words=int(words),
            messages=int(messages),
            flops=int(flops),
            attrs=_freeze_attrs(attrs),
        )
        self._records.append(record)
        self.cursor = max(self.cursor, float(t_end))
        return record

    def close_root(
        self,
        t_end: float,
        *,
        t_start: float,
        status: str,
        words: int = 0,
        messages: int = 0,
        flops: int = 0,
        **attrs: Any,
    ) -> SpanRecord:
        """Emit the root record itself (only the minting process does this).

        The root's span id is the context's own — not derived through
        :meth:`add` — and its counters are the job's *inclusive*
        totals; leaves underneath account for them exactly.
        """
        record = SpanRecord(
            trace_id=self.ctx.trace_id,
            span_id=self.ctx.span_id,
            parent_span_id=None,
            name=ROOT_SPAN,
            process=self.process,
            t_start=float(t_start),
            t_end=float(t_end),
            status=status,
            words=int(words),
            messages=int(messages),
            flops=int(flops),
            attrs=_freeze_attrs(attrs),
        )
        self._records.append(record)
        return record

    def graft_profile(
        self, parent: SpanRecord, profile: "Mapping[str, Any] | None"
    ) -> int:
        """Attach an engine span-profile tree under ``parent``.

        ``profile`` is a serialized
        :class:`~repro.observability.spans.SpanProfile`
        (``Measurement.profile``).  Grafting only happens when the
        profile's own leaf totals reconcile with the parent span's
        counters — a profile that cannot reconcile (partial
        instrumentation) is left out rather than breaking the
        invariant.  Returns the number of records grafted.

        The profile's timestamps are run-relative (its root starts at
        0); they are shifted so the root ends where ``parent`` ends and
        clamped into ``parent``'s interval, so the grafted spans nest
        inside the stage on the log's own clock.
        """
        if not profile:
            return 0
        leaf_totals = _profile_leaf_totals(profile)
        parent_totals = (parent.words, parent.messages, parent.flops)
        if leaf_totals != parent_totals:
            return 0

        offset = parent.t_end - float(profile.get("t_end", 0.0))

        def place(t: Any) -> float:
            return min(max(float(t) + offset, parent.t_start), parent.t_end)

        grafted = 0

        def rec(node: Mapping[str, Any], parent_id: str) -> None:
            nonlocal grafted
            span_id = derive_span_id(
                self.ctx.trace_id, parent_id, str(node["name"]),
                self._next_occurrence(parent_id, str(node["name"])),
            )
            self._records.append(
                SpanRecord(
                    trace_id=self.ctx.trace_id,
                    span_id=span_id,
                    parent_span_id=parent_id,
                    name=str(node["name"]),
                    process=self.process,
                    t_start=place(node.get("t_start", 0.0)),
                    t_end=place(node.get("t_end", 0.0)),
                    words=int(node.get("words", 0)),
                    messages=int(node.get("messages", 0)),
                    flops=int(node.get("flops", 0)),
                    attrs=tuple(
                        (str(k), v) for k, v in (node.get("attrs") or ())
                    ),
                )
            )
            grafted += 1
            for child in node.get("children") or ():
                rec(child, span_id)

        rec(profile, parent.span_id)
        return grafted

    def records(self) -> "tuple[SpanRecord, ...]":
        """The recorded spans, in append order."""
        return tuple(self._records)


def _profile_leaf_totals(profile: Mapping[str, Any]) -> "tuple[int, int, int]":
    """Leaf sums of a serialized SpanProfile tree (words, messages, flops)."""
    totals = [0, 0, 0]

    def rec(node: Mapping[str, Any]) -> None:
        children = node.get("children") or ()
        if not children:
            totals[0] += int(node.get("words", 0))
            totals[1] += int(node.get("messages", 0))
            totals[2] += int(node.get("flops", 0))
            return
        for child in children:
            rec(child)

    rec(profile)
    return (totals[0], totals[1], totals[2])


class TraceInvariantError(AssertionError):
    """A trace violates a structural or reconciliation invariant."""


def _coerce_records(
    records: "Iterable[SpanRecord | Mapping[str, Any]]",
) -> "list[SpanRecord]":
    return [
        r if isinstance(r, SpanRecord) else SpanRecord.from_dict(r)
        for r in records
    ]


def trace_tree(
    records: "Iterable[SpanRecord | Mapping[str, Any]]",
) -> "tuple[SpanRecord, dict[str, list[SpanRecord]]]":
    """Assemble one job's records into ``(root, children-by-span-id)``.

    Raises :class:`TraceInvariantError` on structural breakage: no
    records, multiple trace ids, zero or several roots, an orphaned
    parent reference, or a duplicate span id.
    """
    recs = _coerce_records(records)
    if not recs:
        raise TraceInvariantError("empty trace")
    trace_ids = {r.trace_id for r in recs}
    if len(trace_ids) != 1:
        raise TraceInvariantError(f"mixed trace ids: {sorted(trace_ids)}")
    by_id: "dict[str, SpanRecord]" = {}
    for r in recs:
        if r.span_id in by_id:
            raise TraceInvariantError(f"duplicate span id {r.span_id}")
        by_id[r.span_id] = r
    roots = [r for r in recs if r.parent_span_id is None]
    if len(roots) != 1:
        raise TraceInvariantError(
            f"expected exactly one root span, got {len(roots)}"
        )
    children: "dict[str, list[SpanRecord]]" = {r.span_id: [] for r in recs}
    for r in recs:
        if r.parent_span_id is None:
            continue
        if r.parent_span_id not in by_id:
            raise TraceInvariantError(
                f"span {r.name!r} references unknown parent "
                f"{r.parent_span_id}"
            )
        children[r.parent_span_id].append(r)
    return roots[0], children


def validate_trace(
    records: "Iterable[SpanRecord | Mapping[str, Any]]",
    totals: "Mapping[str, int] | None" = None,
) -> "dict[str, int]":
    """Check a terminal trace's invariants; returns the leaf counter sums.

    Structural invariants come from :func:`trace_tree`.  On top of
    those, this enforces the cross-process extension of PR 2's
    reconciliation property: the **leaf** spans' simulated counter
    deltas sum exactly to the job's totals (pass the terminal
    response's measurement counts as ``totals``; sheds and failures
    reconcile against zero).  Raises :class:`TraceInvariantError` on
    any violation.
    """
    root, children = trace_tree(records)
    leaf_sums = {k: 0 for k in COUNTER_KEYS}
    for span_id, kids in children.items():
        if kids:
            continue
        rec = next(r for r in _coerce_records(records) if r.span_id == span_id)
        for k in COUNTER_KEYS:
            leaf_sums[k] += int(getattr(rec, k))
    if totals is not None:
        expect = {k: int(totals.get(k, 0)) for k in COUNTER_KEYS}
        if leaf_sums != expect:
            raise TraceInvariantError(
                f"leaf counter sums {leaf_sums} != job totals {expect}"
            )
    return leaf_sums


def trace_coverage(
    records: "Iterable[SpanRecord | Mapping[str, Any]]",
    observed_seconds: "float | None" = None,
) -> float:
    """Fraction of the client-observed window covered by non-root spans.

    The union of every *non-root* span interval is measured against
    ``observed_seconds`` (the client-observed latency); when omitted,
    the root span's own duration is the window, since the front door
    opens it at submission and closes it at resolution — the same
    boundary the client observes.  The root itself is excluded from
    the union (it spans the whole window by construction); what is
    measured is how much of that window the recorded *stages* —
    queueing, execution, response transit — actually explain.  Returns
    1.0 for a zero-length window (inline mode's frozen clock).
    """
    recs = _coerce_records(records)
    root, _ = trace_tree(recs)
    window = root.duration if observed_seconds is None else float(observed_seconds)
    if window <= 0.0:
        return 1.0
    intervals = sorted(
        (r.t_start, r.t_end)
        for r in recs
        if r.t_end > r.t_start and r.span_id != root.span_id
    )
    covered = 0.0
    cur_start: "float | None" = None
    cur_end = 0.0
    for start, end in intervals:
        if cur_start is None:
            cur_start, cur_end = start, end
        elif start <= cur_end:
            cur_end = max(cur_end, end)
        else:
            covered += cur_end - cur_start
            cur_start, cur_end = start, end
    if cur_start is not None:
        covered += cur_end - cur_start
    return min(1.0, covered / window)


def canonical_trace(
    records: "Iterable[SpanRecord | Mapping[str, Any]]",
) -> "list[dict]":
    """The placement- and time-free canonical form of one job's trace.

    This is the form the determinism suite compares byte-for-byte
    across runs and across shard counts: span identity, structure,
    status and simulated counters — everything except which process
    recorded a span (``process``), the wall-clock stamps, and the
    :data:`VOLATILE_ATTRS` placement attributes.
    """
    out = []
    for r in sorted(
        _coerce_records(records), key=lambda r: (r.span_id, r.name)
    ):
        out.append(
            {
                "trace_id": r.trace_id,
                "span_id": r.span_id,
                "parent_span_id": r.parent_span_id,
                "name": r.name,
                "status": r.status,
                "words": r.words,
                "messages": r.messages,
                "flops": r.flops,
                "attrs": [
                    [k, v] for k, v in r.attrs if k not in VOLATILE_ATTRS
                ],
            }
        )
    return out


# -- Chrome trace export ---------------------------------------------------


def cluster_trace_events(
    traces: "Iterable[Iterable[SpanRecord | Mapping[str, Any]]]",
) -> "list[dict]":
    """Merge per-job traces into Chrome ``trace_event`` records.

    One ``pid`` for the whole cluster, one ``tid`` track per recording
    process (front door first, then shards sorted by name), with
    ``thread_name`` metadata events naming the tracks.  Every slice is
    a complete (``"X"``) event whose ``args`` carry the trace/span ids
    and the span's simulated counter deltas — the ids are what links
    slices of one job across tracks.
    """
    all_records: "list[SpanRecord]" = []
    for trace in traces:
        all_records.extend(_coerce_records(trace))
    if not all_records:
        return []
    processes = sorted({r.process for r in all_records})
    tids = {name: i for i, name in enumerate(processes)}
    t0 = min(r.t_start for r in all_records)
    events: "list[dict]" = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "ts": 0,
            "args": {"name": "repro cluster"},
        }
    ]
    for name, tid in tids.items():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": tid,
                "ts": 0,
                "args": {"name": name},
            }
        )
    for r in all_records:
        args = {
            "trace_id": r.trace_id,
            "span_id": r.span_id,
            "parent_span_id": r.parent_span_id,
            "status": r.status,
            "words": r.words,
            "messages": r.messages,
            "flops": r.flops,
        }
        args.update({k: v for k, v in r.attrs})
        events.append(
            {
                "ph": "X",
                "name": r.name,
                "cat": "serving",
                "pid": 0,
                "tid": tids[r.process],
                "ts": (r.t_start - t0) * 1e6,
                "dur": max(0.0, r.duration) * 1e6,
                "args": args,
            }
        )
    return events


def cluster_trace_doc(
    traces: "Iterable[Iterable[SpanRecord | Mapping[str, Any]]]",
) -> dict:
    """The full Chrome trace JSON document for a set of job traces."""
    return {
        "traceEvents": cluster_trace_events(traces),
        "displayTimeUnit": "ms",
    }


def write_cluster_trace(
    traces: "Iterable[Iterable[SpanRecord | Mapping[str, Any]]]",
    path: str,
) -> str:
    """Crash-safely write the merged Chrome trace JSON; returns ``path``."""
    return atomic_write_json(path, cluster_trace_doc(traces), indent=1)


__all__ = [
    "COUNTER_KEYS",
    "ROOT_SPAN",
    "SPAN_ID_HEX",
    "TRACE_ID_HEX",
    "VOLATILE_ATTRS",
    "SpanRecord",
    "TraceContext",
    "TraceInvariantError",
    "TraceLog",
    "canonical_trace",
    "cluster_trace_doc",
    "cluster_trace_events",
    "derive_span_id",
    "mint_trace_id",
    "root_context",
    "trace_coverage",
    "trace_tree",
    "validate_trace",
    "write_cluster_trace",
]
