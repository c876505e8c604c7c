"""One isolated benchmark run: set up, run the timed phase, write results.

``perfbench/run.py`` starts this module in a fresh interpreter per run,
with the BLAS thread caps and the repro cache directories already in
its environment, so nothing carries over from an earlier run::

    python3 -m perfbench.worker --workload census --seed 1 --seconds 10 \\
        --trace 0 --run-dir DIR --out DIR/result.json

Every op is checked: its status must be ``done``, its factor must
verify, and every modeled counter must equal the golden value for its
shape.  An op that fails any check counts as failed.  The result file
holds the tallies, every op latency, the instant set-up ended, the peak
RSS, the environment and (``--trace 1``) the per-layer table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext

from perfbench.layers import CENSUS_TARGETS, SERVE_STAGES, LayerClock, split_trace, tiles
from perfbench.workloads import (
    WORKLOADS,
    budgeted_job,
    census_points,
    census_warmup_points,
    count_mismatch,
    fresh_golden_points,
    fresh_jobs,
    load_golden,
    repeat_jobs,
    repeat_pool,
    shape_key,
)

#: A run keeps going past its deadline until it has this many ops, so
#: that at least 10 latency samples lie beyond the 90th percentile.
MIN_OPS = 100
#: Cap on the failure reasons kept in a result file.
MAX_REASONS = 20


class SetupFailed(RuntimeError):
    """A set-up op (warm-up or priming) failed its checks."""


def _threads() -> "int | None":
    """This process's thread count, from ``/proc`` (None elsewhere)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Tally:
    """Ops attempted, why the failed ones failed, and every latency."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: "list[str]" = []
        self.latencies_ms: "list[float]" = []

    def record(self, latency_s: float, problem: "str | None") -> None:
        self.attempted += 1
        self.latencies_ms.append(latency_s * 1e3)
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(problem)

    def summary(self, elapsed_s: float) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "reasons": self.reasons,
            "elapsed_s": elapsed_s,
            "ops_per_s": (self.attempted - self.failed) / elapsed_s,
            "latencies_ms": self.latencies_ms,
        }


class Means:
    """Running sums of per-op quantities, reported as means."""

    def __init__(self) -> None:
        self.sums: "dict[str, float]" = {}
        self.counts: "dict[str, int]" = {}

    def add(self, name: str, value: float) -> None:
        self.sums[name] = self.sums.get(name, 0.0) + value
        self.counts[name] = self.counts.get(name, 0) + 1

    def mean(self, name: str, scale: float = 1.0) -> float:
        n = self.counts.get(name, 0)
        return self.sums[name] * scale / n if n else 0.0


def _counts_of(means: Means, m) -> None:
    means.add("machine.words_per_op", m.words)
    means.add("machine.messages_per_op", m.messages)
    means.add("machine.flops_per_op", m.flops)


def _setup_done(out: dict) -> None:
    """Mark the end of set-up.

    Set-up checks factors only: modeled counts are compared on every
    timed op, where a mismatch counts as a failed op.  Set-up's garbage
    is collected here, not inside the timed phase.
    """
    gc.collect()
    out["setup_done"] = time.monotonic()


# -- census ---------------------------------------------------------------


def run_census(args, golden: dict, out: dict) -> None:
    """In-process closed loop: one ``execute_point`` at a time."""
    from repro.experiments.engine import execute_point
    from repro.schedule import last_run_mode

    for point in census_warmup_points():
        m, _ = execute_point(point)
        if not m.correct:
            raise SetupFailed(f"warm-up {shape_key(point)}: factor failed verification")
    _setup_done(out)

    clock = LayerClock(CENSUS_TARGETS) if args.trace else None
    tally, means = Tally(), Means()
    replays = tiled = 0
    points = census_points(args.seed)
    with clock.installed() if clock else nullcontext():
        start = time.perf_counter()
        deadline = start + args.seconds
        while time.perf_counter() < deadline or tally.attempted < MIN_OPS:
            point = next(points)
            t0 = time.perf_counter()
            try:
                m, _ = execute_point(point)
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                tally.record(time.perf_counter() - t0, f"{shape_key(point)}: {exc!r}")
                if clock is not None:
                    clock.take()
                continue
            latency = time.perf_counter() - t0
            replays += last_run_mode() == "replay"
            problem = None if m.correct else f"{shape_key(point)}: factor failed verification"
            problem = problem or count_mismatch(golden, point, m)
            _counts_of(means, m)
            if clock is not None:
                problem = problem or _peak_mismatch(golden, point, clock)
                layer = clock.take()
                own = latency - sum(layer.values())
                tiled += tiles([*layer.values(), own], latency)
                for name, seconds in layer.items():
                    means.add(name, seconds)
                means.add("experiments.execute_point_self_ms", own)
            tally.record(latency, problem)
        elapsed = time.perf_counter() - start
    out.update(tally.summary(elapsed))
    out["replay_frac"] = replays / tally.attempted
    if clock is not None:
        layers = {name: means.mean(name, 1e3) for name in CENSUS_LAYERS}
        layers.update(_count_layers(means))
        layers["schedule.replay_frac"] = out["replay_frac"]
        layers["observability.tiled_frac"] = tiled / tally.attempted
        layers.update(dict.fromkeys(SERVE_LAYERS, 0.0))
        out["layers"] = layers


def _peak_mismatch(golden: dict, point, clock: LayerClock) -> "str | None":
    """Compare the run's peak resident words with the golden value."""
    L = clock.last_result.get("sequential.run_algorithm_ms")
    if L is None:
        return f"{shape_key(point)}: run_algorithm was not called"
    got = int(L.machine.levels[0].peak_resident)
    want = golden[shape_key(point)]["peak_resident"]
    if got != want:
        return f"{shape_key(point)}: peak_resident {got} != golden {want}"
    return None


def _count_layers(means: Means) -> dict:
    return {
        name: means.mean(name)
        for name in ("machine.words_per_op", "machine.messages_per_op", "machine.flops_per_op")
    }


# -- serve ----------------------------------------------------------------

#: Job class -> the layer metric its ``execute`` span time feeds.
EXECUTE_CLASSES = {
    "abft": "abft.execute_ms",
    "observed": "observability.observed_execute_ms",
    "parallel": "parallel.execute_ms",
    "plain": "serving.execute_ms",
}
#: Parts of every served job's latency, each reported as ``serving.<part>_ms``.
SERVE_PARTS = ("route", "queue", "resolve", "cache", "outside", "untiled")
#: Layers only the serve workloads pass through.  The census reports
#: them as 0: no serving layer does any work there.
SERVE_LAYERS = (
    *(f"serving.{part}_ms" for part in SERVE_PARTS),
    *EXECUTE_CLASSES.values(),
    "serving.client_submit_ms",
    "serving.store_hit_frac",
    "serving.store_puts_per_op",
)
#: Layers timed inside the load generator's own process.  The serve
#: workloads report them as 0: there that work runs inside the shard,
#: within the ``execute`` span.
CENSUS_LAYERS = (*CENSUS_TARGETS, "experiments.execute_point_self_ms")


def _job_class(point) -> str:
    if point.abft:
        return "abft"
    if point.observe:
        return "observed"
    if point.kind == "parallel":
        return "parallel"
    return "plain"


def _response_problem(golden: dict, job, response) -> "str | None":
    point = job.point
    if response.status != "done":
        return f"{shape_key(point)}: status {response.status} ({response.reason})"
    m = response.measurement
    if m is None or not m.correct:
        return f"{shape_key(point)}: factor failed verification"
    if point.abft and response.verified is not True:
        return f"{shape_key(point)}: checksum protection did not verify"
    return count_mismatch(golden, point, m)


def _store_totals(cluster) -> dict:
    store = cluster.health()["store"]
    return {
        "hits": store["memory"] + store["shared"] + store["disk"],
        "misses": store["miss"],
        "puts": store["puts"],
    }


def _shard_peak_kb(cluster) -> int:
    """Largest ``VmHWM`` (KiB) among the cluster's shard processes.

    Read from ``/proc`` while the shards live.  ``RUSAGE_CHILDREN``
    would not do: a spawned child's ``ru_maxrss`` starts at its
    parent's RSS at spawn time.
    """
    peak = 0
    for shard in cluster.shards.values():
        process = getattr(shard, "process", None)
        if process is None:
            continue
        try:
            with open(f"/proc/{process.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            pass
    return peak


def run_serve(args, golden: dict, out: dict) -> None:
    """A cluster driven through ``ServingClient.stream``.

    ``serve-hit`` runs the shard in-process (``mode="inline"``, pumped
    on this thread, one op at a time, on the monotonic clock);
    ``serve-fresh`` and ``serve-repeat`` run it as a separate process.
    """
    from repro.serving import MONOTONIC, ServingClient, ServingCluster

    nproc = _nproc()
    inline = args.workload == "serve-hit"
    window = 1 if inline else nproc
    shards = max(1, nproc - 1)
    mode = "inline" if inline else "process"
    out["env"].update(mode=mode, shards=shards, workers_per_shard=1, window=window)
    cluster = ServingCluster(
        shards=shards,
        mode=mode,
        clock=MONOTONIC,
        workers_per_shard=1,
        store_dir=os.path.join(args.run_dir, "store"),
        health_dir=os.path.join(args.run_dir, "health"),
        tracing=bool(args.trace),
    )
    client = ServingClient(cluster)
    try:
        if args.workload in ("serve-hit", "serve-repeat"):
            pool = repeat_pool(args.seed)
            warmup, jobs = pool, repeat_jobs(pool)
        else:
            warmup = [budgeted_job(p, golden) for p in fresh_golden_points()]
            jobs = fresh_jobs(args.seed, golden)
        for job, response in client.stream(warmup, window=window, timeout=60):
            if response.status != "done" or not response.measurement.correct:
                raise SetupFailed(f"warm-up {shape_key(job.point)}: {response.status}")
        _setup_done(out)
        _serve_timed(args, golden, out, client, cluster, jobs, window)
        out["shard_peak_kb"] = _shard_peak_kb(cluster)
    finally:
        client.close()


def _serve_timed(args, golden, out, client, cluster, jobs, window) -> None:
    tally, means = Tally(), Means()
    latency: "dict[str, float]" = {}
    submit_s: "list[float]" = []
    inner = client.submit_async

    def submit_async(job):
        t0 = time.perf_counter()
        ticket = inner(job)
        submit_s.append(time.perf_counter() - t0)
        ticket.add_done_callback(
            lambda _r, jid=job.job_id: latency.__setitem__(jid, time.perf_counter() - t0)
        )
        return ticket

    client.submit_async = submit_async
    before = _store_totals(cluster)
    executes = replays = tiled = 0
    start = time.perf_counter()
    deadline = start + args.seconds

    def feed():
        sent = 0
        for job in jobs:
            if time.perf_counter() >= deadline and sent >= MIN_OPS:
                return
            sent += 1
            yield job

    for job, response in client.stream(feed(), window=window, timeout=60):
        lat = latency.pop(job.job_id)
        problem = _response_problem(golden, job, response)
        if response.measurement is not None:
            _counts_of(means, response.measurement)
        if args.trace:
            parts = split_trace(response.trace, lat)
            for part in SERVE_PARTS:
                means.add(f"serving.{part}_ms", parts[part])
            if parts["schedule"] is not None:
                executes += 1
                replays += parts["schedule"] == "replay"
                means.add(EXECUTE_CLASSES[_job_class(job.point)], parts["execute"])
            tiled += tiles([*(parts[s] for s in SERVE_STAGES), parts["outside"]], lat)
        tally.record(lat, problem)
    elapsed = time.perf_counter() - start
    client.submit_async = inner
    after = _store_totals(cluster)
    out.update(tally.summary(elapsed))
    if args.trace:
        lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
        layers = {
            f"serving.{part}_ms": means.mean(f"serving.{part}_ms", 1e3) for part in SERVE_PARTS
        }
        layers.update({name: means.mean(name, 1e3) for name in EXECUTE_CLASSES.values()})
        layers.update(_count_layers(means))
        layers["serving.client_submit_ms"] = statistics.fmean(submit_s) * 1e3
        layers["schedule.replay_frac"] = replays / executes if executes else 0.0
        layers["serving.store_hit_frac"] = (after["hits"] - before["hits"]) / lookups if lookups else 0.0
        layers["serving.store_puts_per_op"] = (after["puts"] - before["puts"]) / tally.attempted
        layers["observability.tiled_frac"] = tiled / tally.attempted
        layers.update(dict.fromkeys(CENSUS_LAYERS, 0.0))
        out["layers"] = layers


# -- entry point ----------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads_before = _threads()
    import numpy

    threads_after = _threads()
    out = {
        "env": {
            "nproc": _nproc(),
            "blas_threads_started": (
                None if threads_before is None else threads_after - threads_before
            ),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        }
    }
    golden = load_golden()
    run = run_census if args.workload == "census" else run_serve
    try:
        run(args, golden, out)
    except SetupFailed as exc:
        out["setup_error"] = str(exc)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = (usage + out.get("shard_peak_kb", 0)) / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    return 1 if "setup_error" in out else 0


if __name__ == "__main__":
    sys.exit(main())
