"""The repo benchmark: one command, four workloads, every op checked.

``BENCHMARK.json`` lists ``census``, ``serve-fresh`` and ``serve-hit``;
``serve-repeat`` runs the same way but is left out of it, because host
noise moves it by more than any bound (see ``perfbench/README.md``).
Run from the root of a checkout::

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from a traced run (plus an untraced run of the same
length, for the tracing overhead).  The last line of standard output is
one JSON object::

    {"correct": true, "attempted": 2900, "failed": 0, "metrics": {...}}

and the full results, with the environment block, are written under
``.perfbench/results/``: ``<workload>-seed<N>.e2e.json`` and, for the
traced run, ``<workload>-seed<N>.layers.json``.  The exit code is 0
only when every op passed its checks.

Every run is isolated: each measurement happens in a fresh interpreter
(:mod:`perfbench.worker`) whose repro caches, cluster store, health
directory and temp files live in a directory of its own under
``.perfbench/runs/``, deleted afterwards, and whose BLAS libraries are
capped at one thread before numpy is imported.  An untraced run is
split over several such workers, each with its own set-up, and their
ops are pooled: set-up time is the median of their set-ups.  This file
uses only the standard library, so it runs (and refuses to measure)
even where the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
STATE = os.path.join(ROOT, ".perfbench")
#: Fresh workers an untraced run is split over.  Each sets up and then
#: measures for an equal share of ``--seconds``; pooling them averages
#: out what is particular to one process, and setup_s is the median of
#: their set-ups.
E2E_WORKERS = 4
#: Wall-clock budget for a whole invocation; children get what is left.
BUDGET_S = 170.0
#: How long the processes a worker started may take to end after it.
REAP_S = 5.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _child_env(run_dir: str) -> dict:
    """The worker's environment: isolated caches, one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        REPRO_CACHE_DIR=os.path.join(run_dir, "cache"),
        REPRO_SCHEDULE_DIR=os.path.join(run_dir, "schedules"),
        TMPDIR=os.path.join(run_dir, "tmp"),
    )
    return env


def _group_alive(pgid: int) -> bool:
    """Does any live (non-zombie) process remain in process group ``pgid``?

    Read from ``/proc``: orphaned zombies still count for ``killpg``.
    """
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            return True
    return False


def _reap(pgid: int) -> None:
    """Wait for every process of the worker's group to end; kill stragglers."""
    deadline = time.monotonic() + REAP_S
    while _group_alive(pgid):
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.monotonic() + REAP_S
            while _group_alive(pgid) and time.monotonic() < deadline:
                time.sleep(0.05)
            return
        time.sleep(0.02)


def run_worker(args, run_dir: str, deadline: float, *, seconds: float, trace: int) -> dict:
    """Run one isolated worker; returns its result with ``setup_s`` added."""
    work = tempfile.mkdtemp(dir=run_dir, prefix="w")
    os.makedirs(os.path.join(work, "tmp"))
    out = os.path.join(work, "result.json")
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(trace),
        "--run-dir", work, "--out", out,
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(work), stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{args.workload} worker exceeded the time budget") from None
    finally:
        _reap(proc.pid)
    if not os.path.exists(out):
        raise BenchError(f"{args.workload} worker exited {code} without a result")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    if "setup_error" in result:
        raise BenchError(f"{args.workload} set-up failed: {result['setup_error']}")
    if code != 0:
        raise BenchError(f"{args.workload} worker exited {code}")
    result["setup_s"] = result["setup_done"] - spawned
    return result


def _brief(result: dict) -> dict:
    keep = ("attempted", "failed", "elapsed_s", "ops_per_s", "peak_rss_mb",
            "setup_s", "replay_frac")
    return {k: result[k] for k in keep if k in result}


def _problems(results: "list[dict]") -> "list[str]":
    return [reason for r in results for reason in r["reasons"]]


def measure_e2e(args, run_dir: str, deadline: float) -> dict:
    workers = [
        run_worker(args, run_dir, deadline, seconds=args.seconds / E2E_WORKERS, trace=0)
        for _ in range(E2E_WORKERS)
    ]
    latencies = [ms for r in workers for ms in r["latencies_ms"]]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    passed = sum(r["attempted"] - r["failed"] for r in workers)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in workers),
        "ops_per_s": passed / sum(r["elapsed_s"] for r in workers),
        "lat_p50_ms": cuts[49],
        "lat_p90_ms": cuts[89],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in workers),
    }
    return {
        "metrics": metrics,
        "attempted": sum(r["attempted"] for r in workers),
        "failed": sum(r["failed"] for r in workers),
        "problems": _problems(workers),
        "env": workers[-1]["env"],
        "runs": {"workers": [_brief(r) for r in workers]},
    }


def measure_layers(args, run_dir: str, deadline: float) -> dict:
    half = args.seconds / 2.0
    plain = run_worker(args, run_dir, deadline, seconds=half, trace=0)
    traced = run_worker(args, run_dir, deadline, seconds=half, trace=1)
    metrics = dict(traced["layers"])
    metrics["observability.trace_overhead_pct"] = 100.0 * (
        1.0 - traced["ops_per_s"] / plain["ops_per_s"]
    )
    problems = _problems([plain, traced])
    if "replay_frac" in plain and plain["replay_frac"] != metrics["schedule.replay_frac"]:
        problems.append(
            f"tracing changed the execution path: replay_frac "
            f"{plain['replay_frac']} untraced vs {metrics['schedule.replay_frac']} traced"
        )
    return {
        "metrics": metrics,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "problems": problems,
        "env": traced["env"],
        "runs": {"untraced": _brief(plain), "traced": _brief(traced)},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one workload of the repo benchmark.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program source (src/repro) in this directory", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    spec = _load_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(os.path.join(STATE, "runs"), exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=os.path.join(STATE, "runs"))
    try:
        measure = measure_layers if args.trace else measure_e2e
        report = measure(args, run_dir, started + BUDGET_S)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    got = report["metrics"]
    if set(got) != {m["name"] for m in declared}:
        print(f"perfbench: metrics {sorted(got)} do not match BENCHMARK.json", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": got[m["name"]], "unit": m["unit"]} for m in declared}
    correct = report["failed"] == 0 and not report["problems"]
    line = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    kind = "layers" if args.trace else "e2e"
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "problems": report["problems"],
        "metrics": metrics,
        "env": report["env"],
        "runs": report["runs"],
    }
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}.{kind}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    for problem in report["problems"][:10]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
