"""Tests of the benchmark itself.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q

The end-to-end cases run ``perfbench/run.py`` on each workload at a
tiny size (one second; each worker still makes at least 100 ops) and
take a few minutes together.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.layers import LayerClock, split_trace, tiles
from perfbench.workloads import (
    ABFT_EVERY,
    FRESH_SHAPES,
    OBSERVE_EVERY,
    count_mismatch,
    fresh_flags,
    golden_points,
    load_golden,
    shape_key,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
TINY_SECONDS = "1"


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, *extra, cwd=ROOT, seed=3):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", TINY_SECONDS, "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc) -> dict:
    lines = proc.stdout.strip().splitlines()
    assert lines, f"no output; stderr:\n{proc.stderr}"
    return json.loads(lines[-1])


def _layers_doc(workload, seed=3) -> dict:
    path = os.path.join(ROOT, ".perfbench", "results", f"{workload}-seed{seed}.layers.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- inputs and golden counts ----------------------------------------------


def test_every_golden_shape_is_recorded_once():
    golden = load_golden()
    keys = [shape_key(p) for p in golden_points()]
    assert sorted(keys) == sorted(golden)
    seq = [k for k in golden if not k.startswith("pxpotrf")]
    assert all("peak_resident" in golden[k] for k in seq)


def test_fresh_rotation_protects_and_observes_every_shape():
    pool = len(FRESH_SHAPES)
    flags = [fresh_flags(i) for i in range(pool * pool)]
    assert sum(a for _, a in flags) == len(flags) // ABFT_EVERY
    assert sum(o for o, _ in flags) == len(flags) // OBSERVE_EVERY
    assert {i % pool for i, (_, a) in enumerate(flags) if a} == set(range(pool))
    assert {i % pool for i, (o, _) in enumerate(flags) if o} == set(range(pool))
    assert not any(o and a for o, a in flags)


def test_count_mismatch_names_the_counter():
    from dataclasses import replace

    point = golden_points()[0]
    golden = load_golden()
    want = golden[shape_key(point)]

    class M:
        pass

    m = M()
    for name, value in want.items():
        setattr(m, name, value)
    assert count_mismatch(golden, point, m) is None
    m.flops += 1
    assert "flops" in count_mismatch(golden, point, m)
    assert "no golden" in count_mismatch(golden, replace(point, n=point.n + 1), m)


# -- layer accounting --------------------------------------------------------


def test_layer_clock_reports_self_time_and_restores_targets():
    import types

    mod = types.ModuleType("perfbench_fake_layer")
    sys.modules[mod.__name__] = mod
    try:
        mod.inner = lambda: sum(range(20000))
        mod.outer = lambda: mod.inner() + mod.inner()
        original_inner = mod.inner
        clock = LayerClock({"inner": (mod.__name__, "inner"), "outer": (mod.__name__, "outer")})
        with clock.installed():
            t0 = __import__("time").perf_counter()
            mod.outer()
            total = __import__("time").perf_counter() - t0
            spent = clock.take()
        assert mod.inner is original_inner
        assert spent["inner"] > 0 and spent["outer"] > 0
        assert spent["inner"] + spent["outer"] <= total
        assert clock.take() == {"inner": 0.0, "outer": 0.0}
    finally:
        del sys.modules[mod.__name__]


def test_split_trace_tiles_a_contiguous_window():
    from repro.observability.tracing import SpanRecord

    def span(name, start, end, parent="r", span_id=None, **attrs):
        return SpanRecord(trace_id="t", span_id=span_id or name, parent_span_id=parent,
                          name=name, process="p", t_start=start, t_end=end,
                          attrs=tuple(attrs.items()))

    records = [
        span("job", 0.0, 1.0, parent=None, span_id="r"),
        span("route", 0.0, 0.0),
        span("queue", 0.0, 0.25),
        span("execute", 0.25, 0.75, schedule="off"),
        span("resolve", 0.75, 1.0),
    ]
    parts = split_trace(records, latency_s=1.5)
    assert parts["schedule"] == "off"
    assert parts["outside"] == pytest.approx(0.5)
    assert parts["untiled"] == pytest.approx(0.0)
    stages = [parts[s] for s in ("route", "queue", "execute", "cache", "resolve")]
    assert tiles([*stages, parts["outside"]], 1.5)
    # a zero-width resolve leaves part of the window unexplained
    records[-1] = span("resolve", 1.0, 1.0)
    parts = split_trace(records, latency_s=1.5)
    assert parts["untiled"] == pytest.approx(0.25)
    stages = [parts[s] for s in ("route", "queue", "execute", "cache", "resolve")]
    assert not tiles([*stages, parts["outside"]], 1.5)


# -- the command, end to end -----------------------------------------------


@pytest.mark.parametrize("workload", ["census", "serve-fresh", "serve-hit", "serve-repeat"])
def test_end_to_end_metrics_printed_with_names_and_units(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 100
    declared = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize(
    "workload, expect",
    [
        ("census", {"schedule.replay_frac": 1.0, "observability.tiled_frac": 1.0}),
        ("serve-fresh", {"schedule.replay_frac": 0.0, "serving.store_hit_frac": 0.0,
                         "serving.store_puts_per_op": 1.0}),
        ("serve-hit", {"serving.store_hit_frac": 1.0, "serving.store_puts_per_op": 0.0,
                       "observability.tiled_frac": 1.0}),
        ("serve-repeat", {"serving.store_hit_frac": 1.0, "serving.store_puts_per_op": 0.0,
                          "observability.tiled_frac": 1.0}),
    ],
)
def test_layer_table_printed_and_written(workload, expect):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name, value in expect.items():
        assert values[name] == value, name
    doc = _layers_doc(workload)
    assert doc["metrics"] == result["metrics"]
    assert doc["env"]["OPENBLAS_NUM_THREADS"] == "1"
    if workload == "census":
        # observing the run must not change which path it takes
        assert doc["runs"]["untraced"]["replay_frac"] == values["schedule.replay_frac"]


def _bare_checkout(tmp_path) -> str:
    """``BENCHMARK.json`` and a copy of ``perfbench/`` in ``tmp_path``."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return str(tmp_path)


@pytest.mark.parametrize("workload", ["census", "serve-hit"])
def test_corrupted_golden_count_fails_ops(workload, tmp_path):
    checkout = _bare_checkout(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), os.path.join(checkout, "src"))
    golden_path = os.path.join(checkout, "perfbench", "golden.json")
    with open(golden_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for counts in doc["shapes"].values():
        counts["words"] += 1
    with open(golden_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    proc = _run(workload, 0, cwd=checkout)
    assert proc.returncode != 0
    result = _result(proc)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "words" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    proc = _run("census", 0, cwd=_bare_checkout(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
