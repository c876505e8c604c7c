"""Regenerate ``golden.json``: the benchmark's exact modeled counts.

Each golden shape is run once on the element-wise reference path
(``set_fastpath(False)``, which also turns schedule compilation off)
and once more, on another matrix seed, on the batched interpreted path
(fast path on, compilation off).  The two must agree on every counter,
or nothing is written.  Run from the root of a checkout::

    PYTHONPATH=src python3 -m perfbench.make_golden

The element-wise runs of the n=256 census shapes take minutes; the
benchmark itself never regenerates the table.
"""

from __future__ import annotations

import json
import sys
import time

from perfbench.workloads import COUNT_FIELDS, GOLDEN_PATH, golden_points, shape_key


def _counts(point, seed: int) -> dict:
    """Run one point through the sweeps layer; its counters as a dict."""
    from dataclasses import replace

    from repro.analysis.sweeps import measure, measure_parallel

    point = replace(point, seed=seed, observe=False)
    if point.kind == "parallel":
        m = measure_parallel(
            point.n, point.block, point.P, seed=seed, abft=point.abft_config
        )
        peak = None
    else:
        m = measure(
            point.algorithm, point.n, point.M, layout=point.layout,
            seed=seed, abft=point.abft_config, **dict(point.params),
        )
        peak = int(m.run.machine.levels[0].peak_resident)
    if not m.correct:
        raise SystemExit(f"{shape_key(point)}: factor failed verification")
    out = {name: int(getattr(m, name)) for name in COUNT_FIELDS}
    if peak is not None:
        out["peak_resident"] = peak
    return out


def main() -> int:
    from repro.schedule import set_compile
    from repro.util.fastpath import set_fastpath

    shapes = {}
    for point in golden_points():
        key = shape_key(point)
        t0 = time.perf_counter()
        set_fastpath(False)
        try:
            reference = _counts(point, seed=1)
        finally:
            set_fastpath(True)
        prev = set_compile(False)
        try:
            batched = _counts(point, seed=2)
        finally:
            set_compile(prev)
        if batched != reference:
            print(f"{key}: batched {batched} != reference {reference}", file=sys.stderr)
            return 1
        shapes[key] = reference
        print(f"{key}: {reference} ({time.perf_counter() - t0:.1f}s)", file=sys.stderr)
    doc = {
        "about": (
            "Exact modeled counts per shape, from the element-wise reference "
            "path, cross-checked against the batched interpreted path. "
            "Sequential words/messages are level-0 (fast/slow boundary) "
            "counts; pxpotrf words/messages/flops are critical-path counts. "
            "Regenerate with: PYTHONPATH=src python3 -m perfbench.make_golden"
        ),
        "shapes": dict(sorted(shapes.items())),
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
