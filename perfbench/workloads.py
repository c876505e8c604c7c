"""Workload inputs and golden modeled counts for the repo benchmark.

Every input is a pure function of ``(workload, seed, op index)``: the
program under test only ever receives the :class:`SpecPoint` and
:class:`Job` objects built here.  Modeled counts (words, messages,
flops) are pure functions of an op's *shape* — algorithm, layout, n,
fast-memory size, block, protection — never of its matrix seed, so one
golden record per shape checks every op exactly.

Imports of ``repro`` happen inside the functions, so importing this
module is cheap and side-effect free (shard processes re-import the
worker, and ``run.py`` imports nothing from ``repro``).
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("census", "serve-fresh", "serve-hit", "serve-repeat")

#: census: the 7 sequential registry algorithms at n=256.  (algorithm,
#: layout, n, M) — M=2n column-major for the naive and LAPACK families,
#: M=3n for toledo, M=3n with the morton layout for square-recursive.
CENSUS_N = 256
CENSUS_SHAPES = (
    ("naive-left", "column-major", CENSUS_N, 2 * CENSUS_N),
    ("naive-right", "column-major", CENSUS_N, 2 * CENSUS_N),
    ("naive-up", "column-major", CENSUS_N, 2 * CENSUS_N),
    ("lapack", "column-major", CENSUS_N, 2 * CENSUS_N),
    ("lapack-right", "column-major", CENSUS_N, 2 * CENSUS_N),
    ("toledo", "column-major", CENSUS_N, 3 * CENSUS_N),
    ("square-recursive", "morton", CENSUS_N, 3 * CENSUS_N),
)

#: serve-fresh: 8 shapes of similar interpreted cost (tens of ms each).
#: Sequential entries are (algorithm, layout, n, M); the pxpotrf entry
#: is ("pxpotrf", n, P, block).
FRESH_SHAPES = (
    ("naive-left", "column-major", 192, 384),
    ("naive-right", "column-major", 128, 256),
    ("naive-up", "column-major", 64, 128),
    ("lapack", "column-major", 192, 384),
    ("lapack-right", "column-major", 192, 384),
    ("toledo", "column-major", 96, 288),
    ("square-recursive", "morton", 128, 384),
    ("pxpotrf", 256, 4, 32),
)
#: 1 job in OBSERVE_EVERY sets ``observe=True``; 1 in ABFT_EVERY sets
#: ``abft=True``.  Both rotate against the 8-shape cycle (see
#: :func:`fresh_flags`), so every shape is sometimes observed and
#: sometimes protected.
OBSERVE_EVERY = 4
ABFT_EVERY = 8
#: Word budget per fresh job, as a multiple of the shape's golden
#: words: large enough never to trip, present so every job runs with
#: a budget guard, as the repo's bench and soak mixes do.
BUDGET_FACTOR = 4

#: serve-hit and serve-repeat: distinct specs primed into the store,
#: then cycled.
REPEAT_UNIQUE = 24

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

#: Counter fields every op is compared on, exactly.
COUNT_FIELDS = ("words", "messages", "words_read", "words_written", "flops")


def shape_key(point) -> str:
    """Golden-table key of a spec point: its shape, without the seed."""
    tag = "+abft" if point.abft else ""
    if point.kind == "parallel":
        return f"pxpotrf/n{point.n}/P{point.P}/b{point.block}{tag}"
    params = "".join(f"/{k}={v}" for k, v in point.params)
    return f"{point.algorithm}/{point.layout}/n{point.n}/M{point.M}{params}{tag}"


def _seeds(seed: int):
    """Endless stream of fresh 31-bit matrix seeds for one run."""
    rng = random.Random(f"perfbench:{int(seed)}")
    while True:
        yield rng.getrandbits(31)


def census_points(seed: int):
    """Endless census op stream: the 7 shapes in turn, fresh seeds.

    The seed picks where in the cycle a run starts and every matrix.
    """
    from repro.experiments.spec import SpecPoint

    start = random.Random(f"perfbench-start:{int(seed)}").randrange(len(CENSUS_SHAPES))
    seeds = _seeds(seed)
    i = start
    while True:
        algorithm, layout, n, M = CENSUS_SHAPES[i % len(CENSUS_SHAPES)]
        yield SpecPoint(
            kind="sequential",
            algorithm=algorithm,
            layout=layout,
            n=n,
            M=M,
            seed=next(seeds),
            verify=True,
        )
        i += 1


def census_warmup_points():
    """One point per census shape (fixed seed) for the set-up warm-up."""
    from repro.experiments.spec import SpecPoint

    return [
        SpecPoint(kind="sequential", algorithm=a, layout=lay, n=n, M=M, seed=0)
        for a, lay, n, M in CENSUS_SHAPES
    ]


def fresh_flags(i: int) -> "tuple[bool, bool]":
    """(observe, abft) of the i-th serve-fresh job.

    Within each block of 8 jobs one is protected and two are observed;
    the protected and observed positions shift by one shape per block.
    """
    block = i // len(FRESH_SHAPES)
    pos = i % len(FRESH_SHAPES)
    observe = (pos + block) % OBSERVE_EVERY == 0
    abft = (pos + block) % ABFT_EVERY == ABFT_EVERY - 1
    return observe, abft


def _fresh_point(shape, seed: int, observe: bool, abft: bool):
    from dataclasses import replace

    from repro.serving.api import chol_request, pxpotrf_request

    if shape[0] == "pxpotrf":
        _, n, P, block = shape
        job = pxpotrf_request(n=n, P=P, block=block, seed=seed, abft=abft or None)
    else:
        algorithm, layout, n, M = shape
        job = chol_request(
            algorithm=algorithm, layout=layout, n=n, M=M, seed=seed,
            abft=abft or None,
        )
    return replace(job.point, observe=observe)


def budgeted_job(point, golden: dict):
    """A job for ``point`` with a word budget that never trips.

    The budget is :data:`BUDGET_FACTOR` times the shape's golden words.
    """
    from repro.serving.api import Job
    from repro.serving.budget import Budget

    words = golden[shape_key(point)]["words"]
    return Job(point=point, budget=Budget(max_words=BUDGET_FACTOR * words))


def fresh_jobs(seed: int, golden: dict):
    """Endless serve-fresh job stream: fresh matrices of 8 shapes."""
    offset = random.Random(f"perfbench-start:{int(seed)}").randrange(len(FRESH_SHAPES))
    seeds = _seeds(seed)
    i = offset
    while True:
        observe, abft = fresh_flags(i)
        point = _fresh_point(FRESH_SHAPES[i % len(FRESH_SHAPES)], next(seeds), observe, abft)
        yield budgeted_job(point, golden)
        i += 1


def fresh_golden_points():
    """Every serve-fresh shape, plain and protected (fixed seed)."""
    return [
        _fresh_point(shape, 0, False, abft)
        for shape in FRESH_SHAPES
        for abft in (False, True)
    ]


def repeat_pool(seed: int):
    """The serve-hit/serve-repeat pool: :data:`REPEAT_UNIQUE` distinct specs."""
    from repro.serving.workloads import repeated_spec_workload

    return repeated_spec_workload(REPEAT_UNIQUE, seed=int(seed), unique=REPEAT_UNIQUE)


def repeat_jobs(pool):
    """Endless serve-hit/serve-repeat job stream cycling the primed pool."""
    from repro.serving.api import Job

    i = 0
    while True:
        template = pool[i % len(pool)]
        yield Job(point=template.point, priority=template.priority)
        i += 1


def golden_points():
    """One representative point per golden shape, across all workloads."""
    points = census_warmup_points() + fresh_golden_points()
    points += [job.point for job in repeat_pool(0)]
    unique = {}
    for point in points:
        unique.setdefault(shape_key(point), point)
    return list(unique.values())


def load_golden() -> dict:
    """The golden table: shape key -> counter dict."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["shapes"]


def count_mismatch(golden: dict, point, m) -> "str | None":
    """Why a measurement's modeled counts differ from the golden ones.

    Returns ``None`` when every counter matches exactly.
    """
    want = golden.get(shape_key(point))
    if want is None:
        return f"no golden counts for {shape_key(point)}"
    for name in COUNT_FIELDS:
        got = int(getattr(m, name))
        if got != want[name]:
            return f"{shape_key(point)}: {name} {got} != golden {want[name]}"
    return None
