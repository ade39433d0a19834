"""T1 — router speedup: hot repeated reads vs uncached RPS.

A dashboard keeps asking the same page of box queries between writes.
The :class:`~repro.routing.QueryRouter` answers a repeated page from its
snapshot-versioned result cache (one memo lookup for the whole batch)
instead of re-running the RPS kernel. This benchmark drives the S1
workload shape (1024x1024 cube, batched box queries) two ways and times
each:

* **direct**: ``CubeService.query_many`` for every repetition — the
  uncached RPS baseline;
* **routed hot**: the same repeated page through the router — first
  repetition misses and fills the cache, the rest hit.

The acceptance gate holds the routed hot path to **>= 5x** the direct
RPS throughput on the repeated page, with the cache hit rate reported
(and asserted high — a router that "wins" by answering from the wrong
tier is a broken router). Every routed value is checked bit-for-bit
against the direct answers first; a fast wrong cache would fail before
any timing is compared.

Two report-only keys time single calls, each the minimum of
:data:`CALL_REPEATS`: ``direct_call_min_ms`` (one direct read of the
page) and ``first_call_ms`` (a fresh router's first, missing call on
it). Their difference is what the router adds to a miss, and the
direct minimum shows which of its two speeds the host's direct read
ran at.

Writes ``results/T1.json`` next to S1/S2/U1/R1. Run standalone
(``python benchmarks/bench_t1_router.py``) or via pytest.
"""

import functools
import json
import pathlib
import time

import numpy as np

from repro.core.rps import RelativePrefixSumCube
from repro.routing import QueryRouter
from repro.serve import CubeService
from repro.workloads import datagen

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

SHAPE = (1024, 1024)
BOX_SIZE = 32
Q = 2_000
REPEATS = 20

#: Repeats per timed configuration; the reported time is the median.
TIMING_REPEATS = 3

#: Calls per report-only single-call timing; the reported time is the min.
CALL_REPEATS = 30

#: The routed hot path must beat direct RPS by at least this factor.
MIN_SPEEDUP = 5.0

#: ...and must actually be winning from the cache tier, not by accident.
MIN_HIT_RATE = 0.9


def _hot_page(shape, q, seed):
    """One dashboard page: ``q`` random boxes, reissued verbatim."""
    rng = np.random.default_rng(seed)
    lows = np.stack([rng.integers(0, n, size=q) for n in shape], axis=1)
    spans = np.stack(
        [rng.integers(1, n // 4, size=q) for n in shape], axis=1
    )
    highs = np.minimum(lows + spans, np.asarray(shape) - 1)
    return lows, highs


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _time_direct(service, pages):
    start = time.perf_counter()
    for lows, highs in pages:
        service.query_many(lows, highs)
    return time.perf_counter() - start


def _time_routed(router, pages):
    start = time.perf_counter()
    for lows, highs in pages:
        router.range_sum_many(lows, highs)
    return time.perf_counter() - start


def _min_ms(calls):
    """The fastest of ``calls`` (zero-argument callables), timed one by
    one, in ms."""
    best = float("inf")
    for call in calls:
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def run_t1(shape=SHAPE, q=Q, repeats=REPEATS, seed=21):
    """Time direct vs routed serving; returns the T1 report dict."""
    cube = datagen.uniform_cube(shape, seed=seed)
    hot = _hot_page(shape, q, seed)
    hot_pages = [hot] * repeats
    with CubeService(
        RelativePrefixSumCube, cube, method_kwargs={"box_size": BOX_SIZE}
    ) as service:
        expected_hot, _ = service.query_many(*hot)
        direct_s = _median(
            [_time_direct(service, hot_pages) for _ in range(TIMING_REPEATS)]
        )

        hot_samples, routed_values = [], None
        for _ in range(TIMING_REPEATS):
            with QueryRouter(service) as router:
                hot_samples.append(_time_routed(router, hot_pages))
                routed_values = router.range_sum_many(*hot)
                router_stats = router.stats()["router"]
        routed_hot_s = _median(hot_samples)
        direct_call_ms = _min_ms(
            [functools.partial(service.query_many, *hot)] * CALL_REPEATS
        )
        # a fresh router per call, built before the clock starts
        first_call_ms = _min_ms([
            functools.partial(QueryRouter(service).range_sum_many, *hot)
            for _ in range(CALL_REPEATS)
        ])

    values_equal = bool(
        np.array_equal(np.asarray(routed_values), np.asarray(expected_hot))
    )
    total_queries = q * repeats
    served = (
        router_stats["cache_hits"]
        + router_stats["batch_hits"]
        + router_stats["backend_queries"]
    )
    return {
        "experiment": "T1",
        "title": "Router speedup: hot repeated reads vs direct RPS",
        "shape": list(shape),
        "box_size": BOX_SIZE,
        "queries_per_page": q,
        "repeats": repeats,
        "seed": seed,
        "timing_repeats": TIMING_REPEATS,
        "min_speedup_gate": MIN_SPEEDUP,
        "min_hit_rate_gate": MIN_HIT_RATE,
        "call_repeats": CALL_REPEATS,
        "direct_call_min_ms": direct_call_ms,
        "first_call_ms": first_call_ms,
        "rows": [
            {
                "config": "direct_rps",
                "seconds": direct_s,
                "queries_per_s": total_queries / direct_s,
            },
            {
                "config": "routed_hot",
                "seconds": routed_hot_s,
                "queries_per_s": total_queries / routed_hot_s,
                "speedup_vs_direct": direct_s / routed_hot_s,
                "cache_hit_rate": router_stats["cache_hit_rate"],
                "batch_hits": router_stats["batch_hits"],
                "cache_hits": router_stats["cache_hits"],
                "backend_queries": router_stats["backend_queries"],
                "queries_served": served,
                "values_equal": values_equal,
            },
        ],
    }


def write_report(report, path=None):
    path = path or (RESULTS / "T1.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def test_t1_router_speedup_within_gate():
    """Acceptance gate: the routed hot page answers bit-identically to
    direct RPS, >= 5x faster, with the win coming from the cache tier
    (hit rate >= 90%)."""
    report = run_t1()
    write_report(report)
    by_config = {row["config"]: row for row in report["rows"]}
    hot = by_config["routed_hot"]
    assert hot["values_equal"], "routed hot answers diverged from RPS"
    assert hot["cache_hit_rate"] >= MIN_HIT_RATE, (
        f"cache hit rate {hot['cache_hit_rate']:.3f} below "
        f"{MIN_HIT_RATE} — the router is not winning from the cache"
    )
    assert hot["speedup_vs_direct"] >= MIN_SPEEDUP, (
        f"routed hot page is only {hot['speedup_vs_direct']:.2f}x direct "
        f"RPS (gate: {MIN_SPEEDUP}x)"
    )


def main():
    report = run_t1()
    path = write_report(report)
    print(f"wrote {path}")
    print(
        f"  single calls (min of {CALL_REPEATS}): direct "
        f"{report['direct_call_min_ms']:.3f} ms, fresh router's first "
        f"{report['first_call_ms']:.3f} ms"
    )
    for row in report["rows"]:
        speedup = row.get("speedup_vs_direct")
        rate = row.get("cache_hit_rate")
        print(
            f"  {row['config']:>14}  {row['seconds']*1e3:9.2f} ms  "
            f"{row['queries_per_s']:>12.0f} q/s"
            + (f"  {speedup:6.2f}x" if speedup is not None else "")
            + (f"  hit_rate={rate:.3f}" if rate is not None else "")
        )


if __name__ == "__main__":
    main()
