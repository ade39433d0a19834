"""A dashboard served through the query router.

A BI dashboard asks the same page of box-sum queries over and over —
refresh after refresh — while a write stream trickles in behind it.
This example puts a :class:`~repro.routing.QueryRouter` in front of a
:class:`~repro.serve.CubeService` and shows the tier economics:

* the first render of a page goes to the RPS backend (exact, ~O(2^d)
  probes per box);
* every refresh until the next write is a cache hit — one whole-batch
  memo lookup keyed by the page bytes and the snapshot version;
* a write invalidates *precisely* by bumping the snapshot version
  (no TTLs, no purge scans — old entries simply stop matching).

Every answer is checked against a brute-force oracle, then the per-tier
hit rates are printed — the same numbers `repro-bench router` and the
``T1`` gate (``bench_t1_router.py``) report.

Run:  python examples/router_dashboard.py
"""

import numpy as np

from repro.core.rps import RelativePrefixSumCube
from repro.routing import QueryRouter
from repro.serve import CubeService

SHAPE = (256, 256)
PAGE_BOXES = 24
REFRESHES_PER_EDIT = 5
EDITS = 8


def make_page(rng):
    """One dashboard page: a handful of modest boxes."""
    lows, highs = [], []
    for _ in range(PAGE_BOXES):
        lo = [int(rng.integers(0, n - 40)) for n in SHAPE]
        hi = [l + int(rng.integers(8, 40)) for l in lo]
        lows.append(lo)
        highs.append(hi)
    return np.array(lows), np.array(highs)


def oracle_check(cube, lows, highs, values):
    for lo, hi, value in zip(lows, highs, values):
        sl = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
        assert value == cube[sl].sum(), "router returned a wrong sum!"


def main():
    rng = np.random.default_rng(7)
    cube = rng.integers(0, 100, SHAPE).astype(np.float64)
    mirror = cube.copy()  # the brute-force oracle state

    with CubeService(RelativePrefixSumCube, cube) as service:
        with QueryRouter(service) as router:
            page = make_page(rng)

            for edit in range(EDITS):
                for refresh in range(REFRESHES_PER_EDIT):
                    batch = router.route_many(*page)
                    oracle_check(mirror, *page, batch.values)
                    if refresh > 0:
                        assert set(batch.tiers) == {"cache"}, batch.tiers
                # one edit lands: the version bump orphans every cached
                # entry, and the next render recomputes exactly
                cell = tuple(int(rng.integers(0, n)) for n in SHAPE)
                delta = float(rng.integers(1, 50))
                router.submit_delta(cell, delta)
                router.flush()
                mirror[cell] += delta

            stats = router.stats()["router"]
            served = (
                stats["cache_hits"] + stats["batch_hits"]
                + stats["backend_queries"]
            )
            print(f"dashboard over {SHAPE} cube, {EDITS} edits, "
                  f"{REFRESHES_PER_EDIT} refreshes per edit:")
            print(f"  box queries answered : {served}")
            print(f"  cache hit rate       : {stats['cache_hit_rate']:.1%}")
            print(f"  backend (RPS) rate   : {stats['backend_rate']:.1%}")
            stale = (stats["cache_stale_rejects"]
                     + stats["batch_stale_rejects"])
            print(f"  stale rejects        : {stale} "
                  f"(each one is a precisely-invalidated write)")
            assert stats["cache_hit_rate"] > 0.5, "cache never warmed?"
    print("router dashboard example OK")


if __name__ == "__main__":
    main()
