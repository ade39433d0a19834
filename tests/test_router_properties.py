"""Property-based invalidation suite for the query router.

Hypothesis drives randomized interleavings of submits, flushes and
routed reads against a :class:`~repro.routing.QueryRouter`,
and checks three invariants on **every** answer of every read:

* **P1 (stamped exactness)** — the value equals the brute-force oracle
  evaluated at exactly the snapshot version stamped on the answer. The
  stamp must truthfully name the snapshot the value was computed from,
  no matter which tier served it.
* **P2 (read-your-flushed-writes)** — after ``flush()`` returns, no
  answer may be stamped below the flushed version: a cache that serves
  a pre-flush value post-flush is broken even if it stamps honestly.
* **P3 (monotone stamps)** — a single client's reads never travel back
  in time: every stamp in read *N+1* is >= every stamp in read *N*.

Together P1+P2 pin the invalidation contract from both sides: P1 kills
forged stamps (fresh stamp on a stale value) and P2 kills broken
freshness gates (stale value served with its honest old stamp). The two
mutation tests at the bottom deliberately break the router each way and
assert the corresponding invariant catches it — proof the suite has
teeth, as demanded by the issue's acceptance criteria.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.rps import RelativePrefixSumCube
from repro.routing import QueryRouter, ResultCache
from repro.routing.router import ServiceBackend
from repro.serve import CubeService
from repro.testing import VersionOracle


class RouterHarness:
    """Records the submitted groups in a per-version oracle and checks
    P1/P2/P3.

    The service applies groups in submission order, so the oracle at
    version ``v`` is the initial cube plus the first ``v`` groups —
    reconstructable for any stamp a read reports, even when the
    background writer has advanced past a concurrent reader.
    """

    def __init__(self, cube):
        self.oracle = VersionOracle(np.asarray(cube, dtype=np.float64))
        self.flush_floor = 0
        self.prev_read_max = 0

    def record_submit(self, group):
        self.oracle.record(group)

    def record_flush(self):
        self.flush_floor = self.oracle.version

    def check_read(self, lows, highs, batch):
        batch_min = min(batch.stamps)
        mismatches = self.oracle.check(lows, highs, batch.values, batch.stamps)
        assert not mismatches, (
            f"P1 violated: answers disagree with the oracle at their "
            f"stamps (tiers {batch.tiers}): {mismatches}"
        )
        for stamp, tier in zip(batch.stamps, batch.tiers):
            assert stamp >= self.flush_floor, (
                f"P2 violated: tier {tier!r} answer stamped v{stamp} "
                f"after flush() acknowledged v{self.flush_floor}"
            )
        assert batch_min >= self.prev_read_max, (
            f"P3 violated: read stamped as low as v{batch_min} after a "
            f"previous read observed v{self.prev_read_max}"
        )
        self.prev_read_max = max(batch.stamps)


def _dims(draw):
    d = draw(st.integers(min_value=1, max_value=2))
    return tuple(
        draw(st.integers(min_value=4, max_value=10)) for _ in range(d)
    )


@st.composite
def programs(draw):
    """A cube plus an op sequence over it: submits, flushes and
    multi-box reads."""
    shape = _dims(draw)

    def cells():
        return st.tuples(
            *[st.integers(min_value=0, max_value=n - 1) for n in shape]
        )

    def boxes():
        return st.tuples(cells(), cells()).map(
            lambda pair: (
                tuple(min(a, b) for a, b in zip(*pair)),
                tuple(max(a, b) for a, b in zip(*pair)),
            )
        )

    op = st.one_of(
        st.tuples(
            st.just("write"),
            st.lists(
                st.tuples(
                    cells(),
                    st.integers(min_value=-9, max_value=9).filter(bool),
                ),
                min_size=1,
                max_size=4,
            ),
        ),
        st.tuples(st.just("flush")),
        st.tuples(
            st.just("read"),
            st.lists(boxes(), min_size=1, max_size=6),
        ),
    )
    ops = draw(st.lists(op, min_size=2, max_size=14))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return shape, seed, ops


def run_program(
    shape, seed, ops, *, cache_cls=ResultCache, backend_wrap=None
):
    """Execute one interleaving, checking the invariants at each read."""
    rng = np.random.default_rng(seed)
    cube = rng.integers(0, 50, shape).astype(np.float64)
    harness = RouterHarness(cube)
    with CubeService(RelativePrefixSumCube, cube) as service:
        backend = ServiceBackend(service)
        if backend_wrap is not None:
            backend = backend_wrap(backend)
        with QueryRouter(backend, cache=cache_cls()) as router:
            for op in ops:
                if op[0] == "write":
                    group = [(cell, float(d)) for cell, d in op[1]]
                    router.submit_batch(group)
                    harness.record_submit(group)
                elif op[0] == "flush":
                    router.flush()
                    harness.record_flush()
                elif op[0] == "read":
                    lows = np.array([b[0] for b in op[1]])
                    highs = np.array([b[1] for b in op[1]])
                    batch = router.route_many(lows, highs)
                    harness.check_read(lows, highs, batch)
            # end every program with a flush + full-cube read so the
            # final state is always exercised through every tier
            router.flush()
            harness.record_flush()
            lows = np.zeros((1, len(shape)), dtype=int)
            highs = np.array([[n - 1 for n in shape]])
            harness.check_read(lows, highs, router.route_many(lows, highs))


@settings(max_examples=60, deadline=None)
@given(program=programs())
def test_every_routed_answer_matches_oracle_at_its_stamp(program):
    """P1/P2/P3 hold over randomized submit/flush/read
    interleavings: each answer equals the oracle at the version stamped
    on the response, never below the flushed floor, never regressing."""
    run_program(*program)


@settings(max_examples=25, deadline=None)
@given(program=programs())
def test_invariants_hold_with_tiny_cache_pressure(program):
    """The invariants survive constant eviction: a 2-entry cache forces
    every path through insert/evict/stale churn."""
    run_program(
        program[0],
        program[1],
        program[2],
        cache_cls=lambda: ResultCache(max_entries=2),
    )


# -- mutation tests: the suite must catch a deliberately broken router --------


class _ForgedStampCache(ResultCache):
    """Broken invalidation, flavor 1: ignores the version check and
    serves whatever entry exists. The router stamps cache hits with the
    *current* version, so the stale value arrives under a fresh stamp —
    a forged stamp P1 must catch."""

    def get(self, key, stamp):
        from repro.routing.cache import HIT, MISS

        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return MISS, None
            _, value, _ = entry
            return HIT, value


class _FrozenStampBackend:
    """Broken invalidation, flavor 2: the freshness gate consults a
    stale snapshot version, so pre-write cache entries keep "matching"
    after a write and are served with their honest old stamps. P1 holds
    (the stamp is truthful); P2 is what catches it."""

    def __init__(self, backend):
        self._backend = backend
        self.shape = backend.shape
        self._frozen = backend.current_stamp()

    def current_stamp(self):
        return self._frozen

    def __getattr__(self, name):
        return getattr(self._backend, name)


def _mutation_program():
    """read -> write -> flush -> read: any broken invalidation must
    reveal itself on the second read of the same box."""
    shape = (6, 6)
    ops = [
        ("read", [((0, 0), (5, 5)), ((1, 1), (3, 4))]),
        ("write", [((2, 2), 7)]),
        ("flush",),
        ("read", [((0, 0), (5, 5)), ((1, 1), (3, 4))]),
    ]
    return shape, 123, ops


def test_mutation_forged_stamp_is_caught():
    """A cache that serves stale values under fresh stamps fails P1."""
    shape, seed, ops = _mutation_program()
    with pytest.raises(AssertionError, match="P1 violated"):
        run_program(shape, seed, ops, cache_cls=_ForgedStampCache)


def test_mutation_broken_freshness_gate_is_caught():
    """A router whose freshness gate never sees new versions serves
    stale-but-honestly-stamped values; P2 fails even though P1 holds."""
    shape, seed, ops = _mutation_program()
    with pytest.raises(AssertionError, match="P2 violated"):
        run_program(
            shape, seed, ops, backend_wrap=_FrozenStampBackend
        )
