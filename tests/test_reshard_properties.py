"""Hypothesis properties for split/merge slab geometry.

The reshard coordinator's correctness rests on a purely combinatorial
layer: the successor :class:`~repro.cluster.shardmap.ShardMap` produced
by ``split_shard``/``merge_shards`` must route every cell, update, and
query box to exactly one owner, and a split immediately undone by a
merge must reproduce the *identical* cell→shard mapping. These
properties pin that layer down independently of nodes, WALs, and
threads, so a geometry bug can never hide behind migration machinery.

Arrays are integer-valued so partial sums across shards compare
bit-for-bit against the single-array oracle — no float tolerance needed.
"""

import bisect
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ShardMap
from repro.cluster.reshard import Migration
from repro.serve import UpdateGroup

from .conftest import brute_range_sum

MAX_ROWS = 40


@st.composite
def layouts(draw, min_shards=1, max_shards=5):
    """A valid (shape, bounds) pair: contiguous slabs covering axis 0."""
    ndim = draw(st.integers(1, 3))
    rows = draw(st.integers(min_shards, MAX_ROWS))
    tail = tuple(
        draw(st.integers(1, 6)) for _ in range(ndim - 1)
    )
    num_shards = draw(
        st.integers(min_shards, min(max_shards, rows))
    )
    cuts = sorted(
        draw(
            st.lists(
                st.integers(1, rows - 1),
                min_size=num_shards - 1,
                max_size=num_shards - 1,
                unique=True,
            )
        )
        if num_shards > 1
        else []
    )
    edges = [0] + cuts + [rows]
    bounds = [
        (edges[i], edges[i + 1]) for i in range(len(edges) - 1)
    ]
    return (rows,) + tail, bounds


@st.composite
def splittable_maps(draw):
    """A ShardMap plus a shard wide enough to split and a valid cut row."""
    shape, bounds = draw(layouts())
    widths = [stop - start for start, stop in bounds]
    candidates = [i for i, w in enumerate(widths) if w >= 2]
    if not candidates:
        # guarantee at least one splittable shard by fusing everything
        bounds = [(0, shape[0])]
        if shape[0] < 2:
            shape = (2,) + shape[1:]
            bounds = [(0, 2)]
        candidates = [0]
    shard = draw(st.sampled_from(candidates))
    start, stop = bounds[shard]
    at_row = draw(st.integers(start + 1, stop - 1))
    epoch = draw(st.integers(0, 10))
    return ShardMap.from_bounds(shape, bounds, epoch=epoch), shard, at_row


def cell_owner_table(shardmap):
    """cell row → owning shard, for every row of axis 0."""
    return tuple(
        shardmap.shard_of((row,) + (0,) * (shardmap.ndim - 1))
        for row in range(shardmap.shape[0])
    )


def reference_split_updates(shardmap, updates):
    """The per-pair split the columnar ``split_updates`` replaced, kept
    as the reference: one bisect and one localized tuple per pair."""
    starts = [start for start, _ in shardmap.bounds]
    grouped = {}
    for cell, delta in updates:
        owner = bisect.bisect_right(starts, cell[0]) - 1
        local = (cell[0] - starts[owner],) + tuple(cell[1:])
        grouped.setdefault(owner, []).append((local, delta))
    return grouped


def as_pairs(grouped):
    return {shard: list(group) for shard, group in grouped.items()}


class RecordingSet:
    """Stands in for a replica set: records every submitted group."""

    def __init__(self):
        self.groups = []

    def submit(self, group):
        self.groups.append(list(group))


def check_mirrors(kind, source_shards, old_map, new_map, updates):
    """Each source's acked local group reaches the targets as the
    per-pair split of its rows under ``new_map``; after the flip, each
    target's acked local group reaches the sources as the per-pair
    split under ``old_map``."""
    migration = Migration(kind, source_shards, old_map, new_map)
    migration.sources = [
        (RecordingSet(), old_map.bounds[s]) for s in source_shards
    ]
    migration.targets = [
        (RecordingSet(), bounds) for bounds in migration.target_bounds
    ]
    cluster = SimpleNamespace(metrics=SimpleNamespace(inc=lambda **_: None))
    ndim = old_map.ndim
    for mode, (acking, old, receiving, new, indices) in {
        Migration.MODE_DUAL: (
            migration.sources, old_map, migration.targets, new_map,
            migration.source_shards,
        ),
        Migration.MODE_REVERSE: (
            migration.targets, new_map, migration.sources, old_map,
            migration.target_new_indices,
        ),
    }.items():
        migration.mode = mode
        for index, (_, (start, stop)) in zip(indices, acking):
            mine = [(c, d) for c, d in updates if start <= c[0] < stop]
            if not mine:
                continue
            local = reference_split_updates(old, mine)[index]
            for replica_set, _ in receiving:
                replica_set.groups.clear()
            migration.on_write(
                cluster, index, UpdateGroup.of(local, ndim), seq=1
            )
            assert migration.failed is None
            assert not migration.rollback_unsafe
            got = {}
            for replica_set, bounds in receiving:
                assert len(replica_set.groups) <= 1
                for group in replica_set.groups:
                    got[new.bounds.index(bounds)] = group
            assert got == reference_split_updates(new, mine)


class TestSplitMergeRoundTrip:
    @given(splittable_maps())
    @settings(max_examples=120, deadline=None)
    def test_split_then_merge_restores_identical_layout(self, case):
        shardmap, shard, at_row = case
        split = shardmap.split_shard(shard, at_row=at_row)
        merged = split.merge_shards(shard)
        assert merged.bounds == shardmap.bounds
        assert merged.shape == shardmap.shape
        # the round trip costs two epochs but changes no ownership
        assert merged.epoch == shardmap.epoch + 2

    @given(splittable_maps())
    @settings(max_examples=120, deadline=None)
    def test_round_trip_reproduces_cell_to_shard_mapping(self, case):
        shardmap, shard, at_row = case
        merged = shardmap.split_shard(shard, at_row=at_row).merge_shards(
            shard
        )
        assert cell_owner_table(merged) == cell_owner_table(shardmap)

    @given(splittable_maps())
    @settings(max_examples=120, deadline=None)
    def test_split_covers_rows_exactly_once(self, case):
        shardmap, shard, at_row = case
        split = shardmap.split_shard(shard, at_row=at_row)
        assert split.num_shards == shardmap.num_shards + 1
        assert split.epoch == shardmap.epoch + 1
        owners = cell_owner_table(split)
        # ownership is monotone non-decreasing and covers every shard
        assert list(owners) == sorted(owners)
        assert set(owners) == set(range(split.num_shards))
        # cells outside the split shard keep their relative grouping:
        # rows that shared a shard before still share one after
        before = cell_owner_table(shardmap)
        for row_a in range(len(before)):
            for row_b in range(row_a + 1, len(before)):
                if owners[row_a] == owners[row_b]:
                    assert before[row_a] == before[row_b]


@st.composite
def maps_with_data(draw):
    """A pre/post-split map pair plus an integer cube and query boxes."""
    shardmap, shard, at_row = draw(splittable_maps())
    shape = shardmap.shape
    cells = int(np.prod(shape))
    values = draw(
        st.lists(
            st.integers(-50, 50), min_size=cells, max_size=cells
        )
    )
    array = np.asarray(values, dtype=np.float64).reshape(shape)
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        low, high = [], []
        for size in shape:
            a = draw(st.integers(0, size - 1))
            b = draw(st.integers(0, size - 1))
            low.append(min(a, b))
            high.append(max(a, b))
        boxes.append((tuple(low), tuple(high)))
    return shardmap, shard, at_row, array, boxes


class TestCrossEpochExactness:
    @given(maps_with_data())
    @settings(max_examples=80, deadline=None)
    def test_split_box_partials_sum_bit_for_bit(self, case):
        """Per-shard partial sums re-assemble to the single-array oracle
        exactly — under the old epoch, the new epoch, and any mixture.

        Integer-valued float64 cells make every partial sum exact, so
        ``==`` (not approx) is the right assertion: a row routed to the
        wrong shard, dropped, or double-counted shifts the total by at
        least 1."""
        shardmap, shard, at_row, array, boxes = case
        split_map = shardmap.split_shard(shard, at_row=at_row)
        lows = [low for low, _ in boxes]
        highs = [high for _, high in boxes]
        oracle = [brute_range_sum(array, low, high) for low, high in boxes]
        for epoch_map in (shardmap, split_map):
            totals = [0.0] * len(boxes)
            pieces = epoch_map.split_boxes(lows, highs)
            assert len({piece[0] for piece in pieces}) == len(pieces)
            for piece_shard, idx, plows, phighs in pieces:
                slab = epoch_map.subarray(array, piece_shard)
                for q, plo, phi in zip(idx.tolist(), plows, phighs):
                    totals[q] += brute_range_sum(slab, plo, phi)
            assert totals == oracle

    @given(maps_with_data(), st.sampled_from([float, int]))
    @settings(max_examples=80, deadline=None)
    def test_split_updates_route_identically_across_epochs(
        self, case, delta_type
    ):
        """Applying one update stream through the old layout and through
        the post-split layout produces bit-identical cubes: localization
        plus re-globalization is the identity under both epochs. Every
        columnar split — pairs or an ``UpdateGroup`` into
        ``split_updates``, and both migration mirrors — gives each shard
        exactly the per-pair reference split, in submission order."""
        shardmap, shard, at_row, array, boxes = case
        split_map = shardmap.split_shard(shard, at_row=at_row)
        updates = []
        rng = np.random.default_rng(
            int(np.abs(array).sum()) % (2**31) + at_row
        )
        for _ in range(12):
            cell = tuple(
                int(rng.integers(0, size)) for size in shardmap.shape
            )
            updates.append((cell, delta_type(rng.integers(-9, 10))))
        images = []
        for epoch_map in (shardmap, split_map):
            image = array.copy()
            grouped = epoch_map.split_updates(updates)
            for piece_shard, local_updates in grouped.items():
                start, _ = epoch_map.slab(piece_shard)
                for local_cell, delta in local_updates:
                    global_cell = (local_cell[0] + start,) + local_cell[1:]
                    image[global_cell] += delta
            images.append(image)
        assert np.array_equal(images[0], images[1])
        # and the per-shard sub-groups match the per-pair split
        group = UpdateGroup.of(updates, shardmap.ndim)
        for epoch_map in (shardmap, split_map):
            expected = reference_split_updates(epoch_map, updates)
            for given_updates in (updates, group):
                got = as_pairs(epoch_map.split_updates(given_updates))
                assert got == expected
                assert list(got) == sorted(expected)
        # the dual-write mirror (split) and the reverse mirror back
        check_mirrors("split", (shard,), shardmap, split_map, updates)
        check_mirrors(
            "merge", (shard, shard + 1), split_map,
            split_map.merge_shards(shard), updates,
        )

    @given(maps_with_data())
    @settings(max_examples=60, deadline=None)
    def test_slab_images_concatenate_to_the_cube(self, case):
        shardmap, shard, at_row, array, boxes = case
        for epoch_map in (shardmap, shardmap.split_shard(shard, at_row)):
            image = np.concatenate(
                [
                    epoch_map.subarray(array, s)
                    for s in range(epoch_map.num_shards)
                ]
            )
            assert np.array_equal(image, array)
