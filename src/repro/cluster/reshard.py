"""Live elastic resharding: split/merge shards with zero acked loss.

A migration moves one slab boundary while the cluster keeps serving.
The coordinator walks a fixed phase machine, with a fault-injection and
observation point at every phase entry::

    plan -> seed -> tail_replay -> dual_write -> flip -> verify -> retire
      |       |          |             |          |        |
      +-------+----------+-------------+          +--(mismatch)--> rollback
              (any failure) -> rollback               (restore prior epoch)

* **plan** — derive the successor :class:`~repro.cluster.shardmap.ShardMap`
  (epoch strictly greater than any epoch this cluster has ever used) and
  register the migration with the cluster's write path, which starts
  buffering every acked group routed to a source shard.
* **seed** — copy each source primary's durability directory live and
  rebuild state from it via :func:`~repro.serve.wal.recover_state` —
  the *same* checkpoint-plus-WAL-tail-replay implementation crash
  recovery trusts — then construct the target replica sets from the
  recovered slab rows. Target breakers start in *warming* mode so a
  probe failure during replay can never quarantine them.
* **tail_replay** — drain the write buffer into the targets, skipping
  groups the seed already contained (sequence-number fenced per
  source), then atomically switch to…
* **dual_write** — every group acked by a source primary is mirrored
  synchronously into its target(s) before the client's call returns:
  the window where old and new layouts hold identical acked state.
* **flip** — under the cluster's topology lock (writes quiesced, every
  replica set flushed so applied == acked): install the new shard map
  and replica-set list in one assignment pair, renumber shard ids,
  rebuild degraded-read aggregates exactly from the new primaries, and
  reverse the mirror — writes now route to the targets and are mirrored
  *back* to the old sources, keeping rollback lossless through verify.
* **verify** — the anti-entropy scrubber digest-compares every migrated
  slab against the still-live sources before anything is retired.
* **retire** — stop the reverse mirror, close the old source nodes,
  drop their breakers, remove seeding scratch.

Any pre-flip failure rolls back by disposing the targets — the old
topology was never touched, so no acked group can be lost. A verify
failure rolls back by restoring the saved shard map and replica sets;
the reverse mirror kept the old primaries complete, so the restored
epoch serves every acked group. Epochs are never reused: a rollback
returns to the prior map, and the next migration claims a strictly
larger epoch, so cache entries stamped with a failed migration's epoch
can never match a live stamp.
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.shardmap import ShardMap, localize, slab_rows
from repro.errors import ClusterError, ReshardError, StorageError, WALError
from repro.serve import wal as wal_mod
from repro.serve.group import UpdateGroup

#: the migration state machine, in order
PHASES = (
    "plan", "seed", "tail_replay", "dual_write", "flip", "verify", "retire"
)


class Migration:
    """In-flight migration state shared with the cluster's write path.

    The cluster's ``submit_batch`` calls :meth:`on_write` (under the
    topology lock) for every acked sub-group; depending on ``mode`` the
    group is buffered for tail replay, mirrored forward into the
    targets (dual-write window), or mirrored backward into the sources
    (post-flip, keeping rollback lossless).
    """

    MODE_BUFFER = "buffer"
    MODE_DUAL = "dual"
    MODE_REVERSE = "reverse"
    MODE_OFF = "off"

    def __init__(
        self,
        kind: str,
        source_shards: Sequence[int],
        old_map: ShardMap,
        new_map: ShardMap,
    ) -> None:
        self.kind = str(kind)
        self.source_shards = tuple(int(s) for s in source_shards)
        self.old_map = old_map
        self.new_map = new_map
        first = self.source_shards[0]
        count = (
            new_map.num_shards - old_map.num_shards
            + len(self.source_shards)
        )
        #: indices the targets occupy in the *new* topology
        self.target_new_indices = tuple(range(first, first + count))
        self.target_bounds: Tuple[Tuple[int, int], ...] = tuple(
            new_map.bounds[i] for i in self.target_new_indices
        )
        self.mode = self.MODE_BUFFER
        self.phase = "plan"
        #: (ReplicaSet, (start, stop)) pairs, filled by the coordinator
        self.sources: List = []
        self.targets: List = []
        self.seed_versions: Dict[int, int] = {}
        self.buffer: List[Tuple[int, int, UpdateGroup]] = []
        self.failed: Optional[BaseException] = None
        self.rollback_unsafe = False
        self.scratch_dirs: List[str] = []
        self.saved_sets: Optional[list] = None
        self.saved_map: Optional[ShardMap] = None

    # -- write-path hooks (caller holds the cluster topology lock) -----------

    def on_write(self, cluster, shard_index, group, seq) -> None:
        if self.mode == self.MODE_BUFFER:
            if shard_index in self.source_shards:
                self.buffer.append((int(shard_index), int(seq), group))
        elif self.mode == self.MODE_DUAL:
            if shard_index in self.source_shards:
                try:
                    self.mirror_to_targets(shard_index, group)
                    cluster.metrics.inc(dual_writes=1)
                except Exception as error:  # noqa: BLE001 - poisons the
                    # migration, never the client's (already durable) ack
                    self.failed = error
        elif self.mode == self.MODE_REVERSE:
            if shard_index in self.target_new_indices:
                try:
                    _, (start, _) = self.targets[
                        self.target_new_indices.index(shard_index)
                    ]
                    self.mirror(group, start, self.sources)
                    cluster.metrics.inc(dual_writes=1)
                except Exception:  # noqa: BLE001 - the old copy is now
                    # incomplete: rollback would lose this acked group
                    self.rollback_unsafe = True

    def mirror_to_targets(self, source_shard, group) -> None:
        """Re-route one source-local acked group into the target(s)."""
        _, (start, _) = self.sources[self.source_shards.index(source_shard)]
        self.mirror(group, start, self.targets)

    @staticmethod
    def mirror(group, start: int, slabs) -> None:
        """Re-route one acked group, local to the slab whose first row
        is ``start``, into ``slabs`` — ascending, contiguous
        ``(replica_set, (start, stop))`` pairs covering its rows — as
        one local group per slab, each in submission order."""
        rows = group.cells[:, 0] + start
        outside = (rows < slabs[0][1][0]) | (rows >= slabs[-1][1][1])
        if outside.any():
            raise ClusterError(
                f"row {int(rows[outside.argmax()])} falls outside every "
                f"slab of {[bounds for _, bounds in slabs]}"
            )
        starts = np.array([first for _, (first, _) in slabs]) - start
        for index, picked in slab_rows(group.cells, starts).items():
            replica_set, _ = slabs[index]
            replica_set.submit(localize(group, picked, starts[index]))

    def describe(self) -> Dict:
        return {
            "kind": self.kind,
            "phase": self.phase,
            "mode": self.mode,
            "source_shards": list(self.source_shards),
            "target_bounds": [list(b) for b in self.target_bounds],
            "old_epoch": self.old_map.epoch,
            "new_epoch": self.new_map.epoch,
        }


class ReshardCoordinator:
    """Drives one split or merge migration end to end.

    Args:
        cluster: the live :class:`~repro.cluster.CubeCluster`.
        phase_hook: optional callable invoked with each phase name at
            entry — the chaos soak's injection point for kills and
            partitions at exact phase boundaries.

    One coordinator runs one migration; the cluster enforces that only
    one migration is in flight at a time.
    """

    #: bounded lock-free tail-replay rounds before the final drain
    #: happens under the topology lock (writes briefly blocked)
    MAX_REPLAY_ROUNDS = 64

    def __init__(self, cluster, *, phase_hook=None) -> None:
        self.cluster = cluster
        self.phase_hook = phase_hook
        self.phases_entered: List[str] = []

    # -- public API ----------------------------------------------------------

    def split(self, shard: int, at_row: Optional[int] = None) -> Dict:
        """Split ``shard`` in two at ``at_row`` (global row; defaults to
        the slab midpoint), live. Returns a migration summary."""
        cluster = self.cluster
        with cluster._topology:
            old_map = cluster.shardmap
            derived = old_map.split_shard(shard, at_row)
            new_map = ShardMap.from_bounds(
                old_map.shape, derived.bounds,
                epoch=cluster._claim_epoch(),
            )
        migration = Migration("split", (shard,), old_map, new_map)
        return self._execute(migration)

    def merge(self, shard: int) -> Dict:
        """Fuse ``shard`` and ``shard + 1`` into one slab, live."""
        cluster = self.cluster
        with cluster._topology:
            old_map = cluster.shardmap
            derived = old_map.merge_shards(shard)
            new_map = ShardMap.from_bounds(
                old_map.shape, derived.bounds,
                epoch=cluster._claim_epoch(),
            )
        migration = Migration(
            "merge", (shard, shard + 1), old_map, new_map
        )
        return self._execute(migration)

    # -- phase machine -------------------------------------------------------

    def _phase(self, migration: Migration, name: str) -> None:
        migration.phase = name
        self.phases_entered.append(name)
        self.cluster.metrics.inc_key("reshard_phases", name)
        if self.phase_hook is not None:
            self.phase_hook(name)
        faults = self.cluster.faults
        if faults is not None:
            on_phase = getattr(faults, "on_reshard_phase", None)
            if on_phase is not None:
                on_phase(name)

    def _execute(self, migration: Migration) -> Dict:
        cluster = self.cluster
        cluster.metrics.inc(reshards_started=1)
        try:
            self._phase(migration, "plan")
            with cluster._topology:
                if cluster._migration is not None:
                    raise ReshardError(
                        "another migration is already in flight",
                        phase="plan",
                    )
                if cluster.shardmap is not migration.old_map:
                    raise ReshardError(
                        "shard map changed since the migration was "
                        "planned", phase="plan",
                    )
                migration.sources = [
                    (
                        cluster.replica_sets[s],
                        cluster.shardmap.bounds[s],
                    )
                    for s in migration.source_shards
                ]
                # registration starts source-write buffering immediately
                cluster._migration = migration
            self._phase(migration, "seed")
            self._seed_targets(migration)
            self._phase(migration, "tail_replay")
            self._tail_replay(migration)
            self._phase(migration, "dual_write")
            if migration.failed is not None:
                raise migration.failed
            self._phase(migration, "flip")
            self._flip(migration)
        except ReshardError:
            self._rollback_pre_flip(migration)
            raise
        except Exception as error:  # noqa: BLE001 - any pre-flip failure
            self._rollback_pre_flip(migration)
            raise ReshardError(
                f"migration failed in phase {migration.phase!r}: {error}",
                phase=migration.phase, rolled_back=True,
            ) from error
        try:
            self._phase(migration, "verify")
            report = cluster.scrubber.verify_migration(migration)
            if report["mismatches"]:
                raise ReshardError(
                    "migrated slabs diverge from their sources: "
                    + "; ".join(report["mismatches"]),
                    phase="verify",
                )
            self._phase(migration, "retire")
            self._retire(migration)
        except Exception as error:  # noqa: BLE001 - post-flip failure
            if migration.rollback_unsafe:
                with cluster._topology:
                    if cluster._migration is migration:
                        cluster._migration = None
                    migration.mode = Migration.MODE_OFF
                raise ReshardError(
                    f"phase {migration.phase!r} failed after the reverse "
                    f"mirror was lost; the new epoch stays installed "
                    f"({error})",
                    phase=migration.phase, rolled_back=False,
                ) from error
            self._rollback_post_flip(migration)
            if isinstance(error, ReshardError):
                raise ReshardError(
                    str(error), phase=error.phase, rolled_back=True
                ) from error
            raise ReshardError(
                f"migration failed in phase {migration.phase!r}: {error}",
                phase=migration.phase, rolled_back=True,
            ) from error
        return {
            "ok": True,
            "kind": migration.kind,
            "old_epoch": migration.old_map.epoch,
            "new_epoch": migration.new_map.epoch,
            "num_shards": migration.new_map.num_shards,
            "phases": list(self.phases_entered),
            "verify": report,
        }

    # -- phase bodies --------------------------------------------------------

    def _seed_targets(self, migration: Migration) -> None:
        """Checkpoint-copy + WAL-tail-replay each source, slice the
        recovered rows into target slabs, build warming replica sets."""
        cluster = self.cluster
        epoch = migration.new_map.epoch
        scratch_root = os.path.join(
            cluster._data_dir, f"reshard-e{epoch}"
        )
        migration.scratch_dirs.append(scratch_root)
        pieces = []
        row_lo = min(start for _, (start, _) in migration.sources)
        for (replica_set, (start, stop)), shard in sorted(
            zip(migration.sources, migration.source_shards),
            key=lambda item: item[0][1][0],
        ):
            source_dir = replica_set.primary.durability_dir
            copy_dir = os.path.join(scratch_root, f"src-{shard}")
            state = self._copy_and_recover(source_dir, copy_dir)
            migration.seed_versions[shard] = int(state.version)
            pieces.append((start, np.asarray(state.method.to_array())))
        pieces.sort(key=lambda item: item[0])
        image = (
            pieces[0][1]
            if len(pieces) == 1
            else np.concatenate([arr for _, arr in pieces])
        )
        for new_index, (t_start, t_stop) in zip(
            migration.target_new_indices, migration.target_bounds
        ):
            slab = np.array(image[t_start - row_lo:t_stop - row_lo])
            directory = os.path.join(
                cluster._data_dir, f"shard-e{epoch}-{new_index}"
            )
            if os.path.exists(directory):
                # leftover from a crashed earlier attempt: the fresh
                # seed checkpoint below is the only state that counts
                shutil.rmtree(directory)
            replica_set = cluster._build_replica_set(
                new_index,
                slab,
                directory,
                node_prefix=f"e{epoch}s{new_index}",
                warming=True,
            )
            migration.targets.append(
                (replica_set, (t_start, t_stop))
            )

    #: a live durability-dir copy races the source's checkpointer:
    #: rotation can delete an old checkpoint or prune a WAL segment
    #: mid-copy. Such a copy fails *loudly* on recovery (vanished file,
    #: sequence gap, digest mismatch — never a silently stale state),
    #: so the fix is simply a bounded retry against a quieter moment.
    SEED_COPY_ATTEMPTS = 5

    def _copy_and_recover(self, source_dir: str, copy_dir: str):
        last_error: Optional[BaseException] = None
        for _ in range(self.SEED_COPY_ATTEMPTS):
            if os.path.exists(copy_dir):
                shutil.rmtree(copy_dir)
            try:
                # a live copy may catch a mid-append WAL tail;
                # recover_state truncates it exactly like crash
                # recovery would
                shutil.copytree(source_dir, copy_dir)
                return wal_mod.recover_state(copy_dir)
            except (OSError, shutil.Error, StorageError, WALError) as error:
                last_error = error
        raise ClusterError(
            f"seeding could not take a consistent copy of "
            f"{source_dir!r} after {self.SEED_COPY_ATTEMPTS} attempts"
        ) from last_error

    def _tail_replay(self, migration: Migration) -> None:
        """Drain buffered source groups into the targets (seed-version
        fenced), then atomically enter the dual-write window."""
        cluster = self.cluster

        def apply(batch) -> None:
            for shard, seq, group in batch:
                if seq <= migration.seed_versions.get(shard, 0):
                    continue  # the seed's WAL replay already holds it
                migration.mirror_to_targets(shard, group)

        for _ in range(self.MAX_REPLAY_ROUNDS):
            with cluster._topology:
                batch, migration.buffer = migration.buffer, []
                if not batch:
                    migration.mode = Migration.MODE_DUAL
                    return
            apply(batch)
        # a sustained write stream kept the buffer busy: finish the
        # drain with writes briefly blocked, then open the dual window
        with cluster._topology:
            apply(migration.buffer)
            migration.buffer = []
            migration.mode = Migration.MODE_DUAL

    def _flip(self, migration: Migration) -> None:
        """Atomic epoch-stamped topology swap, writes quiesced."""
        cluster = self.cluster
        with cluster._topology:
            # applied == acked everywhere before anything is compared,
            # renumbered, or summarized
            for replica_set in cluster.replica_sets:
                replica_set.flush()
            for replica_set, _ in migration.targets:
                replica_set.flush()
            if migration.failed is not None:
                raise migration.failed
            first = migration.source_shards[0]
            last = migration.source_shards[-1]
            old_sets = cluster.replica_sets
            new_sets = (
                list(old_sets[:first])
                + [rs for rs, _ in migration.targets]
                + list(old_sets[last + 1:])
            )
            if len(new_sets) != migration.new_map.num_shards:
                raise ReshardError(
                    f"planned {migration.new_map.num_shards} shards, "
                    f"assembled {len(new_sets)} replica sets",
                    phase="flip",
                )
            migration.saved_sets = old_sets
            migration.saved_map = cluster.shardmap
            for index, replica_set in enumerate(new_sets):
                replica_set.shard_id = index
                for node in replica_set.nodes:
                    node.shard_id = index
            for replica_set, _ in migration.targets:
                for node in replica_set.nodes:
                    cluster._breakers[node.node_id].set_warming(False)
            arrays = {}
            for index, replica_set in enumerate(new_sets):
                array, _ = replica_set.primary.service.snapshot_array()
                arrays[index] = array
            cluster.aggregates.rebuild(arrays)
            migration.mode = Migration.MODE_REVERSE
            cluster.shardmap = migration.new_map
            cluster.replica_sets = new_sets
            cluster.metrics.inc(reshard_flips=1)

    def _retire(self, migration: Migration) -> None:
        cluster = self.cluster
        with cluster._topology:
            if cluster._migration is migration:
                cluster._migration = None
            migration.mode = Migration.MODE_OFF
        for replica_set, _ in migration.sources:
            for node in replica_set.nodes:
                try:
                    node.close()
                except Exception:  # noqa: BLE001 - already dead is fine
                    node.dead = True
                cluster._breakers.pop(node.node_id, None)
        self._cleanup_scratch(migration)

    # -- rollback ------------------------------------------------------------

    def _dispose_targets(self, migration: Migration) -> None:
        for replica_set, _ in migration.targets:
            for node in replica_set.nodes:
                try:
                    node.close()
                except Exception:  # noqa: BLE001 - best-effort teardown
                    node.dead = True
                self.cluster._breakers.pop(node.node_id, None)
        migration.targets = []

    def _cleanup_scratch(self, migration: Migration) -> None:
        for path in migration.scratch_dirs:
            shutil.rmtree(path, ignore_errors=True)
        migration.scratch_dirs = []

    def _rollback_pre_flip(self, migration: Migration) -> None:
        """The old topology was never replaced: deregister and dispose.
        No acked group can be lost — the sources acked everything."""
        cluster = self.cluster
        with cluster._topology:
            if cluster._migration is migration:
                cluster._migration = None
            migration.mode = Migration.MODE_OFF
        self._dispose_targets(migration)
        self._cleanup_scratch(migration)
        cluster.metrics.inc(reshard_rollbacks=1)

    def _rollback_post_flip(self, migration: Migration) -> None:
        """Restore the saved topology; the reverse mirror kept the old
        primaries complete, so the restored epoch serves every acked
        group."""
        cluster = self.cluster
        with cluster._topology:
            if cluster._migration is migration:
                cluster._migration = None
            migration.mode = Migration.MODE_OFF
            old_sets = migration.saved_sets
            for index, replica_set in enumerate(old_sets):
                replica_set.shard_id = index
                for node in replica_set.nodes:
                    node.shard_id = index
            cluster.shardmap = migration.saved_map
            cluster.replica_sets = old_sets
            arrays = {}
            for index, replica_set in enumerate(old_sets):
                try:
                    replica_set.flush()
                    array, _ = (
                        replica_set.primary.service.snapshot_array()
                    )
                except Exception:  # noqa: BLE001 - a downed shard just
                    # loses its degraded-read aggregate, not the rollback
                    continue
                arrays[index] = array
            cluster.aggregates.rebuild(arrays)
        self._dispose_targets(migration)
        self._cleanup_scratch(migration)
        cluster.metrics.inc(reshard_rollbacks=1)


__all__ = ["Migration", "PHASES", "ReshardCoordinator"]
