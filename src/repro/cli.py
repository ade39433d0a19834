"""Command-line entry point: ``repro-bench`` / ``python -m repro.cli``.

Subcommands:

* ``list`` — the experiment index (E1-E10 reproductions, A1-A3 ablations).
* ``run E6 E7`` — run selected experiments and print their tables.
* ``all`` — run every experiment.
* ``demo`` — the paper's worked example end-to-end on the 9x9 cube.
* ``workload [scenario]`` — run a named workload scenario across methods.
* ``profile`` — measure methods' empirical cost spec sheets.
* ``cluster`` — drive a replicated, sharded serving cluster (optionally
  killing a primary mid-run) and print its operational stats.
* ``router`` — serve a repeated dashboard workload through the query
  router and print per-tier hit rates (``--no-cache`` turns the cache
  tier off).
* ``serve`` — stand up the TCP serving tier (``repro.net``) in front of
  a cube service, optionally routed (``--router``) and tenant-gated
  (``--tenant name=token[:rate[:burst]]``), until interrupted.
* ``ingest`` — stream a CSV fact file into a durable cube service
  under exactly-once semantics: re-running the same command after a
  crash (or ``^C``) resumes from the last fenced checkpoint, poison
  rows land in the state dir's dead-letter file, and the final JSON
  report counts every row exactly once.

``run``/``all`` accept ``--csv DIR`` to also write each table as
``DIR/<id>.csv``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import paper
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.harness import report, run_all, save_csvs
from repro.bench.reporting import render_matrix
from repro.core.rps import RelativePrefixSumCube


def _cmd_list(_args) -> int:
    print("Available experiments (see DESIGN.md for the full index):")
    for eid in sorted(ALL_EXPERIMENTS, key=lambda e: (e[0], int(e[1:]))):
        doc = (ALL_EXPERIMENTS[eid].__doc__ or "").strip().splitlines()[0]
        print(f"  {eid:>4}  {doc}")
    return 0


def _cmd_run(args) -> int:
    runs = run_all(args.experiments or None)
    print(report(runs))
    if args.csv:
        written = save_csvs(runs, args.csv)
        for eid, path in sorted(written.items()):
            print(f"wrote {eid} -> {path}")
    return 0


def _cmd_demo(_args) -> int:
    print("Relative prefix sums on the paper's 9x9 example cube (k=3)\n")
    rps = RelativePrefixSumCube(paper.ARRAY_A, box_size=paper.BOX_SIZE)
    print(render_matrix("array A (Figure 1)", paper.ARRAY_A))
    print()
    print(render_matrix("RP array (Figure 10)", rps.rp.array()))
    print()
    print(render_matrix("overlay anchors (Figure 13)", rps.overlay.anchors_array()))
    print()
    target = paper.EXAMPLE_QUERY_TARGET
    explained = rps.explain_prefix(target)
    print(f"worked query: SUM(A[0,0]:A[{target[0]},{target[1]}])")
    parts = [f"anchor{explained['anchor']} {explained['anchor_value']}"]
    parts += [
        f"border{cell} {value}"
        for cell, value in sorted(explained["border_values"].items())
    ]
    parts.append(f"RP{explained['target']} {explained['rp_value']}")
    print("  = " + " + ".join(parts))
    print(f"  = {explained['total']} (paper: {paper.EXAMPLE_QUERY_RESULT})")
    print()
    before = rps.counter.snapshot()
    rps.apply_delta(paper.UPDATE_EXAMPLE_CELL, 1)
    cost = before.delta(rps.counter)
    print(
        f"update A{paper.UPDATE_EXAMPLE_CELL} += 1 touched "
        f"{cost.cells_written} cells "
        f"(paper: {paper.UPDATE_EXAMPLE_RPS_TOTAL_CELLS}; "
        f"prefix sum method: {paper.UPDATE_EXAMPLE_PS_CELLS})"
    )
    return 0


def _cmd_workload(args) -> int:
    from repro.bench.experiments import METHODS
    from repro.errors import WorkloadError
    from repro.workloads.scenarios import SCENARIOS, run_scenario

    if args.scenario is None:
        print("Available scenarios:")
        for name, scenario in sorted(SCENARIOS.items()):
            print(f"  {name:>12}  {scenario.description}")
        return 0
    header = (
        f"{'method':>12} {'queries':>8} {'updates':>8} "
        f"{'cells/query':>12} {'cells/update':>13} {'product':>12} "
        f"{'mismatches':>11}"
    )
    print(
        f"scenario {args.scenario!r}: {args.n}x{args.n} cube, "
        f"{args.ops} ops, seed {args.seed}\n"
    )
    print(header)
    print("-" * len(header))
    for name in args.methods:
        if name not in METHODS:
            raise WorkloadError(
                f"unknown method {name!r}; choose from {sorted(METHODS)}"
            )
        result = run_scenario(
            args.scenario, METHODS[name],
            shape=(args.n, args.n), operations=args.ops, seed=args.seed,
        )
        print(
            f"{name:>12} {result.queries:>8} {result.updates:>8} "
            f"{result.cells_per_query:>12.1f} "
            f"{result.cells_per_update:>13.1f} "
            f"{result.cost_product:>12.0f} {result.mismatches:>11}"
        )
    return 0


def _cmd_profile(args) -> int:
    from repro.bench.experiments import METHODS
    from repro.errors import WorkloadError
    from repro.metrics.profile import characterize, render_profile

    for name in args.methods:
        if name not in METHODS:
            raise WorkloadError(
                f"unknown method {name!r}; choose from {sorted(METHODS)}"
            )
        kwargs = {}
        if name == "rps" and args.box_size:
            kwargs["box_size"] = args.box_size
        profile = characterize(
            METHODS[name], shape=(args.n, args.n),
            operations=args.ops, seed=args.seed, **kwargs,
        )
        print(render_profile(profile))
        print()
    return 0


def _cmd_trace(args) -> int:
    from repro.bench.experiments import METHODS
    from repro.errors import WorkloadError
    from repro.workloads.scenarios import get_scenario
    from repro.workloads.trace import Trace

    if args.action == "capture":
        scenario = get_scenario(args.scenario)
        shape = (args.n, args.n)
        trace = Trace.capture(
            queries=scenario.make_queries(shape, args.ops, args.seed),
            updates=scenario.make_updates(shape, args.ops, args.seed),
            interleave=scenario.interleave,
        )
        trace.save(args.file)
        print(f"captured {trace!r} from scenario {args.scenario!r} "
              f"-> {args.file}")
        return 0
    # replay
    trace = Trace.load(args.file)
    from repro.workloads import datagen

    cube = datagen.uniform_cube((args.n, args.n), seed=args.seed)
    print(f"replaying {trace!r} from {args.file} on a "
          f"{args.n}x{args.n} cube\n")
    header = (
        f"{'method':>12} {'cells/query':>12} {'cells/update':>13} "
        f"{'q p95 us':>9} {'u p95 us':>9} {'mismatches':>11}"
    )
    print(header)
    print("-" * len(header))
    for name in args.methods:
        if name not in METHODS:
            raise WorkloadError(
                f"unknown method {name!r}; choose from {sorted(METHODS)}"
            )
        result = trace.replay(METHODS[name](cube), oracle=cube.copy())
        q95 = 1e6 * result.latency_percentiles("query")["p95"]
        u95 = 1e6 * result.latency_percentiles("update")["p95"]
        print(
            f"{name:>12} {result.cells_per_query:>12.1f} "
            f"{result.cells_per_update:>13.1f} {q95:>9.1f} "
            f"{u95:>9.1f} {result.mismatches:>11}"
        )
    return 0


def _cmd_cluster(args) -> int:
    import json
    import tempfile

    import numpy as np

    from repro.cluster import BreakerPolicy, CubeCluster
    from repro.faults import FaultPlan
    from repro.workloads import (
        ClusterWorkloadRunner,
        random_group,
        random_range,
    )

    rng = np.random.default_rng(args.seed)
    shape = (args.n, args.n)
    cube = rng.integers(0, 100, shape).astype(np.int64)
    plan = FaultPlan(seed=args.seed)
    print(
        f"cluster: {args.shards} shards x {args.replicas} replicas on a "
        f"{args.n}x{args.n} cube, {args.ops} ops, seed {args.seed}"
        + (", killing one primary mid-run" if args.kill_primary else "")
    )
    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as tmp:
        with CubeCluster(
            RelativePrefixSumCube,
            cube,
            data_dir=tmp,
            num_shards=args.shards,
            replication_factor=args.replicas,
            fault_plan=plan,
            breaker=BreakerPolicy(failure_threshold=2, cooldown_s=30.0),
            seed=args.seed,
        ) as cluster:
            runner = ClusterWorkloadRunner(cluster, cube.astype(np.float64))

            def traffic(count):
                pairs = [
                    (random_range(rng, shape), random_group(rng, shape, 4))
                    for _ in range(count)
                ]
                return zip(*pairs)

            half = max(1, args.ops // 2)
            result = runner.run(*traffic(half))
            if args.kill_primary:
                cluster.kill_node("s0.n0")
                for _ in range(3):
                    cluster.monitor.tick()
            late = runner.run(*traffic(args.ops - half))
            result.queries += late.queries
            result.updates += late.updates
            result.mismatches += late.mismatches
            result.unavailable += late.unavailable
            cluster.scrubber.scrub_once()
            stats = cluster.stats()
    print(
        f"\n{result.queries} queries, {result.updates} update groups, "
        f"{result.mismatches} mismatches, {result.unavailable} unavailable"
    )
    print(json.dumps(stats["metrics"], indent=2, default=str))
    return 1 if result.mismatches else 0


def _cmd_router(args) -> int:
    import json

    import numpy as np

    from repro.routing import QueryRouter
    from repro.serve import CubeService
    from repro.testing import VersionOracle

    rng = np.random.default_rng(args.seed)
    shape = (args.n, args.n)
    cube = rng.integers(0, 100, shape).astype(np.float64)
    # drill-downs snap to an 8x8 grid of blocks
    g = max(1, args.n // 8)
    print(
        f"router: {args.n}x{args.n} cube, {args.rounds} rounds x "
        f"{args.queries} queries, cache={'on' if args.cache else 'off'}, "
        f"seed {args.seed}"
    )
    # a dashboard-shaped workload: a fixed page of hot boxes asked every
    # round (cache tier) and fresh grid-aligned drill-downs (RPS tier),
    # with writes between rounds
    hot_lows = rng.integers(0, args.n // 2, (args.queries, 2))
    hot_highs = np.minimum(hot_lows + rng.integers(1, args.n // 2,
                                                   (args.queries, 2)),
                           args.n - 1)
    blocks = args.n // g
    mismatches = 0
    with CubeService(RelativePrefixSumCube, cube) as service:
        with QueryRouter(service, enable_cache=args.cache) as router:
            oracle = VersionOracle(cube)
            for round_no in range(args.rounds):
                blo = rng.integers(0, blocks, (args.queries, 2)) * g
                bhi = blo + g * rng.integers(
                    1, max(2, blocks // 2), (args.queries, 2)
                )
                bhi = np.minimum(bhi - 1, args.n - 1)
                for lows, highs in ((hot_lows, hot_highs), (blo, bhi)):
                    for _ in range(args.repeats):
                        values = router.range_sum_many(lows, highs)
                        mismatches += len(oracle.check(
                            lows, highs, values, oracle.version
                        ))
                if round_no + 1 < args.rounds:
                    cell = tuple(int(c) for c in rng.integers(0, args.n, 2))
                    delta = float(rng.integers(1, 10))
                    router.submit_batch([(cell, delta)])
                    router.flush()
                    oracle.record([(cell, delta)])
    stats = router.stats()
    print(f"\n{mismatches} mismatches")
    print(json.dumps(stats["router"], indent=2, default=str))
    return 1 if mismatches else 0


def _cmd_serve(args) -> int:
    import json

    import numpy as np

    from repro.net import Authenticator, CubeServer
    from repro.routing import QueryRouter
    from repro.serve import CubeService

    rng = np.random.default_rng(args.seed)
    shape = (args.n, args.n)
    cube = rng.integers(0, 100, shape).astype(np.float64)
    authenticator = (
        Authenticator.parse(args.tenant) if args.tenant else None
    )
    with CubeService(RelativePrefixSumCube, cube) as service:
        backend = service
        router = None
        if args.router:
            router = QueryRouter(service)
            backend = router
        server = CubeServer(
            backend,
            host=args.host,
            port=args.port,
            authenticator=authenticator,
            max_inflight=args.max_inflight,
        )
        try:
            host, port = server.start_background()
            print(
                f"serving a {args.n}x{args.n} cube on {host}:{port} "
                f"(router={'on' if args.router else 'off'}, "
                f"tenants={len(authenticator.tenants) if authenticator else 0}, "
                f"max_inflight={args.max_inflight})",
                flush=True,
            )
            if args.duration is not None:
                import time as _time

                _time.sleep(args.duration)
            else:
                try:
                    import threading

                    threading.Event().wait()
                except KeyboardInterrupt:
                    pass
        finally:
            server.stop_background()
            if router is not None:
                router.close()
        print(json.dumps(server.metrics.snapshot(), indent=2, default=str))
    return 0


def _cmd_ingest(args) -> int:
    import json
    from pathlib import Path

    import numpy as np

    from repro.cube.encoders import IntegerEncoder
    from repro.cube.schema import CubeSchema, Dimension
    from repro.errors import IngestError
    from repro.ingest import (
        CSVSource,
        IngestPipeline,
        RollingCubeService,
        RollingServiceTarget,
        ServiceTarget,
    )
    from repro.serve import CubeService, DurabilityPolicy

    dims = []
    for spec in args.dim:
        try:
            name, lo, hi = spec.split(":")
            dims.append(Dimension(name, IntegerEncoder(int(lo), int(hi))))
        except ValueError:
            raise IngestError(
                f"bad --dim {spec!r}; expected name:lo:hi (e.g. x:0:15)"
            ) from None
    if not dims:
        raise IngestError("at least one --dim name:lo:hi is required")
    schema = CubeSchema(dims, args.measure)
    shape = tuple(d.size for d in dims)
    if args.time_column:
        shape = (args.window,) + shape

    state = Path(args.state)
    state.mkdir(parents=True, exist_ok=True)
    existing = sorted(state.glob("wal-*.seg")) or sorted(
        state.glob("ckpt-*.npz")
    )
    if existing:
        service = CubeService.recover(state, RelativePrefixSumCube)
        print(f"recovered durable state from {state}")
    else:
        service = CubeService(
            RelativePrefixSumCube,
            np.zeros(shape),
            durability=DurabilityPolicy(dir=state),
        )
        print(f"created durable state in {state}")

    converters = {d.name: int for d in dims}
    converters[args.measure] = float
    if args.time_column:
        converters[args.time_column] = int
        target = RollingServiceTarget(RollingCubeService(service))
    else:
        target = ServiceTarget(service)
    try:
        with IngestPipeline(
            CSVSource(args.file, converters=converters),
            schema,
            target,
            checkpoint_path=state / "ingest-checkpoint.json",
            deadletter_path=state / "ingest-deadletter.log",
            time_column=args.time_column,
            measure_dtype=np.float64,
            group_rows=args.group_rows,
        ) as pipeline:
            report = pipeline.run()
        service.flush()
    finally:
        service.close()
    print(json.dumps(dict(report), indent=2, default=str))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro-bench argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the tables and figures of the RPS paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )

    run_parser = sub.add_parser("run", help="run selected experiments")
    run_parser.add_argument(
        "experiments", nargs="*", metavar="ID",
        help="experiment ids (e.g. E6 E7); all when omitted",
    )
    run_parser.add_argument(
        "--csv", metavar="DIR", help="also write per-experiment CSV files"
    )
    run_parser.set_defaults(func=_cmd_run)

    all_parser = sub.add_parser("all", help="run every experiment")
    all_parser.add_argument(
        "--csv", metavar="DIR", help="also write per-experiment CSV files"
    )
    all_parser.set_defaults(func=_cmd_run, experiments=[])

    sub.add_parser(
        "demo", help="walk the paper's worked example"
    ).set_defaults(func=_cmd_demo)

    workload_parser = sub.add_parser(
        "workload", help="run a named workload scenario across methods"
    )
    workload_parser.add_argument(
        "scenario", nargs="?", default=None,
        help="scenario name (omit to list scenarios)",
    )
    workload_parser.add_argument(
        "--methods", nargs="*", default=["naive", "prefix_sum", "rps",
                                         "fenwick"],
        help="method names to run (default: all four)",
    )
    workload_parser.add_argument(
        "--n", type=int, default=128, help="cube side length (default 128)"
    )
    workload_parser.add_argument(
        "--ops", type=int, default=100,
        help="operations per stream (default 100)",
    )
    workload_parser.add_argument(
        "--seed", type=int, default=0, help="workload seed (default 0)"
    )
    workload_parser.set_defaults(func=_cmd_workload)

    profile_parser = sub.add_parser(
        "profile", help="measure one or more methods' cost spec sheet"
    )
    profile_parser.add_argument(
        "--methods", nargs="*",
        default=["naive", "prefix_sum", "rps", "fenwick"],
        help="method names (default: all four)",
    )
    profile_parser.add_argument("--n", type=int, default=256)
    profile_parser.add_argument("--ops", type=int, default=200)
    profile_parser.add_argument("--seed", type=int, default=0)
    profile_parser.add_argument(
        "--box-size", type=int, default=None,
        help="override the RPS box size",
    )
    profile_parser.set_defaults(func=_cmd_profile)

    trace_parser = sub.add_parser(
        "trace", help="capture a scenario to a trace file, or replay one"
    )
    trace_parser.add_argument("action", choices=["capture", "replay"])
    trace_parser.add_argument("file", help="trace file (JSON lines)")
    trace_parser.add_argument(
        "--scenario", default="dashboard",
        help="scenario to capture (capture only)",
    )
    trace_parser.add_argument(
        "--methods", nargs="*",
        default=["prefix_sum", "rps"],
        help="methods to replay against (replay only)",
    )
    trace_parser.add_argument("--n", type=int, default=128)
    trace_parser.add_argument("--ops", type=int, default=100)
    trace_parser.add_argument("--seed", type=int, default=0)
    trace_parser.set_defaults(func=_cmd_trace)

    cluster_parser = sub.add_parser(
        "cluster",
        help="drive a replicated sharded cluster and print its stats",
    )
    cluster_parser.add_argument(
        "--shards", type=int, default=2, help="number of shards (default 2)"
    )
    cluster_parser.add_argument(
        "--replicas", type=int, default=2,
        help="replicas per shard including the primary (default 2)",
    )
    cluster_parser.add_argument("--n", type=int, default=64)
    cluster_parser.add_argument("--ops", type=int, default=40)
    cluster_parser.add_argument("--seed", type=int, default=0)
    cluster_parser.add_argument(
        "--kill-primary", action="store_true",
        help="kill shard 0's primary halfway through and fail over",
    )
    cluster_parser.set_defaults(func=_cmd_cluster)

    router_parser = sub.add_parser(
        "router",
        help="serve a dashboard workload through the query router and "
             "print per-tier hit rates",
    )
    router_parser.add_argument("--n", type=int, default=128)
    router_parser.add_argument(
        "--rounds", type=int, default=5,
        help="write rounds (a flush between each, default 5)",
    )
    router_parser.add_argument(
        "--queries", type=int, default=64,
        help="boxes per workload page (default 64)",
    )
    router_parser.add_argument(
        "--repeats", type=int, default=3,
        help="times each page is re-asked per round (default 3)",
    )
    router_parser.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="disable the memoized result tier",
    )
    router_parser.add_argument("--seed", type=int, default=0)
    router_parser.set_defaults(func=_cmd_router)

    serve_parser = sub.add_parser(
        "serve",
        help="stand up the TCP serving tier in front of a cube service",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default local)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=7421,
        help="bind port; 0 picks a free one (default 7421)",
    )
    serve_parser.add_argument("--n", type=int, default=256)
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument(
        "--router", action="store_true",
        help="front the service with the query router",
    )
    serve_parser.add_argument(
        "--tenant", action="append", default=[],
        metavar="NAME=TOKEN[:RATE[:BURST]]",
        help="require auth; repeatable, one spec per tenant",
    )
    serve_parser.add_argument(
        "--max-inflight", type=int, default=64,
        help="admission-control cap on concurrent backend calls",
    )
    serve_parser.add_argument(
        "--duration", type=float, default=None,
        help="serve this many seconds then exit (default: until ^C)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    ingest_parser = sub.add_parser(
        "ingest",
        help="stream a CSV fact file into a durable cube service with "
             "exactly-once resume",
    )
    ingest_parser.add_argument("file", help="CSV file with a header row")
    ingest_parser.add_argument(
        "--state", required=True, metavar="DIR",
        help="durable state directory (WAL, checkpoints, ingest "
             "checkpoint, dead-letter file); re-running against the "
             "same dir resumes where the last run stopped",
    )
    ingest_parser.add_argument(
        "--dim", action="append", default=[], metavar="NAME:LO:HI",
        help="dimension column and its integer domain; repeatable, "
             "order fixes the cube axes (e.g. --dim age:0:99)",
    )
    ingest_parser.add_argument(
        "--measure", default="sales",
        help="measure column name (default sales)",
    )
    ingest_parser.add_argument(
        "--time-column", default=None, metavar="NAME",
        help="integer time-slot column; enables a rolling window cube "
             "with a leading time axis",
    )
    ingest_parser.add_argument(
        "--window", type=int, default=7,
        help="rolling window size in slots for --time-column (default 7)",
    )
    ingest_parser.add_argument(
        "--group-rows", type=int, default=4096,
        help="initial source rows per submitted group (default 4096)",
    )
    ingest_parser.set_defaults(func=_cmd_ingest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
