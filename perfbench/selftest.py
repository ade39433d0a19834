"""Self-test: the benchmark's checks must fire when they should.

Oracle: each workload is run briefly with one read answer corrupted by
one (+1.0 on its first box) through a proxy placed where the workload's
own tracing proxies go: the router's backend on ``net_dashboard``, one
replica's service on ``cluster_mixed``, the reader's service on
``ingest_rolling``. Every run must report at least one failed operation
and name the wrong read.

Coverage gate: ``net_dashboard`` and ``cluster_mixed`` are run traced
with the proxy their read stages hang from left out (the server's
backend; the cluster nodes' services). The gate must pass with every
proxy in place and fail with one left out. Run from a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import pathlib
import shutil
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import cluster_mixed  # noqa: E402
import ingest_rolling  # noqa: E402
import net_dashboard  # noqa: E402
from harness import coverage_failure  # noqa: E402

#: which read call gets the wrong value (past warm-up, inside the clock)
PLANT_AT = 50


class PlantOne:
    """Forwards everything; the ``PLANT_AT``-th ``query_many`` result
    comes back with its first value off by one."""

    def __init__(self, target) -> None:
        self._target = target
        self._calls = 0

    def query_many(self, *args, **kwargs):
        values, stamp = self._target.query_many(*args, **kwargs)
        self._calls += 1
        if self._calls == PLANT_AT:
            values = np.array(values, dtype=np.float64, copy=True)
            values[0] += 1.0
        return values, stamp

    def __getattr__(self, name):
        return getattr(self._target, name)


class PlantedStack(net_dashboard.Stack):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.router.backend = PlantOne(self.router.backend)


_build_cluster = cluster_mixed._build


def _planted_cluster(inputs, workdir, i):
    cluster, directory = _build_cluster(inputs, workdir, i)
    node = cluster.replica_sets[0].nodes[0]
    node.service = PlantOne(node.service)
    return cluster, directory


class PlantedPass(ingest_rolling.Pass):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.reads_from = PlantOne(self.reads_from)


class UnwrappedStack(net_dashboard.Stack):
    """Traced, except that the server's backend is left unwrapped."""

    def trace(self, tracer) -> None:
        super().trace(tracer)
        self.server.backend = self.server.backend._target


def _gate(workdir) -> int:
    """The coverage gate passes with every proxy and fails without one."""
    status = 0
    stack, trace_nodes = net_dashboard.Stack, cluster_mixed._trace
    for dropped in (False, True):
        if dropped:
            net_dashboard.Stack = UnwrappedStack
            cluster_mixed._trace = lambda cluster, tracer: None
        try:
            for name, module in (("net_dashboard", net_dashboard),
                                 ("cluster_mixed", cluster_mixed)):
                out = module.run(7, 2.0, True, workdir)
                coverage = out.metrics["trace.coverage_ratio"]
                fired = coverage_failure(name, coverage) is not None
                print(f"{name}: coverage {coverage:.3f} with "
                      f"{'a proxy left out' if dropped else 'every proxy'}"
                      f" -> gate {'fired' if fired else 'passed'}")
                status = status or int(fired != dropped)
        finally:
            net_dashboard.Stack, cluster_mixed._trace = stack, trace_nodes
    return status


def main() -> int:
    state = HERE.parent / ".perfbench"
    state.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=state)
    try:
        status = _gate(workdir)
        net_dashboard.Stack = PlantedStack
        cluster_mixed._build = _planted_cluster
        ingest_rolling.Pass = PlantedPass
        for name, module, seconds in (
            ("net_dashboard", net_dashboard, 2.0),
            ("cluster_mixed", cluster_mixed, 2.0),
            ("ingest_rolling", ingest_rolling, 1.0),
        ):
            out = module.run(7, seconds, False, workdir)
            fired = out.failed >= 1 and any(
                "differs from the oracle" in e for e in out.errors
            )
            print(f"{name}: {out.failed} failed of {out.attempted} -> "
                  f"{'check fired' if fired else 'CHECK DID NOT FIRE'}")
            for error in out.errors[:3]:
                print(f"    {error}")
            status = status or (0 if fired else 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("OK" if status == 0 else "FAILED")
    return status


if __name__ == "__main__":
    sys.exit(main())
