"""Synthetic cubes, query/update streams, and the mixed-workload runner."""

from repro.workloads.datagen import (
    GENERATORS,
    clustered_cube,
    make_cube,
    paper_example_cube,
    sparse_cube,
    uniform_cube,
    zipf_cube,
)
from repro.workloads.querygen import (
    fixed_extent_ranges,
    hotspot_ranges,
    point_queries,
    random_range,
    random_ranges,
    sliding_windows,
)
from repro.workloads.runner import (
    ClusterWorkloadRunner,
    WorkloadResult,
    WorkloadRunner,
)
from repro.workloads.scenarios import SCENARIOS, Scenario, get_scenario, run_scenario
from repro.workloads.trace import Operation, Trace
from repro.workloads.updategen import (
    append_updates,
    random_group,
    random_updates,
    skewed_updates,
    worst_case_cell,
)

__all__ = [
    "ClusterWorkloadRunner",
    "GENERATORS",
    "Operation",
    "SCENARIOS",
    "Scenario",
    "Trace",
    "WorkloadResult",
    "WorkloadRunner",
    "get_scenario",
    "run_scenario",
    "append_updates",
    "clustered_cube",
    "fixed_extent_ranges",
    "hotspot_ranges",
    "make_cube",
    "paper_example_cube",
    "point_queries",
    "random_group",
    "random_range",
    "random_ranges",
    "random_updates",
    "skewed_updates",
    "sliding_windows",
    "sparse_cube",
    "uniform_cube",
    "worst_case_cell",
    "zipf_cube",
]
