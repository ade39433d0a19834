"""repro — Relative Prefix Sums for dynamic OLAP data cubes.

A production-quality reproduction of Geffner, Agrawal, El Abbadi and
Smith, "Relative Prefix Sums: An Efficient Approach for Querying Dynamic
OLAP Data Cubes" (ICDE 1999).

Quick start::

    import numpy as np
    from repro import RelativePrefixSumCube

    cube = RelativePrefixSumCube(np.random.randint(0, 100, (365, 50)))
    total = cube.range_sum((0, 37), (89, 52))   # O(1) lookups
    cube.apply_delta((120, 40), +250)           # O(n^{d/2}) cells touched

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every reproduced table and figure.
"""

from repro.aggregates import (
    SUM,
    AggregateCube,
    GroupOperator,
    GroupPrefixCube,
    GroupRelativePrefixCube,
    InvertibleOperator,
)
from repro.baselines import (
    FenwickCube,
    NaiveCube,
    PrefixSumCube,
    SparseNaiveCube,
)
from repro.core import (
    Overlay,
    RangeSumMethod,
    RelativePrefixArray,
    RelativePrefixSumCube,
    default_box_size,
    default_box_sizes,
)
from repro.cluster import (
    BreakerPolicy,
    ClusterUnavailableError,
    CubeCluster,
    HedgePolicy,
    ShardMap,
)
from repro.cube import (
    BandHierarchy,
    BinningEncoder,
    CalendarHierarchy,
    CategoricalEncoder,
    CubeSchema,
    DataCubeEngine,
    DateEncoder,
    Dimension,
    FactTable,
    IdentityEncoder,
    IntegerEncoder,
    MultiMeasureEngine,
    Selection,
    execute_query,
    parse_query,
)
from repro.deadline import Deadline
from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ServiceOverloadedError,
    StorageError,
)
from repro.extensions import HierarchicalRPSCube
from repro.faults import FaultPlan, InjectedFault
from repro.ingest import (
    CheckpointStore,
    ClusterTarget,
    ColumnarSource,
    CSVSource,
    DeadLetterFile,
    IngestPipeline,
    IngestReport,
    MemorySource,
    RollingCubeService,
    RollingServiceTarget,
    ServiceTarget,
)
from repro.persistence import (
    load_engine,
    load_method,
    load_schema,
    save_engine,
    save_method,
    save_schema,
)
from repro.metrics import (
    AccessCounter,
    LatencyRecorder,
    MetricsRegistry,
    NetMetrics,
)
from repro.net import Authenticator, CubeClient, CubeServer, Tenant
from repro.routing import (
    QueryRouter,
    ResultCache,
    RoutedBatch,
)
from repro.serve import (
    CubeService,
    DurabilityPolicy,
    ServiceClosedError,
    WriteAheadLog,
    call_with_retries,
)
from repro.storage import BoxAlignedLayout, PagedRPSCube, RowMajorLayout

__version__ = "1.0.0"

__all__ = [
    "AccessCounter",
    "AggregateCube",
    "Authenticator",
    "BandHierarchy",
    "BinningEncoder",
    "BreakerPolicy",
    "CalendarHierarchy",
    "BoxAlignedLayout",
    "CategoricalEncoder",
    "CheckpointStore",
    "ClusterTarget",
    "ClusterUnavailableError",
    "ColumnarSource",
    "CSVSource",
    "CubeClient",
    "CubeCluster",
    "CubeSchema",
    "CubeServer",
    "CubeService",
    "Deadline",
    "DeadlineExceededError",
    "DataCubeEngine",
    "DateEncoder",
    "DeadLetterFile",
    "Dimension",
    "DurabilityPolicy",
    "FactTable",
    "FaultPlan",
    "FenwickCube",
    "HedgePolicy",
    "InjectedFault",
    "HierarchicalRPSCube",
    "IdentityEncoder",
    "IngestPipeline",
    "IngestReport",
    "IntegerEncoder",
    "InvertibleOperator",
    "LatencyRecorder",
    "MemorySource",
    "MetricsRegistry",
    "MultiMeasureEngine",
    "NaiveCube",
    "NetMetrics",
    "Overlay",
    "PagedRPSCube",
    "PrefixSumCube",
    "QueryRouter",
    "RangeSumMethod",
    "RelativePrefixArray",
    "RelativePrefixSumCube",
    "ReproError",
    "ResultCache",
    "RollingCubeService",
    "RollingServiceTarget",
    "RoutedBatch",
    "ServiceClosedError",
    "ServiceTarget",
    "ShardMap",
    "Tenant",
    "ServiceOverloadedError",
    "StorageError",
    "WriteAheadLog",
    "call_with_retries",
    "GroupOperator",
    "GroupPrefixCube",
    "GroupRelativePrefixCube",
    "RowMajorLayout",
    "SUM",
    "Selection",
    "SparseNaiveCube",
    "execute_query",
    "parse_query",
    "default_box_size",
    "default_box_sizes",
    "load_engine",
    "load_method",
    "load_schema",
    "save_engine",
    "save_method",
    "save_schema",
    "__version__",
]
