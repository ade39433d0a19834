"""OLAP data-cube layer: schemas, encoders, fact tables, query engine."""

from repro.cube.builder import build_dense_arrays, build_value_array
from repro.cube.encoders import (
    BinningEncoder,
    CategoricalEncoder,
    DateEncoder,
    DimensionEncoder,
    IdentityEncoder,
    IntegerEncoder,
)
from repro.cube.engine import DataCubeEngine
from repro.cube.fact_table import FactTable
from repro.cube.hierarchy import BandHierarchy, CalendarHierarchy, group_by
from repro.cube.multi import MultiMeasureEngine
from repro.cube.pivot import PivotTable, pivot
from repro.cube.query import (
    ParsedQuery,
    RangeUnion,
    Selection,
    execute_query,
    parse_query,
)
from repro.cube.schema import CubeSchema, Dimension

__all__ = [
    "BandHierarchy",
    "BinningEncoder",
    "CalendarHierarchy",
    "CategoricalEncoder",
    "CubeSchema",
    "DataCubeEngine",
    "MultiMeasureEngine",
    "ParsedQuery",
    "PivotTable",
    "RangeUnion",
    "Selection",
    "execute_query",
    "group_by",
    "parse_query",
    "pivot",
    "DateEncoder",
    "Dimension",
    "DimensionEncoder",
    "FactTable",
    "IdentityEncoder",
    "IntegerEncoder",
    "build_dense_arrays",
    "build_value_array",
]
