"""Query engine and system facade."""

from repro.engine.clock import LogicalClock
from repro.engine.executor import QueryExecutor, QueryResult
from repro.engine.latency import LatencyHistogram, QueryCostModel
from repro.engine.parser import parse_query
from repro.engine.queries import (
    AndQuery,
    CombineMode,
    KeywordQuery,
    OrQuery,
    SpatialQuery,
    TopKQuery,
    UserQuery,
)
from repro.engine.stats import IngestStats, QueryStats, SystemStats, TimelinePoint
from repro.engine.system import MicroblogSystem

__all__ = [
    "AndQuery",
    "CombineMode",
    "IngestStats",
    "KeywordQuery",
    "LatencyHistogram",
    "LogicalClock",
    "MicroblogSystem",
    "OrQuery",
    "QueryCostModel",
    "QueryExecutor",
    "QueryResult",
    "QueryStats",
    "parse_query",
    "SpatialQuery",
    "SystemStats",
    "TimelinePoint",
    "TopKQuery",
    "UserQuery",
]
