"""The hidden-database server substrate: top-k interface, cost accounting.

This package implements the "local server" of the paper's experiments:
a deterministic top-``k`` query interface over an in-memory dataset,
plus the client-side machinery (response cache, budgets, rate limits)
that a real crawler deployment would carry.
"""

from repro.server.client import CachingClient, PatientClient
from repro.server.engines import (
    LinearScanEngine,
    QueryEngine,
    VectorEngine,
)
from repro.server.interface import QueryInterface
from repro.server.latency import LatencySource
from repro.server.limits import (
    DailyRateLimit,
    LimitLease,
    QueryBudget,
    QueryLimit,
    SimulatedClock,
)
from repro.server.response import QueryResponse, Row
from repro.server.server import TopKServer
from repro.server.stats import QueryStats
from repro.server.workload import WorkloadReport, workload_report

__all__ = [
    "CachingClient",
    "PatientClient",
    "LinearScanEngine",
    "QueryEngine",
    "QueryInterface",
    "LatencySource",
    "VectorEngine",
    "DailyRateLimit",
    "LimitLease",
    "QueryBudget",
    "QueryLimit",
    "SimulatedClock",
    "QueryResponse",
    "Row",
    "TopKServer",
    "QueryStats",
    "WorkloadReport",
    "workload_report",
]
