"""repro -- Optimal Algorithms for Crawling a Hidden Database in the Web.

A faithful, self-contained reproduction of Sheng, Zhang, Tao and Jin,
PVLDB 5(11), 2012.  The package provides:

* the *hidden database* substrate: data spaces, bag datasets, the
  deterministic top-``k`` query server, cost accounting and query limits
  (:mod:`repro.dataspace`, :mod:`repro.query`, :mod:`repro.server`);
* the paper's algorithms, baselines included: ``binary-shrink``,
  ``rank-shrink``, ``DFS``, ``slice-cover``, ``lazy-slice-cover`` and
  ``hybrid`` (:mod:`repro.crawl`);
* the theory layer: Theorem 1 cost bounds, recursion-tree analysis and
  lower-bound machinery (:mod:`repro.theory`);
* dataset generators matching the paper's evaluation data and hard
  instances (:mod:`repro.datasets`);
* the experiment harness regenerating every figure of Section 6
  (:mod:`repro.experiments`; CLI: ``python -m repro.experiments``).

Quickstart::

    from repro import Hybrid, TopKServer, assert_complete
    from repro.datasets import yahoo_autos

    dataset = yahoo_autos()
    server = TopKServer(dataset, k=1024)
    result = Hybrid(server).crawl()
    assert_complete(result, dataset)
    print(result.cost, "queries for", result.tuples_extracted, "tuples")
"""

from repro.crawl import (
    BinaryShrink,
    CostEstimator,
    Crawler,
    CrawlExecutor,
    CrawlResult,
    CrawlSpec,
    DependencyFilteringClient,
    DepthFirstSearch,
    Hybrid,
    LazySliceCover,
    PairwiseDependencyOracle,
    PartitionedResult,
    PartitionPlan,
    ProgressAggregator,
    RankShrink,
    RegionShardPlan,
    SessionState,
    SliceCover,
    SubspaceView,
    SubtreeScheduler,
    SubtreeShard,
    WorkStealingScheduler,
    assert_complete,
    crawl_partitioned,
    crawl_partitioned_parallel,
    crawl_shard,
    make_executor,
    merge_region_shards,
    partition_space,
    presplit_region,
    verify_complete,
)
from repro.dataspace import Attribute, DataSpace, Dataset, SpaceKind
from repro.exceptions import (
    AlgorithmInvariantError,
    InfeasibleCrawlError,
    QueryBudgetExhausted,
    ReproError,
    SchemaError,
    UnboundedDomainError,
)
from repro.query import Query, full_query, point_query, slice_query
from repro.server import (
    CachingClient,
    DailyRateLimit,
    LatencySource,
    LimitLease,
    PatientClient,
    QueryBudget,
    QueryResponse,
    SimulatedClock,
    TopKServer,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # crawlers
    "BinaryShrink",
    "Crawler",
    "CrawlResult",
    "CostEstimator",
    "CrawlExecutor",
    "CrawlSpec",
    "DependencyFilteringClient",
    "DepthFirstSearch",
    "Hybrid",
    "LazySliceCover",
    "PairwiseDependencyOracle",
    "PartitionedResult",
    "PartitionPlan",
    "ProgressAggregator",
    "RankShrink",
    "RegionShardPlan",
    "SessionState",
    "SliceCover",
    "SubspaceView",
    "SubtreeScheduler",
    "SubtreeShard",
    "WorkStealingScheduler",
    "assert_complete",
    "crawl_partitioned",
    "crawl_partitioned_parallel",
    "crawl_shard",
    "make_executor",
    "merge_region_shards",
    "partition_space",
    "presplit_region",
    "verify_complete",
    # data model
    "Attribute",
    "DataSpace",
    "Dataset",
    "SpaceKind",
    # queries
    "Query",
    "full_query",
    "point_query",
    "slice_query",
    # server
    "CachingClient",
    "PatientClient",
    "DailyRateLimit",
    "LatencySource",
    "LimitLease",
    "QueryBudget",
    "QueryResponse",
    "SimulatedClock",
    "TopKServer",
    # errors
    "AlgorithmInvariantError",
    "InfeasibleCrawlError",
    "QueryBudgetExhausted",
    "ReproError",
    "SchemaError",
    "UnboundedDomainError",
]
