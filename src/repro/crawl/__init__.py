"""The paper's crawling algorithms and shared crawler machinery.

Quick map (paper section -> class):

* Section 2.1  ``binary-shrink``     -> :class:`BinaryShrink`
* Section 2.2+ ``rank-shrink``       -> :class:`RankShrink`
* Section 3.1  ``DFS``               -> :class:`DepthFirstSearch`
* Section 3.2  ``slice-cover``       -> :class:`SliceCover`
* Section 3.2  ``lazy-slice-cover``  -> :class:`LazySliceCover`
* Section 5    ``hybrid``            -> :class:`Hybrid`

:class:`Hybrid` accepts any space kind and is the right default for
callers who just want the database crawled.
"""

from repro.crawl import profiling
from repro.crawl.base import (
    Crawler,
    CrawlResult,
    ProgressAggregator,
    ProgressPoint,
    SessionState,
    concat_progress,
    merge_progress,
)
from repro.crawl.binary_shrink import (
    BinaryShrink,
    explore_binary,
    solve_binary,
)
from repro.crawl.checkpoint import load_checkpoint, save_checkpoint
from repro.crawl.coordinator import (
    LimitCoordinator,
    SharedBudget,
    SharedClock,
    SharedLimitClient,
    TenantLimitRegistry,
)
from repro.crawl.dependency import (
    DependencyFilteringClient,
    PairwiseDependencyOracle,
)
from repro.crawl.dfs import DepthFirstSearch
from repro.crawl.executors import (
    EXECUTORS,
    CrawlExecutor,
    ProcessExecutor,
    SequentialExecutor,
    ThreadExecutor,
    default_workers,
)
from repro.crawl.hybrid import Hybrid
from repro.crawl.incremental import SnapshotDiff, diff_snapshots, recrawl
from repro.crawl.ordering import (
    order_by_distinct_count,
    order_by_domain_size,
    reorder_dataset,
)
from repro.crawl.partition import (
    DEFAULT_MAX_REGIONS,
    PartitionedResult,
    PartitionPlan,
    SubspaceView,
    crawl_partitioned,
    partition_space,
)
from repro.crawl.rank_shrink import RankShrink, explore_numeric, solve_numeric
from repro.crawl.rebalance import (
    RegionCompletion,
    RegionTask,
    ShardTask,
    WorkStealingScheduler,
)
from repro.crawl.runtime import (
    AggregatorFeed,
    GridSink,
    LocalUnitRunner,
    UnitRunner,
    drive_stealing,
)
from repro.crawl.sampling import RandomProber
from repro.crawl.sharding import (
    DEFAULT_MAX_SHARDS,
    RegionShardPlan,
    SubtreeCrawler,
    SubtreeShard,
    TrunkSegment,
    crawl_shard,
    merge_region_shards,
    presplit_region,
)
from repro.crawl.slice_cover import LazySliceCover, SliceCover
from repro.crawl.spec import ALGORITHMS, CrawlSpec, spec_from_args
from repro.crawl.verify import (
    VerificationReport,
    assert_complete,
    verify_complete,
)

__all__ = [
    "profiling",
    "Crawler",
    "CrawlResult",
    "ProgressAggregator",
    "ProgressPoint",
    "SessionState",
    "concat_progress",
    "merge_progress",
    "CrawlExecutor",
    "SequentialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "EXECUTORS",
    "ALGORITHMS",
    "CrawlSpec",
    "spec_from_args",
    "LimitCoordinator",
    "SharedLimitClient",
    "SharedBudget",
    "SharedClock",
    "TenantLimitRegistry",
    "RegionTask",
    "ShardTask",
    "RegionCompletion",
    "WorkStealingScheduler",
    "AggregatorFeed",
    "UnitRunner",
    "LocalUnitRunner",
    "GridSink",
    "drive_stealing",
    "DEFAULT_MAX_SHARDS",
    "SubtreeShard",
    "TrunkSegment",
    "RegionShardPlan",
    "SubtreeCrawler",
    "presplit_region",
    "crawl_shard",
    "merge_region_shards",
    "BinaryShrink",
    "solve_binary",
    "explore_binary",
    "RankShrink",
    "solve_numeric",
    "explore_numeric",
    "DepthFirstSearch",
    "SliceCover",
    "LazySliceCover",
    "Hybrid",
    "RandomProber",
    "DependencyFilteringClient",
    "PairwiseDependencyOracle",
    "load_checkpoint",
    "save_checkpoint",
    "order_by_distinct_count",
    "order_by_domain_size",
    "reorder_dataset",
    "DEFAULT_MAX_REGIONS",
    "PartitionedResult",
    "PartitionPlan",
    "SubspaceView",
    "crawl_partitioned",
    "default_workers",
    "partition_space",
    "SnapshotDiff",
    "diff_snapshots",
    "recrawl",
    "VerificationReport",
    "assert_complete",
    "verify_complete",
]
