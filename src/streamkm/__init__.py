"""Streaming k-means clustering with coreset trees and coreset caching."""

from .cache import CachedCoresetTree
from .coreset import Bucket, CoresetConfig, build_coreset
from .driver import StreamClusterer
from .kmeans import (
    CenterSet,
    SequentialKMeans,
    best_of_runs,
    clustering_cost,
    kmeans_pp,
    lloyd_refine,
    sequential_update,
)
from .online import OnlineClusterer
from .radix import major, minor, partsum, prefixsum
from .recursive import RecursiveCachedTree, order_for_horizon
from .schedule import QuerySchedule, schedule_queries
from .tree import CoresetTree

__all__ = [
    "Bucket",
    "CachedCoresetTree",
    "CenterSet",
    "CoresetConfig",
    "CoresetTree",
    "OnlineClusterer",
    "QuerySchedule",
    "RecursiveCachedTree",
    "SequentialKMeans",
    "StreamClusterer",
    "best_of_runs",
    "build_coreset",
    "clustering_cost",
    "kmeans_pp",
    "lloyd_refine",
    "major",
    "minor",
    "order_for_horizon",
    "partsum",
    "prefixsum",
    "schedule_queries",
    "sequential_update",
]

__version__ = "0.1.0"
