"""Rack-scale serving: sharded engines behind one robust frontend.

* :mod:`repro.cluster.index` — heat-partitioned shards, replicated
  engines, the global routing index;
* :mod:`repro.cluster.frontend` — round-robin scatter-gather with
  deadlines, retry/backoff failover, hedging, health tracking, and
  per-query coverage accounting;
* :mod:`repro.cluster.serving` — micro-batched serving with admission
  control on top of the frontend;
* :mod:`repro.cluster.chaos` — the harness behind
  ``repro chaos --cluster`` (imported explicitly; it pulls in the
  synthetic-data stack).

See ``docs/fault_tolerance.md`` ("Cluster failover") for the failure
matrix and ``docs/architecture.md`` for where this layer sits.
"""

from repro.cluster.frontend import (
    ClusterFrontend,
    ClusterOutcome,
    ClusterReport,
    FrontendConfig,
    ShardResponse,
    merge_shard_results,
)
from repro.cluster.index import (
    ClusterConfig,
    ClusterIndex,
    ShardHandle,
    build_cluster_index,
    load_cluster_index,
    partition_clusters,
)
from repro.cluster.serving import simulate_cluster_serving

__all__ = [
    "ClusterConfig",
    "ClusterFrontend",
    "ClusterIndex",
    "ClusterOutcome",
    "ClusterReport",
    "FrontendConfig",
    "ShardHandle",
    "ShardResponse",
    "build_cluster_index",
    "load_cluster_index",
    "merge_shard_results",
    "partition_clusters",
    "simulate_cluster_serving",
]
