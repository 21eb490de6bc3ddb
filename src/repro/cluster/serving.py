"""Cluster serving loop: micro-batching + admission control.

Replays a timestamped query stream through a
:class:`~repro.cluster.frontend.ClusterFrontend` with the single-engine
serving loop (:func:`~repro.core.serving.replay`), switching on the
one policy a rack frontend adds over a single engine: **admission
control**. The shed/degrade deadline policy acts at batch *launch* —
by then a doomed query has already queued and inflated everyone's
wait. Admission control acts at batch *formation*: when the number of
waiting queries exceeds ``FrontendConfig.admission_queue_limit``, the
youngest arrivals past the limit are rejected up front (they never
occupy the window), bounding queue growth under overload the way the
obs queue-depth gauge motivates.

Rejected queries keep the ``-1`` / ``+inf`` fill in returned results
and are counted as ``admission_rejected`` on the
:class:`~repro.core.serving.ServingReport`, which this module extends
with the frontend's robustness ledger (hedges, node retries, dead
nodes, mean coverage).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

import numpy as np

from repro.ann.ivfpq import SearchResult
from repro.cluster.frontend import ClusterFrontend, ClusterReport
from repro.core.results import ServingOutcome
from repro.core.serving import BatchingPolicy, replay


def simulate_cluster_serving(
    frontend: ClusterFrontend,
    queries: np.ndarray,
    arrivals_s: np.ndarray,
    policy: BatchingPolicy = BatchingPolicy(),
    *,
    return_results: bool = False,
) -> ServingOutcome:
    """Replay a query stream through the cluster frontend.

    One micro-batch = one frontend round (one node-fault-plan round).
    Service time is the frontend's modeled ``e2e_seconds`` (global CL
    plus the slowest shard path, including backoff and hedging), so
    tail latency reflects stragglers exactly as the chaos harness
    measures them.
    """
    queries = np.asarray(queries)
    reports: List[ClusterReport] = []

    def run(members: np.ndarray) -> Tuple[SearchResult, float]:
        res, rep = frontend.search(queries[members])
        reports.append(rep)
        return res, rep.e2e_seconds

    outcome = replay(
        queries, arrivals_s, policy, run, frontend.observer,
        admission_limit=frontend.config.admission_queue_limit,
        return_results=return_results,
    )
    coverage = np.concatenate([r.coverage for r in reports] or [np.ones(0)])
    outcome.report = replace(
        outcome.report,
        degraded_queries=sum(len(r.degraded_queries) for r in reports),
        node_retries=sum(r.node_retries for r in reports),
        hedged_requests=sum(r.hedged_requests for r in reports),
        backoff_seconds=sum(r.backoff_seconds for r in reports),
        dead_nodes=len(frontend.dead_nodes),
        mean_coverage=float(coverage.mean()) if len(coverage) else 1.0,
    )
    return outcome
