"""Cluster serving loop: micro-batching + admission control.

Replays a timestamped query stream through a
:class:`~repro.cluster.frontend.ClusterFrontend`, reusing the exact
micro-batch window mechanics of :mod:`repro.core.serving`
(:class:`~repro.core.serving.MicroBatcher`) and layering the one
policy a rack frontend adds over a single engine: **admission
control**. The shed/degrade deadline policy acts at batch *launch* —
by then a doomed query has already queued and inflated everyone's
wait. Admission control acts at batch *formation*: when the number of
waiting queries exceeds ``FrontendConfig.admission_queue_limit``, the
youngest arrivals past the limit are rejected up front (they never
occupy the window), bounding queue growth under overload the way the
obs queue-depth gauge motivates.

Rejected queries keep the ``-1`` / ``+inf`` fill in returned results
and are counted as ``admission_rejected`` on the
:class:`~repro.core.serving.ServingReport`, which this loop extends
with the frontend's robustness ledger (hedges, node retries, dead
nodes, mean coverage).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.ann.ivfpq import SearchResult
from repro.cluster.frontend import ClusterFrontend
from repro.core.results import ServingOutcome
from repro.core.serving import BatchingPolicy, MicroBatcher, ServingReport


def simulate_cluster_serving(
    frontend: ClusterFrontend,
    queries: np.ndarray,
    arrivals_s: np.ndarray,
    policy: BatchingPolicy = BatchingPolicy(),
    *,
    return_results: bool = False,
    execution: Optional[str] = None,
) -> ServingOutcome:
    """Replay a query stream through the cluster frontend.

    One micro-batch = one frontend round (one node-fault-plan round).
    Service time is the frontend's modeled ``e2e_seconds`` (global CL
    plus the slowest shard path, including backoff and hedging), so
    tail latency reflects stragglers exactly as the chaos harness
    measures them.
    """
    queries = np.asarray(queries)
    arrivals_s = np.asarray(arrivals_s, dtype=np.float64)
    if len(arrivals_s) != len(queries):
        raise ValueError(
            f"{len(arrivals_s)} arrivals != {len(queries)} queries"
        )
    if np.any(np.diff(arrivals_s) < 0):
        raise ValueError("arrivals must be sorted")
    n = len(queries)
    limit = frontend.config.admission_queue_limit
    obs = frontend.observer
    completion = np.full(n, np.nan)
    served = np.zeros(n, dtype=bool)
    batch_sizes: List[int] = []
    busy = 0.0
    shed = 0
    rejected = 0
    misses = 0
    degraded = 0
    retries = 0
    hedges = 0
    backoff = 0.0
    coverage_parts: List[np.ndarray] = []
    out_ids: Optional[np.ndarray] = None
    out_dist: Optional[np.ndarray] = None

    batcher = MicroBatcher(arrivals_s, policy)
    frontend_free_at = 0.0
    i = 0
    while i < n:
        batch = batcher.next_batch(i, frontend_free_at)
        members, launch, j = batch.members, batch.launch, batch.next_index
        if obs is not None:
            obs.on_queue_depth(len(members))
        if limit is not None and len(members) > limit:
            # Admission control: the oldest `limit` waiters keep their
            # slots; younger arrivals are rejected before queueing so
            # the backlog cannot grow without bound.
            dropped = len(members) - limit
            rejected += dropped
            if obs is not None:
                obs.on_admission_reject(dropped)
            members = members[:limit]
        if policy.deadline_s is not None and policy.overload_policy == "shed":
            viable = launch - arrivals_s[members] <= policy.deadline_s
            dropped = int(np.count_nonzero(~viable))
            shed += dropped
            if dropped and obs is not None:
                obs.on_shed(dropped)
            members = members[viable]
        if len(members) == 0:
            i = j
            continue
        res, rep = frontend.search(queries[members], execution=execution)
        if return_results:
            if out_ids is None:
                k = res.ids.shape[1]
                out_ids = np.full((n, k), -1, dtype=res.ids.dtype)
                out_dist = np.full((n, k), np.inf, dtype=res.distances.dtype)
            out_ids[members] = res.ids
            out_dist[members] = res.distances
        service = rep.e2e_seconds
        done = launch + service
        completion[members] = done
        served[members] = True
        busy += service
        frontend_free_at = done
        batch_sizes.append(len(members))
        if obs is not None:
            obs.on_serving_batch(len(members))
            for lat in done - arrivals_s[members]:
                obs.on_query_latency(float(lat))
        if policy.deadline_s is not None:
            new_misses = int(
                np.count_nonzero(
                    done - arrivals_s[members] > policy.deadline_s
                )
            )
            misses += new_misses
            if new_misses and obs is not None:
                obs.on_deadline_miss(new_misses)
        degraded += len(rep.degraded_queries)
        retries += rep.node_retries
        hedges += rep.hedged_requests
        backoff += rep.backoff_seconds
        coverage_parts.append(rep.coverage)
        i = j

    makespan = 0.0
    if served.any():
        makespan = float(completion[served].max() - arrivals_s.min())
    coverage = (
        np.concatenate(coverage_parts) if coverage_parts else np.ones(0)
    )
    report = ServingReport(
        latencies_s=(completion - arrivals_s)[served],
        batch_sizes=batch_sizes,
        busy_seconds=busy,
        makespan_s=makespan,
        shed_queries=shed,
        deadline_misses=misses,
        degraded_queries=degraded,
        node_retries=retries,
        backoff_seconds=backoff,
        admission_rejected=rejected,
        hedged_requests=hedges,
        dead_nodes=len(frontend.dead_nodes),
        mean_coverage=float(coverage.mean()) if len(coverage) else 1.0,
    )
    results = None
    if return_results and out_ids is not None:
        results = SearchResult(ids=out_ids, distances=out_dist)
    return ServingOutcome(
        report,
        metrics=obs.snapshot() if obs is not None else None,
        results=results,
    )
