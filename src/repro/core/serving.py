"""Online serving simulation: arrivals, batching, per-query latency.

The paper evaluates batch throughput; a serving deployment (its RAG
motivation) cares about *per-query latency under load*. This module
closes that gap on top of the engine:

* :class:`PoissonArrivals` — an open-loop arrival process;
* :class:`BatchingPolicy` — queries queue and a batch launches when
  ``batch_size`` are waiting or the oldest has waited ``max_wait_s``
  (the standard size-or-timeout rule); ``batch_size=1`` turns
  coalescing off for A/B comparisons;
* :class:`MicroBatcher` — the window-formation rule itself, factored
  out so tests can drive it step by step;
* :func:`replay` — the serving loop shared with the rack tier: forms
  windows, sheds, charges each query queueing delay + its batch's
  modeled service time, and reports the latency distribution;
* :func:`simulate_serving` — :func:`replay` through one engine.

Coalescing only changes *when* queries run, never *what* they compute:
the engine's results are bit-identical for every round size (the
differential tests enforce this), so a policy ``batch_size`` of 64 and
of 1 return byte-for-byte equal ids/distances —
``simulate_serving(..., return_results=True)`` exposes them so tests
can prove it.

The PIM is single-tenant (host-synchronous): batches execute strictly
one after another, so a long batch delays everything behind it — tail
latency is where load imbalance hurts, which is why the balanced
engine's p99 improves far more than its mean.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.ann.ivfpq import SearchResult
from repro.core.engine import DrimAnnEngine
from repro.core.results import ServingOutcome
from repro.faults import FaultStats
from repro.utils import check_count, check_finite, ensure_rng


@dataclass(frozen=True)
class PoissonArrivals:
    """Open-loop Poisson arrival process."""

    rate_qps: float

    def __post_init__(self) -> None:
        if self.rate_qps <= 0:
            raise ValueError("rate_qps must be > 0")

    def sample(self, num_queries: int, seed=None) -> np.ndarray:
        """Sorted arrival timestamps (seconds) for ``num_queries``."""
        rng = ensure_rng(seed)
        gaps = rng.exponential(1.0 / self.rate_qps, size=num_queries)
        return np.cumsum(gaps)


@dataclass(frozen=True)
class BatchingPolicy:
    """Size-or-timeout batch formation, plus an optional deadline.

    ``deadline_s`` bounds a query's arrival→completion latency. Under
    overload (or after fault-recovery stalls) the engine falls behind;
    ``overload_policy`` picks what happens to queries that cannot meet
    the deadline:

    * ``"degrade"`` (default) — serve them anyway and count the miss;
    * ``"shed"`` — drop queries already past their deadline at batch
      launch (they could not possibly meet it), protecting the queries
      behind them.

    ``batch_size=1`` makes every arrival its own engine round, the
    no-batching baseline ``bench_serving_tail`` compares against.
    """

    batch_size: int = 64
    max_wait_s: float = 2e-3
    deadline_s: Optional[float] = None
    overload_policy: str = "degrade"

    def __post_init__(self) -> None:
        check_count(self.batch_size, "batch_size")
        if not self.max_wait_s >= 0:
            raise ValueError("max_wait_s must be >= 0")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError("deadline_s must be > 0 or None")
        if self.overload_policy not in ("degrade", "shed"):
            raise ValueError(
                f"overload_policy must be 'degrade' or 'shed', "
                f"got {self.overload_policy!r}"
            )


@dataclass(frozen=True)
class MicroBatch:
    """One formed micro-batch: who runs, when, and where the queue resumes."""

    members: np.ndarray  # query indices admitted to this round
    launch: float  # wall-clock time the round starts
    next_index: int  # first queue index the next window starts from


class MicroBatcher:
    """Applies a :class:`BatchingPolicy` window to a sorted arrival stream.

    Pure queue mechanics — no engine, no results. ``next_batch`` is
    deterministic given ``(i, engine_free_at)``, which lets the property
    tests step the window formation directly and assert invariants
    (members contiguous, launch >= every member's arrival, windows never
    overlap) without running searches.
    """

    def __init__(
        self, arrivals_s: np.ndarray, policy: BatchingPolicy
    ) -> None:
        self.arrivals_s = np.asarray(arrivals_s, dtype=np.float64)
        self.policy = policy

    def next_batch(self, i: int, engine_free_at: float) -> MicroBatch:
        """Form the batch whose oldest waiter is queue index ``i``."""
        arrivals_s = self.arrivals_s
        policy = self.policy
        n = len(arrivals_s)
        # Oldest waiter sets the timeout; a full batch may launch
        # earlier; a busy engine can only launch when it frees up.
        deadline = arrivals_s[i] + policy.max_wait_s
        k_full = i + policy.batch_size - 1
        if k_full < n and arrivals_s[k_full] <= deadline:
            launch = max(arrivals_s[k_full], engine_free_at)
            j = i + policy.batch_size
        else:
            launch = max(deadline, engine_free_at)
            j = i
            while (
                j < n
                and j - i < policy.batch_size
                and arrivals_s[j] <= launch
            ):
                j += 1
        return MicroBatch(np.arange(i, j), float(launch), j)


@dataclass
class ServingReport:
    """Latency distribution (and degradation ledger) of one serving run."""

    latencies_s: np.ndarray  # per served query, arrival -> results returned
    batch_sizes: List[int]
    busy_seconds: float  # total engine busy time
    makespan_s: float  # last completion - first arrival
    # Fault / overload accounting (zero on a healthy, unloaded run).
    shed_queries: int = 0  # dropped at launch under the shed policy
    deadline_misses: int = 0  # served but past deadline_s
    degraded_queries: int = 0  # served with partial cluster coverage
    task_retries: int = 0  # (query, shard) tasks re-dispatched
    transfer_timeouts: int = 0
    transient_faults: int = 0
    dead_dpus: int = 0  # distinct fail-stopped DPUs observed
    backoff_seconds: float = 0.0
    # Cluster-tier accounting (zero on single-engine runs).
    admission_rejected: int = 0  # turned away before queueing
    hedged_requests: int = 0  # shard requests hedged past the budget
    node_retries: int = 0  # shard requests failed over to a replica
    dead_nodes: int = 0  # engine replicas blacklisted as crashed
    mean_coverage: float = 1.0  # mean served-probe fraction per query

    @property
    def num_queries(self) -> int:
        """Queries actually served (shed queries are excluded)."""
        return len(self.latencies_s)

    @property
    def num_offered(self) -> int:
        """Queries that arrived, served, shed, or rejected."""
        return self.num_queries + self.shed_queries + self.admission_rejected

    def percentile_ms(self, q: float) -> float:
        if self.num_queries == 0:
            return 0.0
        return float(np.percentile(self.latencies_s, q) * 1e3)

    @property
    def mean_ms(self) -> float:
        if self.num_queries == 0:
            return 0.0
        return float(self.latencies_s.mean() * 1e3)

    @property
    def achieved_qps(self) -> float:
        if self.makespan_s <= 0:
            return float("inf")
        return self.num_queries / self.makespan_s

    @property
    def utilization(self) -> float:
        """Engine busy time / makespan."""
        if self.makespan_s <= 0:
            return 0.0
        return min(self.busy_seconds / self.makespan_s, 1.0)

    @property
    def degraded_fraction(self) -> float:
        """Served-with-partial-coverage fraction of offered queries."""
        if self.num_offered == 0:
            return 0.0
        return self.degraded_queries / self.num_offered

    @property
    def availability(self) -> float:
        """Fraction of offered queries served at full coverage."""
        if self.num_offered == 0:
            return 1.0
        return (self.num_queries - self.degraded_queries) / self.num_offered

    def to_dict(self) -> dict:
        """JSON-safe form for the CLI ``--json`` envelope."""
        return {
            "num_queries": self.num_queries,
            "num_offered": self.num_offered,
            "mean_ms": self.mean_ms,
            "p50_ms": self.percentile_ms(50),
            "p95_ms": self.percentile_ms(95),
            "p99_ms": self.percentile_ms(99),
            "achieved_qps": (
                None if self.makespan_s <= 0 else self.achieved_qps
            ),
            "utilization": self.utilization,
            "makespan_s": self.makespan_s,
            "busy_seconds": self.busy_seconds,
            "shed_queries": self.shed_queries,
            "deadline_misses": self.deadline_misses,
            "degraded_queries": self.degraded_queries,
            "task_retries": self.task_retries,
            "transfer_timeouts": self.transfer_timeouts,
            "transient_faults": self.transient_faults,
            "dead_dpus": self.dead_dpus,
            "backoff_seconds": self.backoff_seconds,
            "admission_rejected": self.admission_rejected,
            "hedged_requests": self.hedged_requests,
            "node_retries": self.node_retries,
            "dead_nodes": self.dead_nodes,
            "mean_coverage": self.mean_coverage,
            "availability": self.availability,
        }

    def summary(self) -> str:
        if self.num_offered == 0:
            return "0 queries"
        text = (
            f"{self.num_queries} queries: mean {self.mean_ms:.2f} ms, "
            f"p50 {self.percentile_ms(50):.2f} ms, "
            f"p95 {self.percentile_ms(95):.2f} ms, "
            f"p99 {self.percentile_ms(99):.2f} ms; "
            f"{self.achieved_qps:,.0f} QPS at {self.utilization:.0%} utilization"
        )
        if self.shed_queries or self.deadline_misses:
            text += (
                f"; {self.shed_queries} shed, "
                f"{self.deadline_misses} deadline misses"
            )
        if self.admission_rejected:
            text += f"; {self.admission_rejected} rejected by admission"
        if self.hedged_requests or self.node_retries or self.dead_nodes:
            text += (
                f"; cluster: {self.dead_nodes} dead nodes, "
                f"{self.node_retries} node retries, "
                f"{self.hedged_requests} hedges, "
                f"coverage {self.mean_coverage:.1%}"
            )
        if self.degraded_queries or self.dead_dpus or self.task_retries:
            text += (
                f"; faults: {self.dead_dpus} dead DPUs, "
                f"{self.task_retries} task retries, "
                f"{self.transient_faults} transients, "
                f"{self.transfer_timeouts} xfer timeouts, "
                f"{self.degraded_queries} degraded "
                f"(availability {self.availability:.1%})"
            )
        return text


def replay(
    queries: np.ndarray,
    arrivals_s: np.ndarray,
    policy: BatchingPolicy,
    run: Callable[[np.ndarray], Tuple[SearchResult, float]],
    obs,
    *,
    admission_limit: Optional[int] = None,
    return_results: bool = False,
) -> ServingOutcome:
    """Replay a timestamped query stream through ``run``.

    ``run(members)`` searches the queries at those arrival indices as
    one batch and returns ``(results, service_seconds)``; batches run
    strictly one after another. ``admission_limit`` rejects the
    youngest waiters past the limit at window formation, before the
    deadline shed at launch. ``obs`` (an observer or ``None``) gets the
    queue, shed and latency events. The report carries the queueing
    ledger only: callers add their fault ledgers to it.
    """
    queries = np.asarray(queries)
    arrivals_s = check_finite(
        np.asarray(arrivals_s, dtype=np.float64), "arrivals_s"
    )
    if len(arrivals_s) != len(queries):
        raise ValueError(
            f"{len(arrivals_s)} arrivals != {len(queries)} queries"
        )
    if np.any(np.diff(arrivals_s) < 0):
        raise ValueError("arrivals must be sorted")
    n = len(queries)
    completion = np.full(n, np.nan)
    served = np.zeros(n, dtype=bool)
    batch_sizes: List[int] = []
    busy = 0.0
    shed = 0
    rejected = 0
    misses = 0
    out_ids: Optional[np.ndarray] = None
    out_dist: Optional[np.ndarray] = None
    batcher = MicroBatcher(arrivals_s, policy)

    free_at = 0.0
    i = 0
    while i < n:
        batch = batcher.next_batch(i, free_at)
        members, launch, i = batch.members, batch.launch, batch.next_index
        if obs is not None:
            obs.on_queue_depth(len(members))
        if admission_limit is not None and len(members) > admission_limit:
            # Admission control: the oldest waiters keep their slots;
            # younger arrivals are rejected before queueing so the
            # backlog cannot grow without bound.
            dropped = len(members) - admission_limit
            rejected += dropped
            if obs is not None:
                obs.on_admission_reject(dropped)
            members = members[:admission_limit]
        if policy.deadline_s is not None and policy.overload_policy == "shed":
            # Queries already past their deadline at launch cannot
            # possibly meet it — drop them rather than slowing the
            # queue further.
            viable = launch - arrivals_s[members] <= policy.deadline_s
            dropped = int(np.count_nonzero(~viable))
            shed += dropped
            if dropped and obs is not None:
                obs.on_shed(dropped)
            members = members[viable]
        if len(members) == 0:
            continue
        res, service = run(members)
        if return_results:
            if out_ids is None:
                k = res.ids.shape[1]
                out_ids = np.full((n, k), -1, dtype=res.ids.dtype)
                out_dist = np.full((n, k), np.inf, dtype=res.distances.dtype)
            out_ids[members] = res.ids
            out_dist[members] = res.distances
        done = launch + service
        completion[members] = done
        served[members] = True
        busy += service
        free_at = done
        batch_sizes.append(len(members))
        latencies = done - arrivals_s[members]
        if obs is not None:
            obs.on_serving_batch(len(members))
            for lat in latencies:
                obs.on_query_latency(float(lat))
        if policy.deadline_s is not None:
            new_misses = int(np.count_nonzero(latencies > policy.deadline_s))
            misses += new_misses
            if new_misses and obs is not None:
                obs.on_deadline_miss(new_misses)

    makespan = 0.0
    if served.any():
        makespan = float(completion[served].max() - arrivals_s.min())
    report = ServingReport(
        latencies_s=(completion - arrivals_s)[served],
        batch_sizes=batch_sizes,
        busy_seconds=busy,
        makespan_s=makespan,
        shed_queries=shed,
        deadline_misses=misses,
        admission_rejected=rejected,
    )
    results = None
    if return_results and out_ids is not None:
        results = SearchResult(ids=out_ids, distances=out_dist)
    return ServingOutcome(
        report,
        metrics=obs.snapshot() if obs is not None else None,
        results=results,
    )


def simulate_serving(
    engine: DrimAnnEngine,
    queries: np.ndarray,
    arrivals_s: np.ndarray,
    policy: BatchingPolicy = BatchingPolicy(),
    *,
    with_scheduler: bool = True,
    return_results: bool = False,
) -> ServingOutcome:
    """Replay a timestamped query stream through the engine.

    Service times are the engine's modeled end-to-end batch times; the
    functional results are computed per micro-batch, so recall-affecting
    behavior is identical to offline runs. Each micro-batch runs in
    rounds of the engine's ``search_params.batch_size`` (one round
    under the default ``None``). ``return_results=True`` retains the
    results on ``outcome.results`` in arrival order (shed queries keep
    the -1/+inf fill) so callers can verify that coalescing never
    changes bits.

    Returns a :class:`~repro.core.results.ServingOutcome` wrapping the
    :class:`ServingReport` (attribute access forwards, so existing
    ``report.percentile_ms(99)``-style callers are unaffected) plus a
    metrics snapshot when the engine has observability enabled —
    including the streaming ``drimann_serving_latency_seconds``
    percentile sketch, which gives p50/p95/p99 without retaining the
    per-query latency array.
    """
    queries = np.asarray(queries)
    stats: List[FaultStats] = []

    def run(members: np.ndarray) -> Tuple[SearchResult, float]:
        res, bd = engine.search(queries[members], with_scheduler=with_scheduler)
        if bd.faults is not None:
            stats.append(bd.faults)
        return res, bd.e2e_seconds

    outcome = replay(
        queries, arrivals_s, policy, run, engine.observer,
        return_results=return_results,
    )
    outcome.report = replace(
        outcome.report,
        degraded_queries=sum(len(f.degraded_queries) for f in stats),
        task_retries=sum(f.task_retries for f in stats),
        transfer_timeouts=sum(f.transfer_timeouts for f in stats),
        transient_faults=sum(f.transient_faults for f in stats),
        dead_dpus=len(set().union(*(f.dead_dpus for f in stats))),
        backoff_seconds=sum(f.backoff_seconds for f in stats),
    )
    return outcome
