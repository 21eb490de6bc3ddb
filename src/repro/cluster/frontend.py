"""Scatter-gather frontend: deadlines, retries, hedging, failover.

The *control* half of the rack tier. One :class:`ClusterFrontend` owns
a :class:`~repro.cluster.index.ClusterIndex` and serves batched
searches by:

1. running **one global CL** against the routing index (charged once,
   like the single engine's host CL);
2. **scattering** each shard the probes it owns (the engine's explicit
   ``probes`` path — no shard re-runs CL);
3. gathering per-shard top-k and **merging** with the canonical
   ``(distance, id)`` tie-break, which is arrival-order invariant — so
   results are bit-identical to the single-engine oracle no matter how
   shard responses interleave.

The scatter-gather is a plain synchronous loop in **explicit
round-robin turns**, not an event loop. Every probed shard's request
is a generator that yields after each node call. Each turn advances
every pending shard once, in shard order, up to and including its next
node call (or to its response, when it has no call left to make); a
shard leaves the rotation once it has responded, and the loop ends when
all have. Shards that fail over or hedge therefore interleave one node
call at a time. The turn order fixes the raw ``failed_shards`` order
and the float summation order of ``backoff_seconds``, so it is part of
the determinism contract.

Robustness mechanics, all in **modeled** time (nothing sleeps or reads
a wall clock — see AL010):

* **deadline + retry/backoff** — a node that is crashed or partitioned
  costs one ``shard_deadline_s`` timeout, then the request fails over
  to the next live replica after a
  :class:`~repro.utils.backoff.BackoffPolicy` delay;
* **hedging** — when a healthy node's modeled response time exceeds
  ``hedge_after_s`` and the shard has another live replica, a hedge is
  issued there; replicas answer bit-identically, so the effective
  latency is the min of the two paths and the result is unchanged;
* **health tracking** — crashes blacklist a node permanently;
  repeated partition timeouts suspend it for
  ``suspend_rounds`` rounds (it may recover);
* **graceful degradation** — when every replica of a shard is down,
  the probes it owns are simply uncovered: affected queries return the
  best-of-the-rest with accurate per-query coverage, never an
  exception.

Determinism: node faults come pre-drawn from a seeded
:class:`~repro.faults.plan.NodeFaultPlan`; backoff jitter streams are
spawned in shard order at scatter time; the merge is order-canonical.
Two runs with the same seeds produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

import numpy as np

from repro.ann.ivfpq import SearchResult
from repro.cluster.index import ClusterIndex
from repro.core.adaptive import probe_budgets
from repro.core.params import ADAPTIVE_MODES
from repro.core.perf_model import HardwareProfile, host_cl_seconds
from repro.faults.plan import NodeFaultPlan
from repro.obs.observer import EngineObserver
from repro.utils import (
    BackoffPolicy,
    check_2d,
    check_operands,
    ensure_rng,
    merge_topk_pools,
    spawn_rngs,
)


@dataclass(frozen=True)
class FrontendConfig:
    """Frontend robustness knobs (times are modeled seconds)."""

    # A request to a dead/partitioned node is detected after this long.
    shard_deadline_s: float = 5e-3
    # Hedge to a second replica when the primary's modeled response
    # time exceeds this. None disables hedging.
    hedge_after_s: Optional[float] = 2e-3
    # Attempts per shard request across replicas (1 = no retry).
    max_attempts: int = 3
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    # Modeled per-request network round-trip.
    network_latency_s: float = 50e-6
    # Partition timeouts before a node is suspended, and for how long.
    suspend_after: int = 2
    suspend_rounds: int = 8
    # Admission control (used by the cluster serving loop): queries
    # beyond this many waiting at batch launch are rejected up front.
    # None disables admission control.
    admission_queue_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.shard_deadline_s <= 0:
            raise ValueError("shard_deadline_s must be > 0")
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise ValueError("hedge_after_s must be > 0 or None")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.network_latency_s < 0:
            raise ValueError("network_latency_s must be >= 0")
        if self.suspend_after < 1:
            raise ValueError("suspend_after must be >= 1")
        if self.suspend_rounds < 0:
            raise ValueError("suspend_rounds must be >= 0")
        if (
            self.admission_queue_limit is not None
            and self.admission_queue_limit < 1
        ):
            raise ValueError("admission_queue_limit must be >= 1 or None")


@dataclass
class ShardResponse:
    """One shard's answer to one scatter round (or its failure)."""

    shard_id: int
    query_rows: np.ndarray  # batch row indices this shard served
    ids: Optional[np.ndarray] = None  # (len(query_rows), k)
    distances: Optional[np.ndarray] = None
    latency_s: float = 0.0  # modeled scatter->response time
    attempts: int = 1
    hedged: bool = False
    failed: bool = False  # every replica down / attempts exhausted

    @property
    def ok(self) -> bool:
        return not self.failed


def merge_shard_results(
    responses: List[ShardResponse], num_queries: int, k: int
) -> SearchResult:
    """Merge per-shard top-k pools into global top-k.

    Pure and **order-invariant**: shards own disjoint cluster sets, so
    no candidate appears twice, and the canonical ``(distance, id)``
    tie-break makes the selection independent of the order responses
    arrive (the hypothesis property test permutes ``responses``).
    Failed responses contribute nothing; rows some shard never served
    keep the ``-1`` / ``+inf`` fill. Every served response is one block
    of rows folded by :func:`~repro.utils.merge_topk_pools`.
    """
    out_ids = np.full((num_queries, k), -1, dtype=np.int64)
    out_dist = np.full((num_queries, k), np.inf)
    served = [r for r in responses if r.ok and r.ids is not None]
    merge_topk_pools(
        out_ids,
        out_dist,
        np.concatenate([r.query_rows for r in served] or [np.empty(0, np.int64)]),
        np.concatenate([r.ids for r in served] or [np.empty((0, k), np.int64)]),
        np.concatenate([r.distances for r in served] or [np.empty((0, k))]),
    )
    return SearchResult(ids=out_ids, distances=out_dist)


@dataclass
class ClusterReport:
    """Per-round robustness ledger for one frontend search."""

    num_queries: int
    e2e_seconds: float  # global CL + slowest shard path
    cl_seconds: float
    shard_latencies_s: Dict[int, float] = field(default_factory=dict)
    coverage: np.ndarray = field(default_factory=lambda: np.ones(0))
    node_retries: int = 0
    hedged_requests: int = 0
    failed_shards: List[int] = field(default_factory=list)
    dead_nodes: List[int] = field(default_factory=list)
    backoff_seconds: float = 0.0

    @property
    def degraded_queries(self) -> List[int]:
        return [int(q) for q in np.flatnonzero(self.coverage < 1.0)]

    @property
    def mean_coverage(self) -> float:
        if len(self.coverage) == 0:
            return 1.0
        return float(self.coverage.mean())

    def to_dict(self) -> dict:
        return {
            "num_queries": self.num_queries,
            "e2e_seconds": self.e2e_seconds,
            "cl_seconds": self.cl_seconds,
            "shard_latencies_s": {
                str(s): lat for s, lat in sorted(self.shard_latencies_s.items())
            },
            "mean_coverage": self.mean_coverage,
            "degraded_queries": self.degraded_queries,
            "node_retries": self.node_retries,
            "hedged_requests": self.hedged_requests,
            "failed_shards": sorted(self.failed_shards),
            "dead_nodes": sorted(self.dead_nodes),
            "backoff_seconds": self.backoff_seconds,
        }


@dataclass
class ClusterOutcome:
    """Results + report; unpacks like ``(results, report)``."""

    results: SearchResult
    report: ClusterReport

    def __iter__(self):
        return iter((self.results, self.report))


class _NodeCall:
    """Outcome of one modeled RPC to one node."""

    __slots__ = ("ok", "kind", "latency_s", "ids", "distances")

    def __init__(self, ok, kind, latency_s, ids=None, distances=None):
        self.ok = ok
        self.kind = kind  # "ok" | "crash" | "partition"
        self.latency_s = latency_s
        self.ids = ids
        self.distances = distances


class ClusterFrontend:
    """Round-robin scatter-gather over a :class:`ClusterIndex`.

    Synchronous: :meth:`search` runs every shard request to completion
    in explicit turns before it returns, so it is safe to call from any
    context, including inside a running event loop.

    Stateful across calls: the round counter (which indexes the node
    fault plan), node health (crash blacklist, partition suspensions),
    and cumulative retry/hedge counters live on the frontend, exactly
    like the engine's scheduler keeps its DPU blacklist.
    """

    def __init__(
        self,
        cluster: ClusterIndex,
        config: FrontendConfig = FrontendConfig(),
        *,
        node_faults: Optional[NodeFaultPlan] = None,
        observer: Optional[EngineObserver] = None,
        cpu_profile: Optional[HardwareProfile] = None,
        seed=None,
    ) -> None:
        if node_faults is not None and node_faults.num_nodes != cluster.num_nodes:
            raise ValueError(
                f"node fault plan covers {node_faults.num_nodes} nodes but "
                f"the cluster has {cluster.num_nodes}"
            )
        self.cluster = cluster
        self.config = config
        self.node_faults = node_faults
        self.observer = observer
        self.cpu_profile = cpu_profile or HardwareProfile.for_cpu()
        self._rng = ensure_rng(seed)
        self.round_index = 0
        # Health: crashes are permanent; partitions suspend temporarily.
        self.dead_nodes: set = set()
        self._consecutive_failures: Dict[int, int] = {}
        self._suspended_until: Dict[int, int] = {}

    # ----- health ----------------------------------------------------------
    def _node_available(self, node_id: int) -> bool:
        if node_id in self.dead_nodes:
            return False
        until = self._suspended_until.get(node_id)
        return until is None or self.round_index >= until

    def _note_failure(self, node_id: int, kind: str) -> None:
        if kind == "crash":
            self.dead_nodes.add(node_id)
            return
        fails = self._consecutive_failures.get(node_id, 0) + 1
        self._consecutive_failures[node_id] = fails
        if fails >= self.config.suspend_after:
            self._suspended_until[node_id] = (
                self.round_index + 1 + self.config.suspend_rounds
            )
            self._consecutive_failures[node_id] = 0

    def _note_success(self, node_id: int) -> None:
        self._consecutive_failures[node_id] = 0

    def _replica_order(self, shard_id: int) -> List[int]:
        """Live replicas of a shard, primary rotated by round."""
        reps = self.cluster.replication
        rotation = self.round_index % reps
        order = [
            self.cluster.node_id(shard_id, (rotation + i) % reps)
            for i in range(reps)
        ]
        return [n for n in order if self._node_available(n)]

    # ----- modeled RPC -----------------------------------------------------
    def _call_node(
        self,
        node_id: int,
        queries: np.ndarray,
        probes_local: np.ndarray,
        adaptive: Optional[str] = None,
    ) -> _NodeCall:
        """One modeled request/response to one node."""
        deadline = self.config.shard_deadline_s
        if self.node_faults is not None:
            if self.node_faults.crashed_at(node_id, self.round_index):
                return _NodeCall(False, "crash", deadline)
            if self.node_faults.partitioned_at(node_id, self.round_index):
                return _NodeCall(False, "partition", deadline)
        engine = self.cluster.node_engine(node_id)
        res, bd = engine.search(
            queries, probes=probes_local, adaptive=adaptive
        )
        slow = (
            1.0
            if self.node_faults is None
            else self.node_faults.slow_factor_of(node_id)
        )
        latency = self.config.network_latency_s + bd.e2e_seconds * slow
        return _NodeCall(True, "ok", latency, res.ids, res.distances)

    def _query_shard(
        self,
        shard_id: int,
        query_rows: np.ndarray,
        queries: np.ndarray,
        probes_local: np.ndarray,
        adaptive: Optional[str],
        backoff_seed,
        report: ClusterReport,
    ) -> Generator[None, None, ShardResponse]:
        """Scatter one shard's share: retries, failover, hedging.

        A generator that yields after every node call, ending the
        shard's turn (see :meth:`_scatter_gather`), and returns the
        shard's :class:`ShardResponse`.
        """
        cfg = self.config
        retries = cfg.backoff.sequence(seed=backoff_seed)
        elapsed = 0.0
        attempts = 0
        candidates = self._replica_order(shard_id)
        while candidates and attempts < cfg.max_attempts:
            node = candidates.pop(0)
            attempts += 1
            if attempts > 1:
                # Failover pause before re-dispatching elsewhere.
                pause = retries.next_delay()
                elapsed += pause
                report.backoff_seconds += pause
                report.node_retries += 1
                if self.observer is not None:
                    self.observer.on_node_retry()
            call = self._call_node(node, queries, probes_local, adaptive)
            yield  # end of this shard's turn
            if not call.ok:
                self._note_failure(node, call.kind)
                elapsed += call.latency_s  # one deadline burned detecting it
                candidates = [
                    n for n in candidates if self._node_available(n)
                ]
                continue
            self._note_success(node)
            latency = call.latency_s
            hedged = False
            if (
                cfg.hedge_after_s is not None
                and latency > cfg.hedge_after_s
            ):
                # The primary is past its budget: race a second replica
                # (bit-identical answers make the responses
                # interchangeable) and keep whichever path is faster.
                hedge_nodes = [
                    n
                    for n in self._replica_order(shard_id)
                    if n != node
                ]
                if hedge_nodes:
                    hedge = self._call_node(
                        hedge_nodes[0], queries, probes_local, adaptive
                    )
                    yield
                    hedged = True
                    report.hedged_requests += 1
                    if self.observer is not None:
                        self.observer.on_hedge()
                    if hedge.ok:
                        self._note_success(hedge_nodes[0])
                        latency = min(
                            latency, cfg.hedge_after_s + hedge.latency_s
                        )
                    else:
                        self._note_failure(hedge_nodes[0], hedge.kind)
            return ShardResponse(
                shard_id=shard_id,
                query_rows=query_rows,
                ids=call.ids,
                distances=call.distances,
                latency_s=elapsed + latency,
                attempts=attempts,
                hedged=hedged,
            )
        # Every replica down (or attempts exhausted): degrade, don't raise.
        report.failed_shards.append(shard_id)
        return ShardResponse(
            shard_id=shard_id,
            query_rows=query_rows,
            latency_s=elapsed,
            attempts=attempts,
            failed=True,
        )

    def _scatter_gather(
        self,
        queries: np.ndarray,
        probes: np.ndarray,
        adaptive: Optional[str],
        report: ClusterReport,
    ) -> List[ShardResponse]:
        """Run every probed shard's request to completion.

        In the round-robin turns the module docstring sets out: one
        node call per pending shard per turn, in shard order. Responses
        come back in shard order.
        """
        pending = []
        # One independent backoff-jitter stream per shard, in shard
        # order, freshly derived each round from the frontend's RNG.
        seeds = spawn_rngs(self._rng, self.cluster.num_shards)
        for shard in self.cluster.shards:
            lp = shard.local_probes(probes)
            rows = np.flatnonzero((lp >= 0).any(axis=1))
            if len(rows) == 0:
                continue
            pending.append(
                self._query_shard(
                    shard.shard_id,
                    rows,
                    queries[rows],
                    lp[rows],
                    adaptive,
                    seeds[shard.shard_id],
                    report,
                )
            )
        responses: Dict[int, ShardResponse] = {}
        turn = dict(enumerate(pending))
        while turn:
            for slot, shard_turns in list(turn.items()):
                try:
                    next(shard_turns)
                except StopIteration as done:
                    responses[slot] = done.value
                    del turn[slot]
        return [responses[slot] for slot in range(len(pending))]

    # ----- public search ---------------------------------------------------
    def search(
        self,
        queries: np.ndarray,
        *,
        adaptive: Optional[str] = None,
    ) -> ClusterOutcome:
        """Batched cluster top-k; one fault-plan round per call.

        Bit-identical to
        :meth:`ClusterIndex.oracle_search` whenever every probed shard
        answered (always true with all replicas up, and still true
        under any fault pattern that leaves >= 1 replica per shard).

        ``adaptive`` composes the engine-level modes with the rack's
        ``probes=`` routing: ``"budget"``/``"full"`` compute per-query
        probe budgets from the *global* router distances here and
        truncate the probe matrix before scattering (shards never see
        the dropped clusters), while ``"bound"``/``"full"`` additionally
        run each shard with bound-based early termination — each
        shard's skip decisions are locally conservative, and therefore
        globally safe, because its pool is a subset of the global one.
        ``"bound"`` alone keeps results bit-identical to ``adaptive=None``.

        Queries are validated like :meth:`DrimAnnEngine.search`'s: NaN
        or infinite values, fractions and values outside the router's
        operand range raise ``ValueError`` naming ``queries``.
        """
        queries = check_2d(queries, "queries")
        if queries.shape[1] != self.cluster.router.dim:
            raise ValueError(
                f"query dim {queries.shape[1]} != "
                f"index dim {self.cluster.router.dim}"
            )
        queries = check_operands(
            queries, self.cluster.router.centroids.dtype, "queries"
        )
        if adaptive is not None and adaptive not in ADAPTIVE_MODES:
            raise ValueError(
                f"adaptive must be one of {ADAPTIVE_MODES}, got {adaptive!r}"
            )
        nq = queries.shape[0]
        params = self.cluster.params
        if adaptive in ("budget", "full") and nq:
            probes, rr = self.cluster.locate_with_distances(queries)
            if probes.shape[1] > 1:
                # The nodes' own budget knobs, so a rack and a single
                # engine with the same SearchParams cut alike.
                sp = self.cluster.node_engine(0).search_params
                budgets = probe_budgets(rr, sp.nprobe_min, sp.adaptive_gap)
                probes = probes.copy()
                probes[
                    budgets[:, None] <= np.arange(probes.shape[1])[None, :]
                ] = -1
        else:
            probes = self.cluster.locate(queries)
        # Shard-level mode: budgets were applied globally above, so the
        # shards only ever add bound-based (exact) termination.
        shard_adaptive = {
            None: None,
            "off": "off",
            "bound": "bound",
            "budget": "off",
            "full": "bound",
        }[adaptive]
        cl_s = host_cl_seconds(self.cluster.params, self.cluster.router, nq, self.cpu_profile)

        report = ClusterReport(
            num_queries=nq, e2e_seconds=0.0, cl_seconds=cl_s
        )
        responses = self._scatter_gather(
            queries, probes, shard_adaptive, report
        )

        results = merge_shard_results(responses, nq, params.k)

        # Coverage: which of each query's nprobe probes reached a live
        # shard. Failed shards drop exactly the probes they own;
        # budget-truncated (-1) slots were never requested and stay
        # covered.
        covered = np.ones(probes.shape, dtype=bool)
        responded = {r.shard_id for r in responses if r.ok}
        requested = probes >= 0
        probe_owner = self.cluster.owner[np.maximum(probes, 0)]
        for shard in self.cluster.shards:
            if shard.shard_id not in responded:
                covered &= (probe_owner != shard.shard_id) | ~requested
        report.coverage = covered.mean(axis=1)
        for resp in responses:
            report.shard_latencies_s[resp.shard_id] = resp.latency_s
        report.e2e_seconds = cl_s + max(
            (r.latency_s for r in responses), default=0.0
        )
        report.dead_nodes = sorted(self.dead_nodes)

        obs = self.observer
        if obs is not None:
            obs.on_dead_nodes(len(self.dead_nodes))
            obs.on_coverage(report.mean_coverage)

        self.round_index += 1
        return ClusterOutcome(results=results, report=report)
