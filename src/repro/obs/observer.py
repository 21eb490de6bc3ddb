"""The engine-facing observability surface.

:class:`EngineObserver` is the single object the engine, scheduler,
PIM system, and serving loop talk to. Each instrumentation site calls
one narrow ``on_*`` hook; the observer fans the event out to the
metric catalog below and (via its :class:`~repro.obs.spans.SpanRecorder`)
to the Chrome tracer. The engine holds ``Optional[EngineObserver]``,
so a disabled run pays exactly one ``is not None`` check per site —
that is the whole 2%-overhead story.

Metric catalog (all prefixed ``drimann_``):

===============================================  =========  ==========================
metric                                           kind       labels
===============================================  =========  ==========================
engine_queries_total                             counter
engine_batches_total                             counter
phase_seconds                                    histogram  phase (CL/RC/LC/DC/TS/…)
span_seconds                                     histogram  span, track
dpu_busy_cycles_total                            counter    dpu
scheduler_tasks_total                            counter    dpu
scheduler_predicted_cycles                       gauge      dpu
scheduler_deferred_total                         counter
scheduler_uncovered_total                        counter
scheduler_dead_dpus                              gauge
scheduler_failover_tasks_total                   counter
pim_kernel_cycles_total                          counter    kernel
pim_mram_bytes_total                             counter    direction, access
pim_dma_transactions_total                       counter
pim_wram_peak_bytes                              gauge
pim_transfer_seconds_total                       counter    op
pim_transfer_timeouts_total                      counter
pim_transient_retries_total                      counter
pim_failed_tasks_total                           counter
pim_plan_decisions_total                         counter    path
pim_pool_fallbacks_total                         counter    reason
faults_dead_dpus                                 gauge
faults_degraded_queries_total                    counter
faults_backoff_seconds_total                     counter
serving_queue_depth                              gauge
serving_batch_occupancy                          histogram
serving_shed_total                               counter
serving_deadline_misses_total                    counter
serving_latency_seconds                          sketch
index_load_seconds                               histogram  phase (open/assemble)
index_tombstone_ratio                            gauge
probes_executed                                  histogram
adaptive_stops_total                             counter    reason (bound/budget/exhausted)
===============================================  =========  ==========================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Tuple

from repro.obs.registry import MetricsRegistry, MetricsSnapshot
from repro.obs.spans import SpanRecorder

__all__ = ["ObsConfig", "EngineObserver"]

#: Buckets for batch occupancy (query counts, not seconds).
OCCUPANCY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)

#: Buckets for per-query executed probes (cluster counts, not seconds).
PROBE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


@dataclass(frozen=True)
class ObsConfig:
    """Switchboard for the observability layer.

    ``enabled=False`` (the default) means ``create()`` returns ``None``
    and the engine runs the uninstrumented fast path.
    """

    enabled: bool = False
    latency_accuracy: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.latency_accuracy < 1.0:
            raise ValueError(
                "latency_accuracy must be in (0, 1), got "
                f"{self.latency_accuracy}"
            )

    def create(
        self, tracer: Any = None, frequency_hz: float = 450e6
    ) -> Optional["EngineObserver"]:
        if not self.enabled:
            return None
        return EngineObserver(self, tracer=tracer, frequency_hz=frequency_hz)

    def to_dict(self) -> dict:
        return {
            "enabled": self.enabled,
            "latency_accuracy": self.latency_accuracy,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ObsConfig":
        return cls(**d)


class EngineObserver:
    """Fans instrumentation events out to metrics and trace spans."""

    def __init__(
        self,
        config: ObsConfig = ObsConfig(enabled=True),
        tracer: Any = None,
        frequency_hz: float = 450e6,
    ) -> None:
        self.config = config
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder(
            registry=self.registry, tracer=tracer, frequency_hz=frequency_hz
        )

    # ----- engine ----------------------------------------------------------
    def on_search_start(self, num_queries: int) -> None:
        self.registry.counter(
            "drimann_engine_queries_total", help="queries accepted by search()"
        ).inc(num_queries)

    def on_phase(self, phase: str, seconds: float, *, detail: str = "") -> None:
        """One modeled engine phase (CL, RC, LC, DC, TS, transfer, host)."""
        self.registry.histogram(
            "drimann_phase_seconds",
            help="modeled per-phase time per batch",
            phase=phase,
        ).observe(seconds)
        self.spans.record(phase, seconds, track=f"phase:{phase}", detail=detail)

    def on_batch(self) -> None:
        self.registry.counter(
            "drimann_engine_batches_total", help="PIM batches executed"
        ).inc()

    # ----- adaptive probing ------------------------------------------------
    def on_probes_executed(self, count: int) -> None:
        """Clusters actually scanned (and charged) for one query."""
        self.registry.histogram(
            "drimann_probes_executed",
            buckets=PROBE_BUCKETS,
            help="clusters scanned per query under adaptive probing",
        ).observe(float(count))

    def on_adaptive_stop(self, reason: str) -> None:
        """Why one query stopped probing (bound/budget/exhausted)."""
        self.registry.counter(
            "drimann_adaptive_stops_total",
            help="adaptive-probing stop decisions by reason",
            reason=reason,
        ).inc()

    # ----- index lifecycle -------------------------------------------------
    def on_index_load(self, phase: str, seconds: float) -> None:
        """One cold-start phase: ``open`` (mmap/decode) or ``assemble``."""
        self.registry.histogram(
            "drimann_index_load_seconds",
            help="cold-start time per load phase",
            phase=phase,
        ).observe(seconds)
        self.spans.record(phase, seconds, track="cold_start")

    def on_tombstones(self, ratio: float) -> None:
        """Current deleted fraction of the index (0 after compaction)."""
        self.registry.gauge(
            "drimann_index_tombstone_ratio",
            help="fraction of stored points that are tombstoned",
        ).set(ratio)

    # ----- scheduler -------------------------------------------------------
    def on_schedule(
        self,
        tasks_per_dpu: Iterable[Tuple[int, float]],
        predicted_cycles: Iterable[Tuple[int, float]],
        deferred: int,
        uncovered: int,
        dead_dpus: int,
    ) -> None:
        reg = self.registry
        for dpu, count in tasks_per_dpu:
            reg.counter(
                "drimann_scheduler_tasks_total",
                help="tasks assigned per DPU",
                dpu=dpu,
            ).inc(count)
        for dpu, cycles in predicted_cycles:
            reg.gauge(
                "drimann_scheduler_predicted_cycles",
                help="predicted cycle load per DPU for the last batch",
                dpu=dpu,
            ).set(cycles)
        if deferred:
            reg.counter(
                "drimann_scheduler_deferred_total",
                help="tasks deferred past the filter threshold",
            ).inc(deferred)
        if uncovered:
            reg.counter(
                "drimann_scheduler_uncovered_total",
                help="tasks with no live replica (coverage loss)",
            ).inc(uncovered)
        reg.gauge(
            "drimann_scheduler_dead_dpus",
            help="DPUs currently blacklisted by the scheduler",
        ).set(dead_dpus)

    def on_failover(self, num_tasks: int) -> None:
        self.registry.counter(
            "drimann_scheduler_failover_tasks_total",
            help="tasks re-issued on replica DPUs after faults",
        ).inc(num_tasks)

    # ----- PIM system ------------------------------------------------------
    def on_kernel(
        self, kernel: str, dpu: int, cycles: float, traffic: Any
    ) -> None:
        reg = self.registry
        reg.counter(
            "drimann_pim_kernel_cycles_total",
            help="DPU cycles charged per kernel",
            kernel=kernel,
        ).inc(cycles)
        reg.counter(
            "drimann_dpu_busy_cycles_total",
            help="busy cycles per DPU",
            dpu=dpu,
        ).inc(cycles)
        if traffic is not None:
            seq = traffic.sequential_read + traffic.sequential_write
            rnd = traffic.random_read + traffic.random_write
            if seq:
                reg.counter(
                    "drimann_pim_mram_bytes_total",
                    help="MRAM bytes moved",
                    direction="rw",
                    access="sequential",
                ).inc(seq)
            if rnd:
                reg.counter(
                    "drimann_pim_mram_bytes_total",
                    help="MRAM bytes moved",
                    direction="rw",
                    access="random",
                ).inc(rnd)
            if traffic.transactions:
                reg.counter(
                    "drimann_pim_dma_transactions_total",
                    help="MRAM<->WRAM DMA transactions",
                ).inc(traffic.transactions)

    def on_wram_peak(self, peak_bytes: float) -> None:
        g = self.registry.gauge(
            "drimann_pim_wram_peak_bytes",
            help="largest WRAM working set seen",
        )
        if peak_bytes > g.value:
            g.set(peak_bytes)

    def on_transfer(self, op: str, seconds: float) -> None:
        self.registry.counter(
            "drimann_pim_transfer_seconds_total",
            help="host<->DPU transfer time by operation",
            op=op,
        ).inc(seconds)
        self.spans.record(op, seconds, track="transfer")

    def on_transfer_timeout(self) -> None:
        self.registry.counter(
            "drimann_pim_transfer_timeouts_total",
            help="gather timeouts that forced a retry",
        ).inc()

    def on_transient_retry(self, num_tasks: int = 1) -> None:
        self.registry.counter(
            "drimann_pim_transient_retries_total",
            help="tasks retried after transient kernel faults",
        ).inc(num_tasks)

    def on_failed_tasks(self, num_tasks: int) -> None:
        self.registry.counter(
            "drimann_pim_failed_tasks_total",
            help="tasks lost to fail-stop DPUs in a batch",
        ).inc(num_tasks)

    def on_plan_decision(self, path: str) -> None:
        """Execution-planner choice for one round (vectorized/pool)."""
        self.registry.counter(
            "drimann_pim_plan_decisions_total",
            help="data-plane path chosen per compute_tasks call",
            path=path,
        ).inc()

    def on_pool_fallback(self, reason: str) -> None:
        """A worker-pool degradation to the in-process path (never silent)."""
        self.registry.counter(
            "drimann_pim_pool_fallbacks_total",
            help="pool failures/fallbacks to in-process execution",
            reason=reason,
        ).inc()

    # ----- faults ----------------------------------------------------------
    def on_faults(self, stats: Any) -> None:
        """Absorb a finalized FaultStats into gauges/counters."""
        if stats is None:
            return
        reg = self.registry
        reg.gauge(
            "drimann_faults_dead_dpus",
            help="DPUs observed dead by the fault layer",
        ).set(len(stats.dead_dpus))
        reg.counter(
            "drimann_faults_degraded_queries_total",
            help="queries answered with reduced cluster coverage",
        ).inc(len(stats.degraded_queries))
        reg.counter(
            "drimann_faults_backoff_seconds_total",
            help="time spent in failover backoff",
        ).inc(stats.backoff_seconds)

    # ----- serving ---------------------------------------------------------
    def on_queue_depth(self, depth: int) -> None:
        self.registry.gauge(
            "drimann_serving_queue_depth",
            help="queries waiting when a batch launched",
        ).set(depth)

    def on_serving_batch(self, occupancy: int) -> None:
        self.registry.histogram(
            "drimann_serving_batch_occupancy",
            buckets=OCCUPANCY_BUCKETS,
            help="queries per launched batch",
        ).observe(occupancy)

    def on_shed(self, num_queries: int = 1) -> None:
        self.registry.counter(
            "drimann_serving_shed_total",
            help="queries shed by the overload policy",
        ).inc(num_queries)

    def on_deadline_miss(self, num_queries: int = 1) -> None:
        self.registry.counter(
            "drimann_serving_deadline_misses_total",
            help="completed queries that missed the deadline",
        ).inc(num_queries)

    def on_admission_reject(self, num_queries: int = 1) -> None:
        self.registry.counter(
            "drimann_serving_admission_rejected_total",
            help="queries rejected up front by admission control",
        ).inc(num_queries)

    # ----- cluster ---------------------------------------------------------
    def on_node_retry(self, num_requests: int = 1) -> None:
        self.registry.counter(
            "drimann_cluster_node_retries_total",
            help="shard requests re-dispatched to another replica",
        ).inc(num_requests)

    def on_hedge(self, num_requests: int = 1) -> None:
        self.registry.counter(
            "drimann_cluster_hedges_total",
            help="hedged shard requests issued past the latency budget",
        ).inc(num_requests)

    def on_dead_nodes(self, num_nodes: int) -> None:
        self.registry.gauge(
            "drimann_cluster_dead_nodes",
            help="engine replicas blacklisted as crashed",
        ).set(num_nodes)

    def on_coverage(self, coverage: float) -> None:
        self.registry.gauge(
            "drimann_cluster_coverage",
            help="mean fraction of probes served in the last round",
        ).set(coverage)

    def on_query_latency(self, seconds: float) -> None:
        self.registry.sketch(
            "drimann_serving_latency_seconds",
            relative_accuracy=self.config.latency_accuracy,
            help="end-to-end per-query serving latency",
        ).add(seconds)

    # ----- export ----------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        return self.registry.snapshot()
