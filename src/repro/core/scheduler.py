"""Runtime query scheduling (§IV-D), extended with fault awareness.

At batch time each located (query, cluster) pair must be mapped to
concrete DPU tasks. Because hot clusters are replicated, there is a
choice — and because DPU execution ends with the slowest DPU, the
choice matters.

Two components, as in the paper:

* **Predictor** — Eq. 15 models a task's latency on a DPU as
  ``l_LUT + x * l_calu + x * l_sortu`` (LUT build plus per-point scan
  and sort over the shard's ``x`` points). The scheduler walks the
  batch's tasks and assigns each (query, cluster) to the replica group
  whose maximum member-DPU predicted load is smallest, then adds the
  group's per-part latency to those DPUs.
* **Filter** — after assignment, DPUs predicted to run much longer
  than average have some of their tasks deferred into the next batch
  (a DPU slow in this batch is not necessarily slow in the next). The
  engine carries deferred tasks forward and merges their results when
  they eventually execute.

Fault awareness (see :mod:`repro.faults`) adds two pieces of state:

* a **blacklist** of fail-stopped DPUs (:meth:`RuntimeScheduler.mark_dead`)
  — blacklisted DPUs never appear in assignments again; replica groups
  with a dead member are skipped, and when no group survives intact the
  scheduler assembles a mixed group part-by-part from live replicas
  (parts are row-aligned across replicas, so mixing is sound);
* per-DPU **speed factors** (:meth:`RuntimeScheduler.set_speed_factors`)
  — the predictor divides Eq. 15 latency by the DPU's derated relative
  frequency, so stragglers attract proportionally less work.

A (query, cluster) task whose parts cannot all be covered by live
replicas is returned in :attr:`ScheduleOutcome.uncovered`; the engine
serves what it can and flags the query degraded instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.layout import LayoutPlan


@dataclass(frozen=True)
class SchedulerConfig:
    """Runtime-scheduling knobs."""

    # Eq. 15 coefficients, in DPU cycles.
    lut_latency: float = 0.0  # l_LUT — set from index shape by the engine
    per_point_calc: float = 0.0  # l_calu
    per_point_sort: float = 0.0  # l_sortu
    # Filter: defer tasks from DPUs whose predicted load exceeds
    # (threshold x mean predicted load). None disables the filter.
    filter_threshold: Optional[float] = 1.5
    # Cap on the fraction of a batch's tasks the filter may defer
    # (avoids starving queries under extreme skew).
    max_defer_fraction: float = 0.25
    # Policy: "predictor" (paper), or "static" (always replica 0,
    # round-robin parts — the no-scheduling baseline).
    policy: str = "predictor"

    def __post_init__(self) -> None:
        if self.policy not in ("predictor", "static"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.filter_threshold is not None and self.filter_threshold <= 1.0:
            raise ValueError("filter_threshold must be > 1.0 or None")
        if not 0.0 <= self.max_defer_fraction <= 1.0:
            raise ValueError("max_defer_fraction must be in [0, 1]")


@dataclass
class ScheduleOutcome:
    """One batch's assignment."""

    assignments: Dict[int, List[Tuple[int, str]]]  # dpu -> [(query, shard)]
    deferred: List[Tuple[int, int]]  # [(query, cluster)] for next batch
    predicted_load: np.ndarray  # (num_dpus,) predicted cycles (speed-weighted)
    # Tasks with at least one part that no live replica covers; the
    # covered parts (if any) are still assigned.
    uncovered: List[Tuple[int, int]] = field(default_factory=list)


class RuntimeScheduler:
    """Maps (query, cluster) tasks to per-DPU (query, shard) tasks."""

    def __init__(self, plan: LayoutPlan, config: SchedulerConfig) -> None:
        self.plan = plan
        self.config = config
        self._dead: Set[int] = set()
        self._speed = np.ones(plan.num_dpus)
        # Optional repro.obs.EngineObserver (set by the engine).
        self.observer = None
        # Pre-compute per-replica-group (dpu, latency) footprints.
        self._group_info: Dict[int, List[List[Tuple[int, str, float]]]] = {}
        for cid, groups in plan.replica_groups.items():
            infos = []
            for group in groups:
                info = []
                for key in group:
                    shard = plan.shards[key]
                    lat = (
                        config.lut_latency
                        + shard.num_points
                        * (config.per_point_calc + config.per_point_sort)
                    )
                    info.append((plan.placement[key], key, lat))
                infos.append(info)
            self._group_info[cid] = infos
        # Per-cluster latency footprint (group 0; replicas are
        # identical), precomputed once — schedule_batch sorts every
        # batch's tasks by it, and with whole-matrix rounds a single
        # call sees the whole query matrix's tasks.
        self._group_cost: Dict[int, float] = {
            cid: sum(l for _, _, l in infos[0])
            for cid, infos in self._group_info.items()
        }

    # ----- fault state ------------------------------------------------------
    @property
    def dead_dpus(self) -> Set[int]:
        """Blacklisted (fail-stopped) DPUs."""
        return set(self._dead)

    def mark_dead(self, dpu_ids: Iterable[int]) -> None:
        """Permanently blacklist DPUs; they never get assignments again."""
        for d in dpu_ids:
            if not 0 <= d < self.plan.num_dpus:
                raise ValueError(
                    f"dpu_id {d} out of range [0, {self.plan.num_dpus})"
                )
            self._dead.add(int(d))

    @property
    def speed_factors(self) -> np.ndarray:
        """Per-DPU relative speed (1.0 = nominal clock)."""
        return self._speed.copy()

    def set_speed_factors(self, factors: np.ndarray) -> None:
        """Re-weight the predictor for derated (straggler) DPUs."""
        factors = np.asarray(factors, dtype=np.float64)
        if factors.shape != (self.plan.num_dpus,):
            raise ValueError(
                f"speed factors must have shape ({self.plan.num_dpus},), "
                f"got {factors.shape}"
            )
        if np.any(factors <= 0) or np.any(factors > 1):
            raise ValueError("speed factors must be in (0, 1]")
        self._speed = factors.copy()

    def adopt_fault_state(self, other: "RuntimeScheduler") -> None:
        """Copy blacklist + speed factors (drain/ablation schedulers).

        The observer rides along so drain and ablation schedulers keep
        feeding the same metrics as the scheduler they replace.
        """
        self._dead = set(other._dead)
        self._speed = other._speed.copy()
        self.observer = other.observer

    def _alive(self, dpu_id: int) -> bool:
        return dpu_id not in self._dead

    # ----- prediction -------------------------------------------------------
    def task_latency(self, num_points: int) -> float:
        """Eq. 15 for one shard of ``num_points`` points."""
        c = self.config
        return c.lut_latency + num_points * (c.per_point_calc + c.per_point_sort)

    def _cost_on(self, dpu_id: int, lat: float) -> float:
        """Predicted cycles of a part on a DPU, at that DPU's clock."""
        return lat / self._speed[dpu_id]

    # ----- scheduling -------------------------------------------------------
    def schedule_batch(
        self, tasks: Sequence[Tuple[int, int]]
    ) -> ScheduleOutcome:
        """Assign a batch of (query_index, cluster_id) tasks.

        Tasks are processed hottest-cluster-first (largest latency
        footprint first), the classic greedy makespan heuristic.

        Precondition: task tuples are unique within a batch (the engine
        guarantees this — a query's probed clusters are distinct, and
        deferred tasks carry different query indices).
        """
        num_dpus = self.plan.num_dpus
        load = np.zeros(num_dpus)
        assignments: Dict[int, List[Tuple[int, str]]] = {
            d: [] for d in range(num_dpus)
        }
        uncovered: List[Tuple[int, int]] = []
        # Sort descending by precomputed cluster footprint.
        group_cost = self._group_cost
        ordered = sorted(tasks, key=lambda t: -group_cost[t[1]])

        task_record: List[Tuple[int, int, List[Tuple[int, str, float]]]] = []
        for qidx, cid in ordered:
            groups = self._group_info[cid]
            if self._dead:
                alive_groups = [
                    g for g in groups if all(self._alive(d) for d, _, _ in g)
                ]
            else:
                alive_groups = groups
            if alive_groups:
                if self.config.policy == "static":
                    chosen = alive_groups[0]
                else:
                    # Pick the replica group minimizing the resulting
                    # max member-DPU load.
                    best_val = None
                    chosen = alive_groups[0]
                    for info in alive_groups:
                        val = max(
                            load[d] + self._cost_on(d, lat)
                            for d, _, lat in info
                        )
                        if best_val is None or val < best_val:
                            best_val = val
                            chosen = info
            else:
                # No replica group survives intact: assemble a mixed
                # group part-by-part. Parts are row-aligned across
                # replicas, so replica r's part p covers exactly the
                # same points as replica r''s part p.
                chosen, missing = self._salvage_parts(cid, load)
                if missing:
                    uncovered.append((qidx, cid))
                if not chosen:
                    continue
            for d, key, lat in chosen:
                assignments[d].append((qidx, key))
                load[d] += self._cost_on(d, lat)
            task_record.append((qidx, cid, chosen))

        deferred: List[Tuple[int, int]] = []
        cfg = self.config
        if cfg.filter_threshold is not None and len(ordered) > 1:
            mean_load = load.mean()
            if mean_load > 0:
                hot_dpus = set(
                    np.flatnonzero(load > cfg.filter_threshold * mean_load)
                )
                if hot_dpus:
                    max_defer = int(cfg.max_defer_fraction * len(ordered))
                    # Walk tasks smallest-footprint-last (they were
                    # assigned last and removing them frees exactly the
                    # load we added); defer tasks touching hot DPUs.
                    for qidx, cid, info in reversed(task_record):
                        if len(deferred) >= max_defer:
                            break
                        touched = {d for d, _, _ in info}
                        if touched & hot_dpus:
                            still_hot = False
                            for d, key, lat in info:
                                load[d] -= self._cost_on(d, lat)
                                assignments[d].remove((qidx, key))
                                if load[d] > cfg.filter_threshold * mean_load:
                                    still_hot = True
                            deferred.append((qidx, cid))
                            if not still_hot:
                                hot_dpus = set(
                                    np.flatnonzero(
                                        load > cfg.filter_threshold * mean_load
                                    )
                                )
                                if not hot_dpus:
                                    break

        outcome = ScheduleOutcome(
            assignments={d: a for d, a in assignments.items() if a},
            deferred=deferred,
            predicted_load=load,
            uncovered=uncovered,
        )
        if self.observer is not None:
            self.observer.on_schedule(
                tasks_per_dpu=[
                    (d, len(a)) for d, a in sorted(outcome.assignments.items())
                ],
                predicted_cycles=[
                    (d, float(load[d])) for d in sorted(outcome.assignments)
                ],
                deferred=len(deferred),
                uncovered=len(uncovered),
                dead_dpus=len(self._dead),
            )
        return outcome

    def _salvage_parts(
        self, cid: int, load: np.ndarray
    ) -> Tuple[List[Tuple[int, str, float]], int]:
        """Per-part live-replica selection when no group is intact.

        Returns (chosen parts, number of parts with no live replica).
        """
        groups = self._group_info[cid]
        num_parts = len(groups[0])
        chosen: List[Tuple[int, str, float]] = []
        missing = 0
        for p in range(num_parts):
            options = [g[p] for g in groups if self._alive(g[p][0])]
            if not options:
                missing += 1
                continue
            best = min(
                options,
                key=lambda o: (load[o[0]] + self._cost_on(o[0], o[2]), o[0]),
            )
            chosen.append(best)
        return chosen, missing

    # ----- failover ---------------------------------------------------------
    def failover_assignments(
        self, failed: Sequence[Tuple[int, str]]
    ) -> Tuple[Dict[int, List[Tuple[int, str]]], List[Tuple[int, int]]]:
        """Re-dispatch failed (query, shard) tasks to live replicas.

        Failover is part-exact: a failed shard re-runs as the same part
        of another replica (row-aligned), so merged top-k pools never
        double-count a point. Returns ``(assignments, uncovered)``
        where ``uncovered`` lists (query, cluster) tasks whose part has
        no surviving replica.
        """
        assignments: Dict[int, List[Tuple[int, str]]] = {}
        uncovered: List[Tuple[int, int]] = []
        load = np.zeros(self.plan.num_dpus)
        for qidx, key in failed:
            shard = self.plan.shards[key]
            groups = self._group_info[shard.cluster_id]
            options = [
                g[shard.part_id]
                for g in groups
                if self._alive(g[shard.part_id][0])
            ]
            if not options:
                uncovered.append((qidx, shard.cluster_id))
                continue
            d, new_key, lat = min(
                options,
                key=lambda o: (load[o[0]] + self._cost_on(o[0], o[2]), o[0]),
            )
            assignments.setdefault(d, []).append((qidx, new_key))
            load[d] += self._cost_on(d, lat)
        if self.observer is not None and assignments:
            self.observer.on_failover(
                sum(len(t) for t in assignments.values())
            )
        return assignments, uncovered
