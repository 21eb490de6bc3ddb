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
  they eventually execute; what is left after the last batch runs in
  one filter-off drain round on the same scheduler.

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
    """Maps (query, cluster) tasks to per-DPU (query, shard) tasks.

    ``lut_weight`` and ``point_weight`` are Eq. 15's task costs (see
    :func:`repro.core.layout.task_cost_weights`)."""

    def __init__(
        self,
        plan: LayoutPlan,
        config: SchedulerConfig,
        lut_weight: float,
        point_weight: float,
    ) -> None:
        self.plan = plan
        self.config = config
        self.lut_weight = lut_weight
        self.point_weight = point_weight
        self._dead: Set[int] = set()
        # Per-DPU relative speed, as Python floats: the assignment loops
        # read it per part, and a NumPy scalar read costs several times
        # a list read for the same IEEE value.
        self._speed: List[float] = [1.0] * plan.num_dpus
        # Optional repro.obs.EngineObserver (set by the engine).
        self.observer = None
        # Per-replica-group (dpu, key, latency) footprints and the
        # per-cluster latency footprint (group 0; replicas are
        # identical) — schedule_batch sorts every round's tasks by it.
        self._group_info: Dict[int, List[List[Tuple[int, str, float]]]] = {}
        self._group_cost: Dict[int, float] = {}
        self.refresh_clusters(plan.replica_groups)

    def refresh_clusters(self, cluster_ids: Iterable[int]) -> None:
        """Recompute the clusters' group footprints from their shards'
        current sizes (after an append grew them)."""
        plan, lat = self.plan, self.task_latency
        for cid in cluster_ids:
            infos = [
                [(plan.placement[k], k, lat(plan.shards[k].num_points)) for k in group]
                for group in plan.replica_groups[cid]
            ]
            self._group_info[cid] = infos
            self._group_cost[cid] = sum(l for _, _, l in infos[0])

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
        return np.array(self._speed)

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
        self._speed = factors.tolist()

    # ----- prediction -------------------------------------------------------
    def task_latency(self, num_points: int) -> float:
        """Eq. 15 for one shard of ``num_points`` points."""
        return self.lut_weight + num_points * self.point_weight

    # ----- scheduling -------------------------------------------------------
    def schedule_batch(
        self,
        tasks: Sequence[Tuple[int, int]],
        *,
        static: bool = False,
        defer: bool = True,
    ) -> ScheduleOutcome:
        """Assign a batch of (query_index, cluster_id) tasks.

        Tasks are processed hottest-cluster-first (largest latency
        footprint first), the classic greedy makespan heuristic.

        The engine sets the two flags from the round kind: ``static``
        forces the static policy for this call (the ablation arm), and
        ``defer=False`` switches the filter off, so nothing is deferred
        (the drain round, and the ablation arm).

        Precondition: task tuples are unique within a batch (the engine
        guarantees this — a query's probed clusters are distinct, and
        deferred tasks carry different query indices).
        """
        num_dpus = self.plan.num_dpus
        # Loads and speeds are Python floats: the same IEEE operations
        # in the same order as on float64 arrays, at list-read cost.
        load = [0.0] * num_dpus
        speed = self._speed
        dead = self._dead
        static = static or self.config.policy == "static"
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
            if dead:
                groups = [
                    g for g in groups if not any(d in dead for d, _, _ in g)
                ]
            if not groups:
                # No replica group survives intact: assemble a mixed
                # group part-by-part. Parts are row-aligned across
                # replicas, so replica r's part p covers exactly the
                # same points as replica r''s part p.
                chosen, missing = self._salvage_parts(cid, load)
                if missing:
                    uncovered.append((qidx, cid))
                if not chosen:
                    continue
            elif static or len(groups) == 1:
                chosen = groups[0]
            else:
                # Pick the replica group minimizing the resulting max
                # member-DPU load (the first such group on a tie).
                chosen = groups[0]
                best_val = None
                for info in groups:
                    val = None
                    for d, _, lat in info:
                        v = load[d] + lat / speed[d]
                        if val is None or v > val:
                            val = v
                    if best_val is None or val < best_val:
                        best_val = val
                        chosen = info
            for d, key, lat in chosen:
                assignments[d].append((qidx, key))
                load[d] += lat / speed[d]
            task_record.append((qidx, cid, chosen))

        deferred: List[Tuple[int, int]] = []
        cfg = self.config
        if defer and cfg.filter_threshold is not None and len(ordered) > 1:
            # np.mean's pairwise sum, as over the float64 load array.
            mean_load = float(np.mean(load))
            if mean_load > 0:
                limit = cfg.filter_threshold * mean_load
                hot_dpus = {d for d, x in enumerate(load) if x > limit}
                if hot_dpus:
                    max_defer = int(cfg.max_defer_fraction * len(ordered))
                    # Walk tasks smallest-footprint-last (they were
                    # assigned last and removing them frees exactly the
                    # load we added); defer tasks touching hot DPUs.
                    for qidx, cid, info in reversed(task_record):
                        if len(deferred) >= max_defer:
                            break
                        if any(d in hot_dpus for d, _, _ in info):
                            still_hot = False
                            for d, key, lat in info:
                                load[d] -= lat / speed[d]
                                assignments[d].remove((qidx, key))
                                if load[d] > limit:
                                    still_hot = True
                            deferred.append((qidx, cid))
                            if not still_hot:
                                hot_dpus = {
                                    d for d, x in enumerate(load) if x > limit
                                }
                                if not hot_dpus:
                                    break

        outcome = ScheduleOutcome(
            assignments={d: a for d, a in assignments.items() if a},
            deferred=deferred,
            predicted_load=np.array(load),
            uncovered=uncovered,
        )
        if self.observer is not None:
            self.observer.on_schedule(
                tasks_per_dpu=[
                    (d, len(a)) for d, a in sorted(outcome.assignments.items())
                ],
                predicted_cycles=[
                    (d, load[d]) for d in sorted(outcome.assignments)
                ],
                deferred=len(deferred),
                uncovered=len(uncovered),
                dead_dpus=len(self._dead),
            )
        return outcome

    def _cheapest(
        self,
        options: Iterable[Tuple[int, str, float]],
        load: List[float],
    ) -> Optional[Tuple[int, str, float]]:
        """The live option with the smallest ``(resulting load, dpu)``
        (the first on a tie), or ``None`` when none is live."""
        best = None
        best_key = None
        for option in options:
            d = option[0]
            if d in self._dead:
                continue
            key = (load[d] + option[2] / self._speed[d], d)
            if best_key is None or key < best_key:
                best, best_key = option, key
        return best

    def _salvage_parts(
        self, cid: int, load: List[float]
    ) -> Tuple[List[Tuple[int, str, float]], int]:
        """Per-part live-replica selection when no group is intact.

        Returns (chosen parts, number of parts with no live replica).
        """
        groups = self._group_info[cid]
        chosen: List[Tuple[int, str, float]] = []
        missing = 0
        for p in range(len(groups[0])):
            best = self._cheapest((g[p] for g in groups), load)
            if best is None:
                missing += 1
            else:
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
        load = [0.0] * self.plan.num_dpus
        for qidx, key in failed:
            shard = self.plan.shards[key]
            groups = self._group_info[shard.cluster_id]
            best = self._cheapest((g[shard.part_id] for g in groups), load)
            if best is None:
                uncovered.append((qidx, shard.cluster_id))
                continue
            d, new_key, lat = best
            assignments.setdefault(d, []).append((qidx, new_key))
            load[d] += lat / self._speed[d]
        if self.observer is not None and assignments:
            self.observer.on_failover(
                sum(len(t) for t in assignments.values())
            )
        return assignments, uncovered
