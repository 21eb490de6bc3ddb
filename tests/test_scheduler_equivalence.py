"""The scheduler's float-list loops against the float64-array oracle.

``RuntimeScheduler.schedule_batch``, ``_salvage_parts`` and
``failover_assignments`` keep loads and speeds as Python floats. The
oracle below is the array form they replaced, kept verbatim apart from
reading the scheduler's state through its accessors. Both run the same
IEEE operations in the same order, so over seeded random layouts —
replicas, split clusters, dead DPUs (salvage included), derated speed
factors and both policies — assignments (list order included),
deferrals, uncovered tasks and the predicted load must be identical,
the load byte for byte.
"""

from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.core.layout import ClusterShard, LayoutPlan
from repro.core.scheduler import RuntimeScheduler, SchedulerConfig


def _oracle_cost(sched, speed, d, lat):
    return lat / speed[d]


def _oracle_salvage(sched, speed, cid, load):
    groups = sched._group_info[cid]
    num_parts = len(groups[0])
    chosen = []
    missing = 0
    for p in range(num_parts):
        options = [g[p] for g in groups if g[p][0] not in sched._dead]
        if not options:
            missing += 1
            continue
        best = min(
            options,
            key=lambda o: (load[o[0]] + _oracle_cost(sched, speed, o[0], o[2]), o[0]),
        )
        chosen.append(best)
    return chosen, missing


def oracle_schedule(sched, tasks):
    """The float64-array ``schedule_batch``."""
    speed = np.asarray(sched.speed_factors)
    num_dpus = sched.plan.num_dpus
    load = np.zeros(num_dpus)
    assignments: Dict[int, List[Tuple[int, str]]] = {d: [] for d in range(num_dpus)}
    uncovered = []
    group_cost = sched._group_cost
    ordered = sorted(tasks, key=lambda t: -group_cost[t[1]])
    task_record = []
    for qidx, cid in ordered:
        groups = sched._group_info[cid]
        if sched._dead:
            alive_groups = [
                g for g in groups if all(d not in sched._dead for d, _, _ in g)
            ]
        else:
            alive_groups = groups
        if alive_groups:
            if sched.config.policy == "static":
                chosen = alive_groups[0]
            else:
                best_val = None
                chosen = alive_groups[0]
                for info in alive_groups:
                    val = max(
                        load[d] + _oracle_cost(sched, speed, d, lat)
                        for d, _, lat in info
                    )
                    if best_val is None or val < best_val:
                        best_val = val
                        chosen = info
        else:
            chosen, missing = _oracle_salvage(sched, speed, cid, load)
            if missing:
                uncovered.append((qidx, cid))
            if not chosen:
                continue
        for d, key, lat in chosen:
            assignments[d].append((qidx, key))
            load[d] += _oracle_cost(sched, speed, d, lat)
        task_record.append((qidx, cid, chosen))

    deferred = []
    cfg = sched.config
    if cfg.filter_threshold is not None and len(ordered) > 1:
        mean_load = load.mean()
        if mean_load > 0:
            hot_dpus = set(np.flatnonzero(load > cfg.filter_threshold * mean_load))
            if hot_dpus:
                max_defer = int(cfg.max_defer_fraction * len(ordered))
                for qidx, cid, info in reversed(task_record):
                    if len(deferred) >= max_defer:
                        break
                    touched = {d for d, _, _ in info}
                    if touched & hot_dpus:
                        still_hot = False
                        for d, key, lat in info:
                            load[d] -= _oracle_cost(sched, speed, d, lat)
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
    return (
        {d: a for d, a in assignments.items() if a},
        deferred,
        load,
        uncovered,
    )


def oracle_failover(sched, failed):
    """The float64-array ``failover_assignments``."""
    speed = np.asarray(sched.speed_factors)
    assignments: Dict[int, List[Tuple[int, str]]] = {}
    uncovered = []
    load = np.zeros(sched.plan.num_dpus)
    for qidx, key in failed:
        shard = sched.plan.shards[key]
        groups = sched._group_info[shard.cluster_id]
        options = [
            g[shard.part_id] for g in groups if g[shard.part_id][0] not in sched._dead
        ]
        if not options:
            uncovered.append((qidx, shard.cluster_id))
            continue
        d, new_key, lat = min(
            options,
            key=lambda o: (load[o[0]] + _oracle_cost(sched, speed, o[0], o[2]), o[0]),
        )
        assignments.setdefault(d, []).append((qidx, new_key))
        load[d] += _oracle_cost(sched, speed, d, lat)
    return assignments, uncovered


def random_plan(rng) -> LayoutPlan:
    """Clusters with 1-3 replicas of 1-3 row-aligned parts each, parts
    placed on random DPUs (replicas may share one)."""
    num_dpus = int(rng.integers(2, 10))
    shards, placement, replica_groups = {}, {}, {}
    for cid in range(int(rng.integers(1, 12))):
        sizes = rng.integers(0, 900, size=int(rng.integers(1, 4)))
        groups = []
        for r in range(int(rng.integers(1, 4))):
            keys = []
            for p, size in enumerate(sizes):
                key = f"c{cid}r{r}p{p}"
                shards[key] = ClusterShard(
                    key, cid, r, p, np.arange(int(size)), float(size)
                )
                placement[key] = int(rng.integers(0, num_dpus))
                keys.append(key)
            groups.append(keys)
        replica_groups[cid] = groups
    return LayoutPlan(shards, placement, replica_groups, num_dpus)


def random_scheduler(rng, plan, policy) -> RuntimeScheduler:
    threshold = [None, 1.05, 1.3, 2.0][int(rng.integers(0, 4))]
    lut_weight = float(rng.choice([0.0, 4096.0, 5000.0 / 3.0]))
    per_point_calc = float(rng.choice([50.0, 7.1]))
    per_point_sort = float(rng.choice([2.0, 0.3]))
    config = SchedulerConfig(
        filter_threshold=threshold,
        max_defer_fraction=float(rng.choice([0.0, 0.25, 1.0])),
        policy=policy,
    )
    sched = RuntimeScheduler(
        plan, config, lut_weight, per_point_calc + per_point_sort
    )
    if rng.random() < 0.5:
        speed = rng.uniform(0.2, 1.0, size=plan.num_dpus)
        speed[rng.random(plan.num_dpus) < 0.5] = 1.0
        sched.set_speed_factors(speed)
    if rng.random() < 0.5:
        dead = rng.choice(
            plan.num_dpus, size=int(rng.integers(1, plan.num_dpus)), replace=False
        )
        sched.mark_dead(dead)
    return sched


def random_tasks(rng, plan):
    clusters = sorted(plan.replica_groups)
    pairs = {
        (int(rng.integers(0, 30)), int(rng.choice(clusters)))
        for _ in range(int(rng.integers(0, 120)))
    }
    tasks = sorted(pairs)
    rng.shuffle(tasks)
    return tasks


def _salvages(plan, dead, cid):
    """Whether a task on ``cid`` takes the salvage branch: no replica
    group is intact."""
    return all(
        any(plan.placement[k] in dead for k in group)
        for group in plan.replica_groups[cid]
    )


@pytest.mark.parametrize("policy", ["predictor", "static"])
def test_schedule_batch_matches_array_oracle(policy):
    salvaged = deferred_runs = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        plan = random_plan(rng)
        sched = random_scheduler(rng, plan, policy)
        tasks = random_tasks(rng, plan)
        want_assign, want_deferred, want_load, want_uncovered = oracle_schedule(
            sched, tasks
        )
        out = sched.schedule_batch(tasks)
        assert out.assignments == want_assign, seed
        assert list(out.assignments) == list(want_assign), seed
        assert out.deferred == want_deferred, seed
        assert out.uncovered == want_uncovered, seed
        assert out.predicted_load.dtype == want_load.dtype == np.float64
        assert out.predicted_load.tobytes() == want_load.tobytes(), seed
        salvaged += any(_salvages(plan, sched.dead_dpus, c) for _, c in tasks)
        deferred_runs += bool(want_deferred)
    # The seeds reach the salvage and filter branches.
    assert salvaged and deferred_runs


def test_failover_matches_array_oracle():
    for seed in range(300):
        rng = np.random.default_rng(seed)
        plan = random_plan(rng)
        sched = random_scheduler(rng, plan, "predictor")
        keys = sorted(plan.shards)
        failed = [
            (int(rng.integers(0, 30)), keys[int(rng.integers(0, len(keys)))])
            for _ in range(int(rng.integers(0, 60)))
        ]
        want = oracle_failover(sched, failed)
        got = sched.failover_assignments(failed)
        assert got == want, seed
        assert [list(a) for a in got] == [list(a) for a in want], seed
