"""Property-based tests on layout generation and runtime scheduling.

The invariants here are the correctness backbone of the load balancer:
no matter how clusters are split, duplicated, or allocated, and no
matter what the scheduler decides, every task must execute exactly once
over exactly the right points.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.layout import LayoutConfig, generate_layout
from repro.core.quantized import QuantizedIndexData
from repro.core.scheduler import RuntimeScheduler, SchedulerConfig


def _make_index(cluster_sizes, dim=8, m=2, cb=4, seed=0):
    rng = np.random.default_rng(seed)
    ids = []
    codes = []
    next_id = 0
    for n in cluster_sizes:
        ids.append(np.arange(next_id, next_id + n, dtype=np.int64))
        codes.append(rng.integers(0, cb, size=(n, m)).astype(np.uint8))
        next_id += n
    return QuantizedIndexData(
        centroids=rng.integers(0, 255, size=(len(cluster_sizes), dim)).astype(np.uint8),
        codebooks=rng.integers(-100, 100, size=(m, cb, dim // m)).astype(np.int16),
        cluster_ids=ids,
        cluster_codes=codes,
    )


sizes_strategy = st.lists(st.integers(0, 300), min_size=1, max_size=20)
layout_strategy = st.builds(
    LayoutConfig,
    min_split_size=st.one_of(st.none(), st.integers(1, 200)),
    max_copies=st.integers(0, 3),
    dup_budget_per_dpu=st.integers(0, 1 << 20),
    allocation=st.sampled_from(["heat_greedy", "id_order"]),
)


class TestLayoutProperties:
    @given(sizes_strategy, layout_strategy, st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_every_replica_covers_every_point_once(self, sizes, cfg, num_dpus):
        index = _make_index(sizes)
        heat = index.cluster_sizes().astype(float) + 1.0
        plan = generate_layout(index, num_dpus, heat, cfg)
        for cid, n in enumerate(sizes):
            for group in plan.replica_groups[cid]:
                rows = (
                    np.concatenate([plan.shards[k].point_rows for k in group])
                    if group
                    else np.empty(0, dtype=int)
                )
                assert sorted(rows.tolist()) == list(range(n))

    @given(sizes_strategy, layout_strategy, st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_every_shard_is_placed_on_a_valid_dpu(self, sizes, cfg, num_dpus):
        index = _make_index(sizes)
        heat = index.cluster_sizes().astype(float) + 1.0
        plan = generate_layout(index, num_dpus, heat, cfg)
        assert set(plan.placement) == set(plan.shards)
        assert all(0 <= d < num_dpus for d in plan.placement.values())

    @given(sizes_strategy, st.integers(1, 200), st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_split_sizes_bounded(self, sizes, threshold, num_dpus):
        index = _make_index(sizes)
        heat = index.cluster_sizes().astype(float) + 1.0
        plan = generate_layout(
            index,
            num_dpus,
            heat,
            LayoutConfig(min_split_size=threshold, max_copies=0),
        )
        for shard in plan.shards.values():
            assert shard.num_points <= threshold or shard.part_id == 0


class TestSchedulerProperties:
    @given(
        sizes_strategy,
        st.integers(1, 16),
        st.lists(st.integers(0, 50), min_size=0, max_size=60),
        st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_task_conservation(self, sizes, num_dpus, query_ids, use_filter):
        """Every (query, cluster) task lands in assignments or deferred,
        with the full part set of exactly one replica."""
        index = _make_index(sizes)
        heat = index.cluster_sizes().astype(float) + 1.0
        plan = generate_layout(
            index,
            num_dpus,
            heat,
            LayoutConfig(min_split_size=100, max_copies=1),
        )
        sched = RuntimeScheduler(
            plan,
            SchedulerConfig(filter_threshold=1.2 if use_filter else None),
            100.0,
            3.0 + 1.0,
        )
        rng = np.random.default_rng(0)
        # The engine never issues duplicate (query, cluster) tasks (a
        # query's probes are distinct clusters); keep that precondition.
        tasks = list(
            {(q, int(rng.integers(0, len(sizes)))) for q in query_ids}
        )
        outcome = sched.schedule_batch(tasks)

        # Group assigned shards back into (query, cluster) part sets.
        from collections import defaultdict

        got = defaultdict(set)
        for dpu, items in outcome.assignments.items():
            for q, key in items:
                shard = plan.shards[key]
                got[(q, shard.cluster_id, shard.replica_id)].add(shard.part_id)

        executed = defaultdict(int)
        for (q, cid, rep), parts in got.items():
            expected = {
                plan.shards[k].part_id for k in plan.replica_groups[cid][rep]
            }
            assert parts == expected, "partial replica execution"
            executed[(q, cid)] += 1

        from collections import Counter

        want = Counter(tasks)
        deferred = Counter(outcome.deferred)
        for task, count in want.items():
            assert executed.get(task, 0) + deferred.get(task, 0) == count

    @given(sizes_strategy, st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_predicted_load_nonnegative(self, sizes, num_dpus):
        index = _make_index(sizes)
        heat = index.cluster_sizes().astype(float) + 1.0
        plan = generate_layout(index, num_dpus, heat, LayoutConfig())
        sched = RuntimeScheduler(plan, SchedulerConfig(), 10.0, 1.0 + 1.0)
        outcome = sched.schedule_batch([(0, 0), (1, 0)])
        assert (outcome.predicted_load >= 0).all()
