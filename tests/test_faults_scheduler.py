import numpy as np
import pytest

from repro.core.layout import LayoutConfig, generate_layout
from repro.core.scheduler import RuntimeScheduler, SchedulerConfig


@pytest.fixture(scope="module")
def plan(small_quantized):
    heat = small_quantized.cluster_sizes().astype(float)
    return generate_layout(
        small_quantized,
        8,
        heat,
        LayoutConfig(min_split_size=400, max_copies=2),
        seed=0,
    )


# Eq. 15 weights: l_LUT, and l_calu + l_sortu.
WEIGHTS = (5000.0, 50.0 + 2.0)


def _sched(plan, **kw):
    return RuntimeScheduler(plan, SchedulerConfig(**kw), *WEIGHTS)


def _all_tasks(nq=12, nc=10):
    return [(q, c) for q in range(nq) for c in range(nc)]


class TestBlacklist:
    def test_dead_dpu_never_assigned(self, plan):
        s = _sched(plan, filter_threshold=None)
        s.mark_dead([3])
        for _ in range(5):
            out = s.schedule_batch(_all_tasks())
            assert 3 not in out.assignments
            assert all(
                d != 3 for d, tasks in out.assignments.items() if tasks
            )

    def test_dead_dpu_never_assigned_static_policy(self, plan):
        s = _sched(plan, filter_threshold=None, policy="static")
        s.mark_dead([0])
        out = s.schedule_batch(_all_tasks())
        assert 0 not in out.assignments

    def test_blacklist_is_permanent_and_cumulative(self, plan):
        s = _sched(plan)
        s.mark_dead([1])
        s.mark_dead([5])
        assert s.dead_dpus == {1, 5}
        # The property returns a copy, not a live reference.
        s.dead_dpus.add(7)
        assert s.dead_dpus == {1, 5}

    def test_mark_dead_rejects_out_of_range(self, plan):
        s = _sched(plan)
        with pytest.raises(ValueError):
            s.mark_dead([8])
        with pytest.raises(ValueError):
            s.mark_dead([-1])

    def test_all_replicas_dead_reports_uncovered(self, plan):
        s = _sched(plan, filter_threshold=None)
        # Kill every DPU holding any replica of cluster 0's parts.
        owners = {
            dpu for g in s._group_info[0] for dpu, _, _ in g
        }
        assert owners != set(range(plan.num_dpus)), "fixture too small"
        s.mark_dead(owners)
        out = s.schedule_batch([(0, 0)])
        assert (0, 0) in out.uncovered
        for d, tasks in out.assignments.items():
            assert d not in owners or not tasks

    def test_partial_salvage_assigns_surviving_parts(self, plan):
        # Find a cluster with >1 replica group, kill one member of each
        # group (so no group is intact) but leave each part one live
        # replica: the scheduler must salvage per-part.
        cid = next(
            c for c, gs in plan.replica_groups.items() if len(gs) > 1
        )
        s = _sched(plan, filter_threshold=None)
        groups = s._group_info[cid]
        num_parts = len(groups[0])
        kill = {groups[0][0][0]}  # first part of replica 0
        # Replica 1 must still cover that part for the salvage to work.
        if groups[1][0][0] in kill:
            pytest.skip("replicas co-resident; layout fixture unsuitable")
        s.mark_dead(kill)
        out = s.schedule_batch([(0, cid)])
        assigned = [
            (d, key) for d, tasks in out.assignments.items()
            for _, key in tasks
        ]
        assert len(assigned) == num_parts
        assert out.uncovered == []
        assert all(d not in kill for d, _ in assigned)


class TestSpeedFactors:
    def test_validation(self, plan):
        s = _sched(plan)
        with pytest.raises(ValueError):
            s.set_speed_factors(np.ones(4))
        with pytest.raises(ValueError):
            s.set_speed_factors(np.zeros(8))
        with pytest.raises(ValueError):
            s.set_speed_factors(np.full(8, 1.5))

    def test_derated_dpu_attracts_less_load(self, plan):
        fair = _sched(plan, filter_threshold=None)
        skew = _sched(plan, filter_threshold=None)
        factors = np.ones(8)
        factors[2] = 0.3
        skew.set_speed_factors(factors)
        tasks = _all_tasks(nq=20, nc=12)
        load_fair = fair.schedule_batch(tasks).predicted_load
        load_skew = skew.schedule_batch(tasks).predicted_load
        # Predicted load is speed-weighted; the derated DPU should get
        # fewer raw cycles of work than it did at full speed.
        raw_fair = load_fair[2]
        raw_skew = load_skew[2] * factors[2]
        assert raw_skew < raw_fair

    def test_fault_state_holds_for_every_round_kind(self, plan):
        # One scheduler serves the main, drain and ablation rounds, so
        # its blacklist applies whatever the round's flags.
        s = _sched(plan)
        s.mark_dead([4])
        for flags in ({}, {"defer": False}, {"static": True, "defer": False}):
            out = s.schedule_batch(_all_tasks(), **flags)
            assert 4 not in out.assignments
            assert out.predicted_load[4] == 0.0


class TestFailover:
    def test_failover_is_part_exact(self, plan):
        cid = next(
            c for c, gs in plan.replica_groups.items() if len(gs) > 1
        )
        s = _sched(plan)
        dead_dpu, dead_key, _ = s._group_info[cid][0][0]
        s.mark_dead([dead_dpu])
        assignments, uncovered = s.failover_assignments([(7, dead_key)])
        assert uncovered == []
        (new_dpu, tasks), = assignments.items()
        (qidx, new_key), = tasks
        assert qidx == 7
        assert new_dpu != dead_dpu
        old = plan.shards[dead_key]
        new = plan.shards[new_key]
        assert new.cluster_id == old.cluster_id
        assert new.part_id == old.part_id
        np.testing.assert_array_equal(new.point_rows, old.point_rows)

    def test_failover_reports_unrecoverable_tasks(self, plan):
        s = _sched(plan)
        cid = 0
        owners = {dpu for g in s._group_info[cid] for dpu, _, _ in g}
        s.mark_dead(owners)
        key = s._group_info[cid][0][0][1]
        assignments, uncovered = s.failover_assignments([(3, key)])
        assert assignments == {}
        assert uncovered == [(3, cid)]
