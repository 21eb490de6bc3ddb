import pytest

from repro.core.layout import (
    LayoutConfig,
    LayoutPlan,
    generate_layout,
    task_cost_weights,
)
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


class TestPredictor:
    def test_task_latency_eq15(self):
        # latency = l_lut + x * (l_calu + l_sortu)
        lut_weight, point_weight = WEIGHTS
        plan = LayoutPlan(shards={}, placement={}, replica_groups={}, num_dpus=1)
        s = _sched(plan)
        assert s.task_latency(100) == lut_weight + 100 * point_weight

    def test_task_cost_weights_from_kernel_costs(self):
        # LC: 2*D*CB adds + D*CB square-LUT loads + M*CB stores and loop
        # steps; DC: 3M - 1 slots per point; TS: 2 per point.
        d, m, cb = 128, 16, 64
        assert task_cost_weights(d, m, cb) == (
            2.0 * d * cb + d * cb + 2.0 * m * cb,
            3.0 * m - 1.0 + 2.0,
        )

    def test_all_tasks_assigned(self, plan):
        s = _sched(plan, filter_threshold=None)
        tasks = [(q, c) for q in range(10) for c in range(5)]
        out = s.schedule_batch(tasks)
        assigned = sum(len(v) for v in out.assignments.values())
        parts = sum(
            len(plan.replica_groups[c][0]) for _, c in tasks
        )
        assert assigned == parts
        assert out.deferred == []

    def test_tasks_only_on_resident_dpus(self, plan):
        s = _sched(plan, filter_threshold=None)
        out = s.schedule_batch([(0, 3), (1, 7)])
        for dpu, items in out.assignments.items():
            for _, key in items:
                assert plan.placement[key] == dpu

    def test_predictor_beats_static_on_makespan(self, plan):
        tasks = [(q, 0) for q in range(40)]  # everyone hits cluster 0
        pred = _sched(plan, filter_threshold=None)
        stat = _sched(plan, filter_threshold=None, policy="static")
        mp = pred.schedule_batch(tasks).predicted_load.max()
        ms = stat.schedule_batch(tasks).predicted_load.max()
        if plan.replica_count(0) > 1:
            assert mp < ms
        else:
            assert mp <= ms

    def test_deterministic(self, plan):
        tasks = [(q, c) for q in range(6) for c in (1, 2, 3)]
        a = _sched(plan).schedule_batch(tasks)
        b = _sched(plan).schedule_batch(tasks)
        assert a.assignments == b.assignments


class TestFilter:
    def test_filter_defers_from_hot_dpus(self, plan):
        s = _sched(plan, filter_threshold=1.05, max_defer_fraction=0.5)
        # All queries hammer one cluster: its DPUs overload.
        tasks = [(q, 0) for q in range(50)]
        out = s.schedule_batch(tasks)
        assert len(out.deferred) > 0
        assert all(c == 0 for _, c in out.deferred)

    def test_filter_respects_cap(self, plan):
        s = _sched(plan, filter_threshold=1.01, max_defer_fraction=0.1)
        tasks = [(q, 0) for q in range(50)]
        out = s.schedule_batch(tasks)
        assert len(out.deferred) <= 5

    def test_no_filter_when_disabled(self, plan):
        s = _sched(plan, filter_threshold=None)
        out = s.schedule_batch([(q, 0) for q in range(50)])
        assert out.deferred == []

    def test_per_call_flags_match_config(self, plan):
        # The round kind's flags act like the config fields they
        # override: defer=False is the filter off, static=True the
        # static policy.
        tasks = [(q, c) for q in range(30) for c in (0, 1, 2)]
        base = _sched(plan, filter_threshold=1.05, max_defer_fraction=0.5)
        assert base.schedule_batch(tasks).deferred
        cases = (
            (dict(defer=False), dict(filter_threshold=None)),
            (
                dict(static=True, defer=False),
                dict(filter_threshold=None, policy="static"),
            ),
        )
        for flags, cfg in cases:
            got = base.schedule_batch(tasks, **flags)
            want = _sched(plan, **cfg).schedule_batch(tasks)
            assert got.deferred == []
            assert got.assignments == want.assignments
            assert got.predicted_load.tobytes() == want.predicted_load.tobytes()

    def test_deferred_tasks_not_in_assignments(self, plan):
        s = _sched(plan, filter_threshold=1.05, max_defer_fraction=0.5)
        tasks = [(q, 0) for q in range(30)]
        out = s.schedule_batch(tasks)
        deferred_q = {q for q, _ in out.deferred}
        for items in out.assignments.values():
            for q, key in items:
                assert (
                    q not in deferred_q
                    or plan.shards[key].cluster_id != 0
                )


class TestConfigValidation:
    def test_bad_policy(self):
        with pytest.raises(ValueError):
            SchedulerConfig(policy="bogus")

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            SchedulerConfig(filter_threshold=0.9)

    def test_bad_defer_fraction(self):
        with pytest.raises(ValueError):
            SchedulerConfig(max_defer_fraction=1.5)
