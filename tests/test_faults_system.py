import numpy as np
import pytest

from repro.analysis.tracecheck import check_tracer
from repro.faults import FaultConfig, FaultPlan
from repro.pim.config import DpuConfig, PimSystemConfig
from repro.pim.dpu import Dpu
from repro.pim.system import PimSystem, ShardData
from repro.pim.trace import Tracer


@pytest.fixture()
def make_system(small_quantized):
    """Factory: 4-DPU system with cluster i resident on DPU i."""

    def make(fault_plan=None, tracer=None):
        cfg = PimSystemConfig(num_dpus=4, dpus_per_rank=4)
        system = PimSystem(cfg, tracer=tracer, fault_plan=fault_plan)
        system.load_codebooks(small_quantized.codebooks)
        for d in range(4):
            system.place_shard(
                d,
                ShardData(
                    shard_key=f"c{d}",
                    centroid=small_quantized.centroids[d],
                    ids=small_quantized.cluster_ids[d],
                    codes=small_quantized.cluster_codes[d],
                ),
            )
        return system

    return make


@pytest.fixture()
def batch_queries(small_ds):
    return small_ds.queries[:2]


def _run(system, assignments, queries):
    """Charge one round, then compute the tasks it ran."""
    timing = system.run_batch(assignments, queries, 10, multiplier_less=False)
    return system.compute_tasks(queries, timing.tasks, 10), timing


class TestRunBatchValidation:
    @pytest.mark.parametrize("bad", [-1, 4, 99])
    def test_out_of_range_dpu_rejected(self, make_system, batch_queries, bad):
        system = make_system()
        with pytest.raises(ValueError, match="out of range"):
            _run(system, {bad: [(0, "c0")]}, batch_queries)

    def test_valid_ids_accepted(self, make_system, batch_queries):
        system = make_system()
        (rows, ids, dists), timing = _run(
            system, {0: [(0, "c0")]}, batch_queries
        )
        np.testing.assert_array_equal(rows, [0])
        assert ids.shape == dists.shape == (1, 10)
        assert timing.failed_tasks == []


class TestFailStop:
    def test_dead_dpu_tasks_reported_not_executed(
        self, make_system, batch_queries
    ):
        plan = FaultPlan(
            num_dpus=4, config=FaultConfig(), fail_at_batch={1: 0}
        )
        system = make_system(fault_plan=plan)
        (rows, _, _), timing = _run(
            system, {0: [(0, "c0")], 1: [(0, "c1"), (1, "c1")]}, batch_queries
        )
        assert timing.failed_tasks == [(0, "c1"), (1, "c1")]
        assert timing.tasks == [(0, "c0")]
        np.testing.assert_array_equal(rows, [0])
        assert system.dead_dpus() == {1}

    def test_broadcast_charges_only_named_rows(self, make_system, small_ds):
        """A round is charged for the distinct query rows its tasks name,
        a dead DPU's tasks included, not for every row of the matrix."""
        plan = FaultPlan(
            num_dpus=4, config=FaultConfig(), fail_at_batch={1: 0}
        )
        system = make_system(fault_plan=plan)
        queries = small_ds.queries[:5]
        _, timing = _run(
            system, {0: [(1, "c0")], 1: [(1, "c1"), (3, "c1")]}, queries
        )
        assert timing.tasks == [(1, "c0")]
        assert timing.failed_tasks == [(1, "c1"), (3, "c1")]
        (bcast,) = [e for e in system.transfer.events if e.label == "queries"]
        assert bcast.total_bytes == 2 * queries.shape[1]

    def test_crash_batch_respected(self, make_system, batch_queries):
        plan = FaultPlan(
            num_dpus=4, config=FaultConfig(), fail_at_batch={2: 1}
        )
        system = make_system(fault_plan=plan)
        _, t0 = _run(system, {2: [(0, "c2")]}, batch_queries)
        assert t0.failed_tasks == []
        _, t1 = _run(system, {2: [(0, "c2")]}, batch_queries)
        assert t1.failed_tasks == [(0, "c2")]


class TestStragglers:
    def test_derated_dpu_stretches_critical_path(
        self, make_system, batch_queries
    ):
        derates = np.array([1.0, 1.0, 1.0, 0.5])
        plan = FaultPlan(num_dpus=4, config=FaultConfig(), derates=derates)
        healthy = make_system()
        slow = make_system(fault_plan=plan)
        assignments = {3: [(0, "c3")]}
        _, t_h = _run(healthy, assignments, batch_queries)
        _, t_s = _run(slow, assignments, batch_queries)
        assert t_s.pim_seconds == pytest.approx(2.0 * t_h.pim_seconds)

    def test_batch_time_is_max_over_effective_clocks(
        self, make_system, batch_queries
    ):
        derates = np.array([1.0, 1.0, 1.0, 0.5])
        plan = FaultPlan(num_dpus=4, config=FaultConfig(), derates=derates)
        system = make_system(fault_plan=plan)
        _, timing = _run(
            system, {0: [(0, "c0")], 3: [(0, "c3")]}, batch_queries
        )
        freq = system.config.dpu.frequency_hz
        expected = max(timing.per_dpu_cycles / (freq * derates))
        assert timing.pim_seconds == pytest.approx(expected)


class TestTransients:
    def test_retry_counted_and_results_unchanged(
        self, make_system, batch_queries
    ):
        plan = FaultPlan(
            num_dpus=4,
            config=FaultConfig(),
            transients=frozenset({(0, 0)}),
        )
        tracer = Tracer()
        system = make_system(fault_plan=plan, tracer=tracer)
        block, timing = _run(system, {0: [(0, "c0")]}, batch_queries)
        assert timing.transient_retries == 1
        retry_events = [e for e in tracer.events if "#retry" in e.detail]
        assert retry_events, "retry must be visible on the trace"
        assert check_tracer(tracer) == []

        clean = make_system()
        ref, _ = _run(clean, {0: [(0, "c0")]}, batch_queries)
        for got, want in zip(block, ref):
            np.testing.assert_array_equal(got, want)

    def test_retry_charges_extra_cycles(self, make_system, batch_queries):
        plan = FaultPlan(
            num_dpus=4, config=FaultConfig(), transients=frozenset({(0, 0)})
        )
        faulty = make_system(fault_plan=plan)
        clean = make_system()
        _, t_f = _run(faulty, {0: [(0, "c0")]}, batch_queries)
        _, t_c = _run(clean, {0: [(0, "c0")]}, batch_queries)
        assert t_f.per_dpu_cycles[0] > t_c.per_dpu_cycles[0]


class TestTransferTimeouts:
    def test_timeout_charged_and_logged(self, make_system, batch_queries):
        plan = FaultPlan(
            num_dpus=4,
            config=FaultConfig(),
            transfer_timeouts=frozenset({0}),
        )
        faulty = make_system(fault_plan=plan)
        clean = make_system()
        _, t_f = _run(faulty, {0: [(0, "c0")]}, batch_queries)
        _, t_c = _run(clean, {0: [(0, "c0")]}, batch_queries)
        assert t_f.transfer_timeouts == 1
        assert t_f.transfer_seconds == pytest.approx(
            t_c.transfer_seconds + plan.config.transfer_timeout_s
        )
        kinds = [e.kind for e in faulty.transfer.events]
        assert "timeout" in kinds


class TestDpuStall:
    def test_stall_counts_toward_total_not_kernels(self):
        dpu = Dpu(0, DpuConfig())
        dpu.stall(100.0)
        assert dpu.total_cycles == 100.0
        assert dpu.cycles_by_kernel == {}

    def test_negative_stall_rejected(self):
        dpu = Dpu(0, DpuConfig())
        with pytest.raises(ValueError):
            dpu.stall(-1.0)

    def test_reset_clears_stall(self):
        dpu = Dpu(0, DpuConfig())
        dpu.stall(10.0)
        dpu.reset_ledger()
        assert dpu.total_cycles == 0.0
