import warnings

import numpy as np
import pytest

from repro.core import (
    BatchingPolicy,
    DrimAnnEngine,
    EngineConfig,
    LayoutConfig,
    SearchParams,
    simulate_serving,
)
from repro.core.serving import ServingReport
from repro.faults import FaultConfig, FaultPlan
from repro.pim.config import PimSystemConfig


class TestPolicyValidation:
    def test_bad_overload_policy_rejected(self):
        with pytest.raises(ValueError, match="overload_policy"):
            BatchingPolicy(overload_policy="panic")

    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_s"):
            BatchingPolicy(deadline_s=0.0)

    def test_deadline_none_is_default(self):
        policy = BatchingPolicy()
        assert policy.deadline_s is None
        assert policy.overload_policy == "degrade"


class TestEmptyStream:
    def test_zero_queries_report_no_nan(self, small_engine, small_ds):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = simulate_serving(
                small_engine,
                small_ds.queries[:0],
                np.empty(0),
            )
            assert report.num_queries == 0
            assert report.num_offered == 0
            assert report.mean_ms == 0.0
            assert report.percentile_ms(50) == 0.0
            assert report.percentile_ms(99) == 0.0
            assert report.makespan_s == 0.0

    def test_zero_queries_summary(self, small_engine, small_ds):
        report = simulate_serving(
            small_engine, small_ds.queries[:0], np.empty(0)
        )
        assert report.summary() == "0 queries"

    def test_empty_report_dataclass_direct(self):
        report = ServingReport(
            latencies_s=np.empty(0),
            batch_sizes=[],
            busy_seconds=0.0,
            makespan_s=0.0,
        )
        assert report.mean_ms == 0.0
        assert report.availability == 1.0
        assert report.degraded_fraction == 0.0


class TestDeadlines:
    def test_shed_drops_queries_already_late(self, small_engine, small_ds):
        n = 40
        arrivals = np.zeros(n)  # everything queued at t=0
        report = simulate_serving(
            small_engine,
            small_ds.queries[:n],
            arrivals,
            BatchingPolicy(
                batch_size=8,
                max_wait_s=0.0,
                deadline_s=1e-7,
                overload_policy="shed",
            ),
        )
        assert report.shed_queries > 0
        assert report.num_queries < n
        assert report.num_offered == n

    def test_degrade_serves_everyone_and_counts_misses(
        self, small_engine, small_ds
    ):
        n = 40
        arrivals = np.zeros(n)
        report = simulate_serving(
            small_engine,
            small_ds.queries[:n],
            arrivals,
            BatchingPolicy(
                batch_size=8,
                max_wait_s=0.0,
                deadline_s=1e-7,
                overload_policy="degrade",
            ),
        )
        assert report.shed_queries == 0
        assert report.num_queries == n
        assert report.deadline_misses > 0

    def test_generous_deadline_has_no_misses(self, small_engine, small_ds):
        n = 16
        arrivals = np.linspace(0, 1.0, n)
        report = simulate_serving(
            small_engine,
            small_ds.queries[:n],
            arrivals,
            BatchingPolicy(batch_size=8, deadline_s=10.0, overload_policy="shed"),
        )
        assert report.shed_queries == 0
        assert report.deadline_misses == 0
        assert report.num_queries == n


class TestFaultAggregation:
    @pytest.fixture(scope="class")
    def faulty_engine(self, small_ds, small_quantized, small_params):
        plan = FaultPlan(
            num_dpus=16,
            config=FaultConfig(fail_stop_fraction=0.1),
            fail_at_batch={3: 0},
        )
        return DrimAnnEngine.from_config(
            small_ds.base,
            EngineConfig(
                index=small_params,
                search=SearchParams(batch_size=32),
                system=PimSystemConfig(num_dpus=16),
                layout=LayoutConfig(min_split_size=400, max_copies=2),
                faults=plan,
            ),
            heat_queries=small_ds.queries[:50],
            prebuilt_quantized=small_quantized,
            seed=0,
        )

    def test_report_carries_fault_counters(self, faulty_engine, small_ds):
        n = 60
        arrivals = np.linspace(0, 0.01, n)
        report = simulate_serving(
            faulty_engine,
            small_ds.queries[:n],
            arrivals,
            BatchingPolicy(batch_size=16, max_wait_s=1e-4),
        )
        assert report.dead_dpus == 1
        assert report.task_retries > 0
        assert report.backoff_seconds > 0
        # Replicas cover the dead DPU: no degradation, full availability.
        assert report.degraded_queries == 0
        assert report.availability == 1.0
        assert "dead DPUs" in report.summary()

    def test_healthy_engine_reports_no_faults(self, small_engine, small_ds):
        n = 20
        arrivals = np.linspace(0, 0.01, n)
        report = simulate_serving(
            small_engine, small_ds.queries[:n], arrivals
        )
        assert report.dead_dpus == 0
        assert report.task_retries == 0
        assert report.availability == 1.0
        assert "dead DPUs" not in report.summary()
