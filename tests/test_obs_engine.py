"""Observability threaded through the engine, scheduler, and serving.

Covers the acceptance criteria of the obs layer: disabled runs are
bit-exact with the uninstrumented engine and stay inside the <2%
overhead budget; enabled runs surface per-phase, per-DPU, fault, and
serving metrics in the outcome snapshots.
"""

import json
import timeit
import warnings

import numpy as np
import pytest

from repro.core import DrimAnnEngine, LayoutConfig, SearchParams
from repro.core.config import EngineConfig
from repro.core.results import SearchOutcome, ServingOutcome
from repro.core.serving import BatchingPolicy, PoissonArrivals, simulate_serving
from repro.faults import FaultConfig, FaultPlan
from repro.obs import EngineObserver, ObsConfig
from repro.pim.config import PimSystemConfig

NUM_DPUS = 8


def _config(small_params, *, obs=False, faults=None):
    return EngineConfig(
        index=small_params,
        search=SearchParams(batch_size=64),
        system=PimSystemConfig(num_dpus=NUM_DPUS),
        layout=LayoutConfig(min_split_size=400, max_copies=2),
        faults=faults,
        obs=ObsConfig(enabled=obs),
    )


def _build(small_ds, small_quantized, small_params, **kw):
    return DrimAnnEngine.from_config(
        small_ds.base,
        _config(small_params, **kw),
        heat_queries=small_ds.queries[:50],
        prebuilt_quantized=small_quantized,
        seed=0,
    )


@pytest.fixture(scope="module")
def obs_engine(small_ds, small_quantized, small_params):
    return _build(small_ds, small_quantized, small_params, obs=True)


@pytest.fixture(scope="module")
def plain_engine(small_ds, small_quantized, small_params):
    return _build(small_ds, small_quantized, small_params, obs=False)


class TestObsConfig:
    def test_disabled_creates_nothing(self):
        assert ObsConfig().create() is None
        assert ObsConfig(enabled=False).create() is None

    def test_enabled_creates_observer(self):
        assert isinstance(ObsConfig(enabled=True).create(), EngineObserver)

    def test_bad_accuracy_rejected(self):
        with pytest.raises(ValueError, match="latency_accuracy"):
            ObsConfig(latency_accuracy=1.5)

    def test_round_trips(self):
        cfg = ObsConfig(enabled=True, latency_accuracy=0.02)
        assert ObsConfig.from_dict(cfg.to_dict()) == cfg


class TestDeprecationShim:
    """The deprecated constructor is gone; the one that stays is quiet."""

    def test_from_config_is_quiet(self, small_ds, small_quantized, small_params):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            _build(small_ds, small_quantized, small_params)


class TestDisabledPath:
    def test_no_observer_no_metrics(self, plain_engine, small_ds):
        assert plain_engine.observer is None
        outcome = plain_engine.search(small_ds.queries[:40])
        assert outcome.metrics is None

    def test_bit_exact_with_obs_on(self, small_ds, small_quantized, small_params):
        # Fresh engines on both sides: per-batch cycles are differences
        # of running per-DPU totals, so their last ulp depends on how
        # many searches an engine has already run.
        q = small_ds.queries
        on = _build(small_ds, small_quantized, small_params, obs=True).search(q)
        off = _build(small_ds, small_quantized, small_params).search(q)
        np.testing.assert_array_equal(on.results.ids, off.results.ids)
        np.testing.assert_array_equal(
            on.results.distances, off.results.distances
        )
        assert on.breakdown.pim_seconds == off.breakdown.pim_seconds
        assert on.breakdown.e2e_seconds == off.breakdown.e2e_seconds

    def test_disabled_overhead_within_budget(self, plain_engine, small_ds):
        """The disabled cost is one ``is not None`` check per hook site.

        Counting how many times hooks would fire and pricing each at a
        measured no-op-check cost is deterministic, unlike comparing
        two noisy wall-clock runs.
        """
        q = small_ds.queries

        class Probe:
            calls = 0

            def __getattr__(self, name):
                def hook(*a, **k):
                    Probe.calls += 1

                return hook

        base_wall = min(
            timeit.timeit(lambda: plain_engine.search(q), number=1)
            for _ in range(3)
        )
        probe = Probe()
        plain_engine.observer = probe
        plain_engine.scheduler.observer = probe
        plain_engine.system.observer = probe
        try:
            plain_engine.search(q)
        finally:
            plain_engine.observer = None
            plain_engine.scheduler.observer = None
            plain_engine.system.observer = None
        n_sites = Probe.calls
        assert n_sites > 0
        reps = 100_000
        per_check = (
            timeit.timeit("x is not None", setup="x = None", number=reps)
            / reps
        )
        assert n_sites * per_check < 0.02 * base_wall, (
            f"{n_sites} hook sites x {per_check:.2e}s noop check "
            f"exceeds 2% of {base_wall:.4f}s search"
        )


class TestSearchMetrics:
    def test_outcome_unpacks_like_old_tuple(self, obs_engine, small_ds):
        outcome = obs_engine.search(small_ds.queries[:20])
        assert isinstance(outcome, SearchOutcome)
        res, bd = outcome
        assert res is outcome.results and bd is outcome.breakdown
        assert len(outcome) == 2 and outcome[0] is res

    def test_per_phase_and_per_dpu_series(self, obs_engine, small_ds):
        q = small_ds.queries[:60]
        snap = obs_engine.search(q).metrics
        assert snap is not None
        assert snap.value("drimann_engine_queries_total") >= len(q)
        phases = {
            s["labels"]["phase"] for s in snap.series("drimann_phase_seconds")
        }
        assert {"CL", "RC", "LC", "DC", "TS"} <= phases
        tasks = snap.series("drimann_scheduler_tasks_total")
        assert tasks, "per-DPU scheduler series missing"
        dpus = {int(s["labels"]["dpu"]) for s in tasks}
        assert dpus <= set(range(NUM_DPUS)) and len(dpus) > 1
        assert snap.value("drimann_pim_wram_peak_bytes") > 0
        assert (
            snap.value("drimann_pim_transfer_seconds_total", op="broadcast")
            > 0
        )
        assert (
            snap.value("drimann_pim_transfer_seconds_total", op="gather") > 0
        )

    def test_kernel_cycles_match_breakdown(self, obs_engine, small_ds):
        eng = obs_engine
        before = {
            k: eng.observer.registry.counter(
                "drimann_pim_kernel_cycles_total", kernel=k
            ).value
            for k in ("LC", "DC")
        }
        _, bd = eng.search(small_ds.queries[:30])
        snap = eng.observer.snapshot()
        for k in ("LC", "DC"):
            got = (
                snap.value("drimann_pim_kernel_cycles_total", kernel=k)
                - before[k]
            )
            assert got == pytest.approx(bd.kernel_cycles[k])


class TestFaultMetrics:
    def test_fault_counters_surface(
        self, small_ds, small_quantized, small_params
    ):
        plan = FaultPlan(
            num_dpus=NUM_DPUS,
            config=FaultConfig(fail_stop_fraction=0.1),
            fail_at_batch={2: 0},
        )
        eng = _build(
            small_ds, small_quantized, small_params, obs=True, faults=plan
        )
        outcome = eng.search(small_ds.queries)
        snap = outcome.metrics
        assert snap.value("drimann_faults_dead_dpus") == len(
            outcome.faults.dead_dpus
        )
        assert snap.value("drimann_faults_dead_dpus") >= 1
        assert snap.value("drimann_faults_backoff_seconds_total") > 0
        assert snap.value("drimann_pim_failed_tasks_total") > 0
        assert (
            snap.value("drimann_faults_degraded_queries_total")
            == len(outcome.faults.degraded_queries)
        )


class TestServingMetrics:
    @pytest.fixture(scope="class")
    def served(self, obs_engine, small_ds):
        q = small_ds.queries[:100]
        arrivals = PoissonArrivals(rate_qps=20_000).sample(100, seed=0)
        return simulate_serving(
            obs_engine,
            q,
            arrivals,
            BatchingPolicy(batch_size=32, max_wait_s=1e-3),
        )

    def test_outcome_forwards_to_report(self, served):
        assert isinstance(served, ServingOutcome)
        assert served.num_queries == 100
        assert served.percentile_ms(99) >= served.percentile_ms(50)

    def test_sketch_percentiles_track_report(self, served):
        sk = served.metrics.find("drimann_serving_latency_seconds")
        assert sk is not None and sk["count"] == 100
        for q in (50, 95, 99):
            exact_s = served.report.percentile_ms(q) / 1e3
            assert sk[f"p{q}"] == pytest.approx(exact_s, rel=0.05)

    def test_batch_occupancy_histogram(self, served):
        occ = served.metrics.find("drimann_serving_batch_occupancy")
        assert occ is not None
        assert occ["count"] == len(served.report.batch_sizes)
        assert occ["sum"] == pytest.approx(sum(served.report.batch_sizes))

    def test_obs_off_serving_has_no_metrics(self, plain_engine, small_ds):
        q = small_ds.queries[:20]
        out = simulate_serving(
            plain_engine, q, np.arange(20) * 1e-3, BatchingPolicy()
        )
        assert out.metrics is None
        assert out.num_queries == 20


class TestDataPlaneMetrics:
    def test_plan_decision_counter_tracks_path(self, obs_engine, small_ds):
        snap0 = obs_engine.observer.snapshot()
        before = snap0.value(
            "drimann_pim_plan_decisions_total", path="vectorized"
        )
        obs_engine.search(small_ds.queries[:40], plan="vectorized")
        snap1 = obs_engine.observer.snapshot()
        after = snap1.value(
            "drimann_pim_plan_decisions_total", path="vectorized"
        )
        assert after > before

    def test_pool_fallbacks_counted_not_silent(
        self, small_ds, small_quantized, small_params
    ):
        """Killing the workers mid-run must surface in the fallback
        counter (and still return correct results)."""
        cfg = EngineConfig(
            index=small_params,
            search=SearchParams(batch_size=64, plan="pool"),
            system=PimSystemConfig(num_dpus=NUM_DPUS, shard_workers=2),
            layout=LayoutConfig(min_split_size=400, max_copies=2),
            obs=ObsConfig(enabled=True),
        )
        eng = DrimAnnEngine.from_config(
            small_ds.base,
            cfg,
            heat_queries=small_ds.queries[:50],
            prebuilt_quantized=small_quantized,
            seed=0,
        )
        try:
            q = small_ds.queries[:40]
            healthy = eng.search(q)
            pool = eng.system.executor
            if pool.started:  # kill the warm workers under the engine
                for proc in pool._procs:
                    proc.terminate()
                    proc.join(timeout=2.0)
            broken = eng.search(q)
            np.testing.assert_array_equal(
                healthy.results.ids, broken.results.ids
            )
            snap = broken.metrics
            fallbacks = sum(
                s["value"]
                for s in snap.series("drimann_pim_pool_fallbacks_total")
            )
            assert fallbacks >= 1
        finally:
            eng.close()


class TestEngineConfigRoundTrip:
    def test_round_trip_with_faults(self, small_params):
        plan = FaultPlan.generate(
            NUM_DPUS,
            FaultConfig(fail_stop_fraction=0.1, straggler_fraction=0.1),
            seed=5,
        )
        cfg = _config(small_params, obs=True, faults=plan)
        d = cfg.to_dict()
        again = EngineConfig.from_dict(json.loads(json.dumps(d)))
        assert again.to_dict() == d

    def test_mismatched_fault_plan_rejected(self, small_params):
        plan = FaultPlan.none(NUM_DPUS + 1)
        with pytest.raises(ValueError, match="fault plan"):
            _config(small_params, faults=plan)
