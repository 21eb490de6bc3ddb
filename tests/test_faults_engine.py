import numpy as np
import pytest

from repro.core import DrimAnnEngine, EngineConfig, LayoutConfig, SearchParams
from repro.faults import FaultConfig, FaultPlan
from repro.pim.config import PimSystemConfig

NUM_DPUS = 16


@pytest.fixture(scope="module")
def build_engine(small_ds, small_quantized, small_params):
    def build(
        fault_plan=None, max_copies=2, search_params=SearchParams(batch_size=64)
    ):
        return DrimAnnEngine.from_config(
            small_ds.base,
            EngineConfig(
                index=small_params,
                search=search_params,
                system=PimSystemConfig(num_dpus=NUM_DPUS),
                layout=LayoutConfig(min_split_size=400, max_copies=max_copies),
                faults=fault_plan,
            ),
            heat_queries=small_ds.queries[:50],
            prebuilt_quantized=small_quantized,
            seed=0,
        )

    return build


def _every_part_has_live_replica(layout, fault_plan) -> bool:
    """The failover-soundness premise: no part lost with all replicas."""
    dead = set(fault_plan.failstop_dpus)
    for groups in layout.replica_groups.values():
        for p in range(len(groups[0])):
            if all(layout.placement[g[p]] in dead for g in groups):
                return False
    return True


def _assert_identical(res, ref):
    """Exact distance equality; ids may only differ where distances tie.

    Tie order among equal distances depends on merge-pool order (true
    of the fault-free engine across layouts too), so id equality is
    asserted up to ties rather than positionally.
    """
    np.testing.assert_array_equal(
        np.sort(res.distances, axis=1), np.sort(ref.distances, axis=1)
    )
    for rids, rd, fids, fd in zip(
        res.ids, res.distances, ref.ids, ref.distances
    ):
        diff = set(rids) ^ set(fids)
        if not diff:
            continue
        # A set difference is only legal at a tied k-th distance.
        boundary = rd.max()
        assert boundary == fd.max()
        for i in diff:
            d = (
                rd[list(rids).index(i)]
                if i in rids
                else fd[list(fids).index(i)]
            )
            assert d == boundary, f"id {i} differs without a boundary tie"


class TestFaultFreeEquivalence:
    def test_benign_plan_is_a_noop(self, build_engine, small_ds):
        engine = build_engine(fault_plan=FaultPlan.none(NUM_DPUS))
        res, bd = engine.search(small_ds.queries)
        _assert_identical(res, engine.reference_search(small_ds.queries))
        assert bd.faults is not None
        assert not bd.faults.degraded
        assert bd.faults.task_retries == 0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_survivable_faults_preserve_exact_results(
        self, build_engine, small_ds, seed
    ):
        """Property: any seeded plan that leaves every part a live
        replica must produce results identical to the fault-free run."""
        plan = FaultPlan.generate(
            NUM_DPUS,
            FaultConfig(
                fail_stop_fraction=0.15,
                straggler_fraction=0.1,
                transient_rate=0.05,
                transfer_timeout_rate=0.1,
            ),
            seed=seed,
        )
        engine = build_engine(fault_plan=plan)
        assert _every_part_has_live_replica(engine.plan, plan), (
            "duplication budget should fully replicate this corpus; "
            "premise of the property does not hold"
        )
        res, bd = engine.search(small_ds.queries)
        _assert_identical(res, engine.reference_search(small_ds.queries))
        assert not bd.faults.degraded
        assert bd.faults.availability == 1.0
        if plan.failstop_dpus:
            assert bd.faults.task_retries > 0

    def test_mid_stream_crash_with_deferral_still_merges(
        self, build_engine, small_ds
    ):
        """A crash after batch 0 (deferred-task carryover in flight)
        must not lose or double-count any deferred task's results."""
        plan = FaultPlan(
            num_dpus=NUM_DPUS,
            config=FaultConfig(fail_stop_fraction=0.1),
            fail_at_batch={2: 1, 9: 1},
        )
        engine = build_engine(
            fault_plan=plan, search_params=SearchParams(batch_size=32)
        )
        assert _every_part_has_live_replica(engine.plan, plan)
        res, bd = engine.search(small_ds.queries)
        _assert_identical(res, engine.reference_search(small_ds.queries))
        assert bd.faults.dead_dpus == {2, 9}

    def test_deterministic_under_fixed_seed(self, build_engine, small_ds):
        plan = FaultPlan.generate(
            NUM_DPUS,
            FaultConfig(fail_stop_fraction=0.2, transient_rate=0.1),
            seed=11,
        )
        runs = []
        for _ in range(2):
            engine = build_engine(fault_plan=plan)
            res, bd = engine.search(small_ds.queries)
            runs.append((res, bd.faults))
        _assert_identical(runs[0][0], runs[1][0])
        assert runs[0][1].task_retries == runs[1][1].task_retries
        assert runs[0][1].uncovered == runs[1][1].uncovered
        assert runs[0][1].backoff_seconds == runs[1][1].backoff_seconds


class TestGracefulDegradation:
    def test_no_replicas_degrades_instead_of_raising(
        self, build_engine, small_ds
    ):
        plan = FaultPlan(
            num_dpus=NUM_DPUS,
            config=FaultConfig(fail_stop_fraction=0.1),
            fail_at_batch={0: 0, 7: 0},
        )
        engine = build_engine(fault_plan=plan, max_copies=0)
        res, bd = engine.search(small_ds.queries)
        stats = bd.faults
        assert stats.degraded
        assert 0.0 < stats.degraded_fraction <= 1.0
        assert stats.availability == 1.0 - stats.degraded_fraction
        for q in stats.degraded_queries:
            assert stats.coverage(q) < 1.0
        # Served queries still return valid (possibly partial) top-k.
        assert res.ids.shape == (len(small_ds.queries), 10)
        covered = [
            q for q in range(len(small_ds.queries))
            if q not in stats.degraded_queries
        ]
        ref = engine.reference_search(small_ds.queries)
        np.testing.assert_array_equal(
            np.sort(res.distances[covered], axis=1),
            np.sort(ref.distances[covered], axis=1),
        )

    def test_blacklist_persists_across_searches(self, build_engine, small_ds):
        plan = FaultPlan(
            num_dpus=NUM_DPUS,
            config=FaultConfig(fail_stop_fraction=0.1),
            fail_at_batch={4: 0},
        )
        engine = build_engine(fault_plan=plan)
        _, bd1 = engine.search(small_ds.queries)
        assert bd1.faults.task_retries > 0
        # Second search: the scheduler already knows DPU 4 is dead, so
        # nothing is assigned there and nothing needs re-dispatching.
        res2, bd2 = engine.search(small_ds.queries)
        assert bd2.faults.task_retries == 0
        _assert_identical(res2, engine.reference_search(small_ds.queries))


class TestTimingAndValidation:
    def test_stragglers_slow_the_run_not_the_answers(
        self, build_engine, small_ds
    ):
        derates = np.ones(NUM_DPUS)
        derates[[1, 6]] = 0.4
        plan = FaultPlan(
            num_dpus=NUM_DPUS, config=FaultConfig(), derates=derates
        )
        slow = build_engine(fault_plan=plan)
        fast = build_engine()
        res_s, bd_s = slow.search(small_ds.queries)
        _, bd_f = fast.search(small_ds.queries)
        _assert_identical(res_s, slow.reference_search(small_ds.queries))
        assert bd_s.pim_seconds > bd_f.pim_seconds

    def test_cl_on_pim_rejects_capacity_faults(self, build_engine):
        plan = FaultPlan(
            num_dpus=NUM_DPUS,
            config=FaultConfig(),
            fail_at_batch={0: 0},
        )
        with pytest.raises(ValueError, match="cluster_locate_on"):
            build_engine(
                fault_plan=plan,
                search_params=SearchParams(cluster_locate_on="pim"),
            )

    def test_num_dpus_mismatch_rejected(self, build_engine):
        with pytest.raises(ValueError, match="DPUs"):
            build_engine(fault_plan=FaultPlan.none(NUM_DPUS + 1))


class TestFaultRoundsAcrossPlans:
    """Fault-plan rounds take whatever data-plane path the plan asks.

    Dead-DPU tasks leave a round before its functional pass, and
    transients, timeouts and stragglers are charged after it, so the
    planner needs no fault special case: every plan must return the
    serial plan's ids, distances, kernel cycles and fault stats, byte
    for byte.
    """

    PLANS = ("serial", "vectorized", "pool", "auto")

    def _run(self, small_ds, small_quantized, small_params, plan):
        fault_plan = FaultPlan.generate(
            NUM_DPUS,
            FaultConfig(
                fail_stop_fraction=0.15,
                fail_stop_max_batch=2,
                straggler_fraction=0.2,
                transient_rate=0.2,
                transfer_timeout_rate=0.2,
            ),
            seed=5,
        )
        config = EngineConfig(
            index=small_params,
            search=SearchParams(batch_size=32, execution="chunked", plan=plan),
            system=PimSystemConfig(
                num_dpus=NUM_DPUS,
                shard_workers=2 if plan in ("pool", "auto") else 0,
            ),
            layout=LayoutConfig(min_split_size=400, max_copies=2),
            faults=fault_plan,
        )
        with DrimAnnEngine.from_config(
            small_ds.base,
            config,
            heat_queries=small_ds.queries[:50],
            prebuilt_quantized=small_quantized,
            seed=0,
        ) as engine:
            outcome = engine.search(small_ds.queries)
            return outcome, dict(engine.system.planner.decisions)

    def test_every_plan_matches_serial(
        self, small_ds, small_quantized, small_params
    ):
        runs = {
            plan: self._run(small_ds, small_quantized, small_params, plan)
            for plan in self.PLANS
        }
        ref, ref_paths = runs["serial"]
        stats = ref.breakdown.faults
        # The seeded plan fires all three event kinds.
        assert stats.dead_dpus and stats.straggler_dpus
        assert stats.transient_faults > 0 and stats.task_retries > 0
        assert set(ref_paths) == {"serial"}
        for plan in self.PLANS[1:]:
            out, paths = runs[plan]
            np.testing.assert_array_equal(out.results.ids, ref.results.ids)
            np.testing.assert_array_equal(
                out.results.distances, ref.results.distances
            )
            assert out.breakdown.kernel_cycles == ref.breakdown.kernel_cycles
            assert out.breakdown.faults == stats, plan
        # Fault rounds are no longer forced serial.
        assert "vectorized" in runs["vectorized"][1]
        assert "pool" in runs["pool"][1]
