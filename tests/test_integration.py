"""End-to-end integration tests across modules.

These exercise the whole stack the way the benchmarks do: dataset →
index → quantize → layout → PIM search → recall/timing, plus the
paper's key qualitative claims at test scale.
"""

import numpy as np

from repro.ann import recall_at_k
from repro.baselines import CpuIvfPqBaseline
from repro.core import (
    DrimAnnEngine,
    EngineConfig,
    IndexParams,
    LayoutConfig,
)
from repro.core.accuracy import measure_accuracy_table
from repro.core.dse import DesignSpaceExplorer
from repro.core.params import DatasetShape
from repro.core.perf_model import AnalyticPerfModel, HardwareProfile
from repro.data import load_dataset
from repro.pim.config import PimSystemConfig
from repro.pim.energy import EnergyModel


class TestEndToEnd:
    def test_engine_beats_unbalanced_engine(self, small_ds, small_quantized, small_params):
        """Load balancing (layout + scheduler) must beat id-order layout
        with static scheduling — the Fig. 11 direction."""
        balanced = DrimAnnEngine.from_config(
            small_ds.base,
            EngineConfig(
                index=small_params,
                system=PimSystemConfig(num_dpus=16),
                layout=LayoutConfig(min_split_size=300, max_copies=2),
            ),
            heat_queries=small_ds.queries[:50],
            prebuilt_quantized=small_quantized,
            seed=0,
        )
        unbalanced = DrimAnnEngine.from_config(
            small_ds.base,
            EngineConfig(
                index=small_params,
                system=PimSystemConfig(num_dpus=16),
                layout=LayoutConfig(
                    min_split_size=None, max_copies=0, allocation="id_order"
                ),
            ),
            prebuilt_quantized=small_quantized,
            seed=0,
        )
        _, bd_bal = balanced.search(small_ds.queries)
        _, bd_unb = unbalanced.search(small_ds.queries, with_scheduler=False)
        assert bd_bal.pim_seconds < bd_unb.pim_seconds

    def test_recall_consistent_between_engine_and_cpu_baseline(
        self, small_ds, small_params, small_engine, small_index
    ):
        cpu = CpuIvfPqBaseline(small_index)
        res_cpu = cpu.search(small_ds.queries, small_params)
        res_pim, _ = small_engine.search(small_ds.queries)
        r_cpu = recall_at_k(res_cpu.ids, small_ds.ground_truth, 10)
        r_pim = recall_at_k(res_pim.ids, small_ds.ground_truth, 10)
        assert abs(r_cpu - r_pim) < 0.12  # integer quantization tolerance

    def test_deferral_does_not_lose_queries(self, small_ds, small_quantized, small_params):
        """Aggressive filtering must still answer every query fully."""
        eng = DrimAnnEngine.from_config(
            small_ds.base,
            EngineConfig(
                index=small_params,
                system=PimSystemConfig(num_dpus=16),
                layout=LayoutConfig(min_split_size=300, max_copies=2),
            ),
            prebuilt_quantized=small_quantized,
            seed=0,
        )
        # Tighten the filter drastically.
        from repro.core.scheduler import RuntimeScheduler, SchedulerConfig

        old = eng.scheduler
        eng.scheduler = RuntimeScheduler(
            eng.plan,
            SchedulerConfig(filter_threshold=1.05, max_defer_fraction=0.25),
            old.lut_weight,
            old.point_weight,
        )
        res, _ = eng.search(small_ds.queries)
        ref = eng.reference_search(small_ds.queries)
        np.testing.assert_allclose(
            np.sort(res.distances, axis=1), np.sort(ref.distances, axis=1)
        )

    def test_dse_to_engine_pipeline(self, small_ds):
        """DSE → engine: the chosen configuration must actually meet the
        accuracy constraint when deployed."""
        table = measure_accuracy_table(
            small_ds.base,
            small_ds.queries[:60],
            small_ds.ground_truth[:60],
            nlist_values=[64],
            nprobe_values=[2, 8, 16],
            m_values=[16, 32],
            cb_values=[64],
            seed=0,
        )
        shape = DatasetShape(
            num_points=small_ds.num_base, dim=small_ds.dim, num_queries=150
        )
        dse = DesignSpaceExplorer(
            shape,
            HardwareProfile.for_pim(PimSystemConfig(num_dpus=16)),
            nlist_values=[64],
            nprobe_values=[2, 8, 16],
            m_values=[16, 32],
            cb_values=[64],
        )
        res = dse.explore_with_table(table, 0.6, num_iterations=10)
        assert res.found_feasible
        eng = DrimAnnEngine.from_config(
            small_ds.base,
            EngineConfig(index=res.best_params, system=PimSystemConfig(num_dpus=16)),
            seed=0,
        )
        out, _ = eng.search(small_ds.queries)
        assert recall_at_k(out.ids, small_ds.ground_truth, 10) >= 0.55

    def test_energy_accounting(self, small_engine, small_ds):
        _, bd = small_engine.search(small_ds.queries)
        em = EnergyModel()
        pim = em.pim_run(bd.e2e_seconds, small_engine.system.config)
        cpu = em.cpu_run(bd.e2e_seconds * 3)
        assert pim.joules > 0
        assert cpu.queries_per_joule(150) < pim.queries_per_joule(150) * 100

    def test_deep_like_dataset_pipeline(self):
        """The DEEP100M-like shape (d=96) runs through the full stack."""
        ds = load_dataset("deep-like-20k", seed=0, num_queries=60, ground_truth_k=10)
        params = IndexParams(nlist=64, nprobe=8, k=10, num_subspaces=16, codebook_size=64)
        eng = DrimAnnEngine.from_config(
            ds.base,
            EngineConfig(index=params, system=PimSystemConfig(num_dpus=8)),
            seed=0,
        )
        res, bd = eng.search(ds.queries)
        assert recall_at_k(res.ids, ds.ground_truth, 10) > 0.4
        assert bd.pim_seconds > 0


class TestQualitativeClaims:
    """The paper's directional findings, at test scale."""

    def test_lc_share_grows_with_nlist(self, small_ds):
        """Fig. 8: the bottleneck shifts from DC toward LC as nlist grows."""
        shares = {}
        for nlist in (16, 128):
            params = IndexParams(
                nlist=nlist, nprobe=4, k=10, num_subspaces=16, codebook_size=64
            )
            eng = DrimAnnEngine.from_config(
                small_ds.base,
                EngineConfig(
                    index=params,
                    system=PimSystemConfig(num_dpus=8),
                    layout=LayoutConfig(min_split_size=None, max_copies=0),
                ),
                seed=0,
            )
            _, bd = eng.search(small_ds.queries[:60])
            s = bd.kernel_shares()
            shares[nlist] = s.get("LC", 0.0) / max(s.get("DC", 1e-9), 1e-9)
        assert shares[128] > shares[16]

    def test_throughput_decreases_with_nprobe(self, small_ds, small_quantized):
        times = {}
        for nprobe in (2, 16):
            params = IndexParams(
                nlist=64, nprobe=nprobe, k=10, num_subspaces=16, codebook_size=64
            )
            eng = DrimAnnEngine.from_config(
                small_ds.base,
                EngineConfig(index=params, system=PimSystemConfig(num_dpus=8)),
                prebuilt_quantized=small_quantized,
                seed=0,
            )
            _, bd = eng.search(small_ds.queries[:60])
            times[nprobe] = bd.pim_seconds
        assert times[16] > times[2]

    def test_model_gap_positive_without_balancing(self, small_ds, small_quantized, small_params):
        """Fig. 10(b): the ideal model is faster than the imbalanced
        simulator (the gap the load balancer closes)."""
        eng = DrimAnnEngine.from_config(
            small_ds.base,
            EngineConfig(
                index=small_params,
                system=PimSystemConfig(num_dpus=16),
                layout=LayoutConfig(
                    min_split_size=None, max_copies=0, allocation="id_order"
                ),
            ),
            prebuilt_quantized=small_quantized,
            seed=0,
        )
        _, bd = eng.search(small_ds.queries, with_scheduler=False)
        shape = DatasetShape(
            num_points=small_ds.num_base,
            dim=small_ds.dim,
            num_queries=small_ds.num_queries,
        )
        model = AnalyticPerfModel(
            shape,
            HardwareProfile.for_pim(PimSystemConfig(num_dpus=16)),
            multiplier_less=True,
        )
        ideal = model.split_seconds(small_params)
        assert bd.pim_seconds > ideal
