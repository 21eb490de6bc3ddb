"""HBM-PIM platform preset (paper §II-B portability claim)."""

import numpy as np

from repro.core import DrimAnnEngine, EngineConfig, LayoutConfig
from repro.pim.config import hbm_pim_system_config, scaled_system_config


class TestHbmConfig:
    def test_capacity_is_bounded(self):
        """Total capacity fixed: more units -> less memory per unit."""
        few = hbm_pim_system_config(num_units=128)
        many = hbm_pim_system_config(num_units=1024)
        assert few.dpu.mram_bytes > many.dpu.mram_bytes
        assert (
            few.num_dpus * few.dpu.mram_bytes
            == many.num_dpus * many.dpu.mram_bytes
        )

    def test_stronger_per_unit_compute_than_upmem(self):
        hbm = hbm_pim_system_config(64).dpu
        upmem = scaled_system_config(64).dpu
        hbm_rate = hbm.frequency_hz * hbm.effective_ipc * hbm.compute_scale
        upmem_rate = upmem.frequency_hz * upmem.effective_ipc * upmem.compute_scale
        assert hbm_rate > 5 * upmem_rate

    def test_capacity_smaller_than_upmem(self):
        hbm = hbm_pim_system_config(2048)
        upmem = scaled_system_config(2048)
        assert (
            hbm.num_dpus * hbm.dpu.mram_bytes
            < upmem.num_dpus * upmem.dpu.mram_bytes
        )


class TestEngineOnHbm:
    def test_engine_runs_unchanged(self, small_ds, small_quantized, small_params):
        eng = DrimAnnEngine.from_config(
            small_ds.base,
            EngineConfig(
                index=small_params,
                system=hbm_pim_system_config(num_units=16),
            ),
            prebuilt_quantized=small_quantized,
            seed=0,
        )
        res, bd = eng.search(small_ds.queries[:30])
        ref = eng.reference_search(small_ds.queries[:30])
        np.testing.assert_allclose(
            np.sort(res.distances, axis=1), np.sort(ref.distances, axis=1)
        )
        assert bd.pim_seconds > 0

    def test_hbm_faster_per_unit_on_compute_bound_work(
        self, small_ds, small_quantized, small_params
    ):
        times = {}
        for name, cfg in (
            ("upmem", scaled_system_config(16)),
            ("hbm", hbm_pim_system_config(num_units=16)),
        ):
            eng = DrimAnnEngine.from_config(
                small_ds.base,
                EngineConfig(
                    index=small_params,
                    system=cfg,
                    layout=LayoutConfig(min_split_size=400, max_copies=1),
                ),
                prebuilt_quantized=small_quantized,
                seed=0,
            )
            _, bd = eng.search(small_ds.queries[:50])
            times[name] = bd.pim_seconds
        assert times["hbm"] < times["upmem"]
