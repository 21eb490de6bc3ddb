"""CL-on-PIM placement variant (cluster_locate_on="pim")."""

import numpy as np
import pytest

from repro.core import DrimAnnEngine, EngineConfig, SearchParams
from repro.pim.config import PimSystemConfig


@pytest.fixture(scope="module")
def engines(small_ds, small_quantized, small_params):
    out = {}
    for placement in ("host", "pim"):
        out[placement] = DrimAnnEngine.from_config(
            small_ds.base,
            EngineConfig(
                index=small_params,
                search=SearchParams(cluster_locate_on=placement),
                system=PimSystemConfig(num_dpus=8),
            ),
            prebuilt_quantized=small_quantized,
            seed=0,
        )
    return out


class TestClOnPim:
    def test_same_results_as_host_placement(self, engines, small_ds):
        q = small_ds.queries[:60]
        res_host, _ = engines["host"].search(q)
        res_pim, _ = engines["pim"].search(q)
        np.testing.assert_allclose(
            np.sort(res_host.distances, axis=1),
            np.sort(res_pim.distances, axis=1),
        )

    def test_cl_cycles_appear_in_breakdown(self, engines, small_ds):
        _, bd = engines["pim"].search(small_ds.queries[:60])
        assert bd.kernel_cycles.get("CL", 0.0) > 0

    def test_host_placement_has_no_cl_cycles(self, engines, small_ds):
        _, bd = engines["host"].search(small_ds.queries[:60])
        assert bd.kernel_cycles.get("CL", 0.0) == 0.0

    def test_cl_on_pim_charges_pim_time(self, engines, small_ds):
        _, bd_pim = engines["pim"].search(small_ds.queries[:60])
        _, bd_host = engines["host"].search(small_ds.queries[:60])
        assert bd_pim.pim_seconds > bd_host.pim_seconds
        assert bd_host.host_seconds > bd_pim.host_seconds

    def test_locate_requires_slices(self, small_quantized):
        from repro.pim import PimSystem, PimSystemConfig as Cfg

        s = PimSystem(Cfg(num_dpus=4))
        with pytest.raises(RuntimeError, match="centroid slices"):
            s.locate_on_pim(np.zeros((2, small_quantized.dim), dtype=np.uint8), 2)

    def test_locate_on_pim_matches_host_locate(self, engines, small_ds, small_quantized):
        q = small_ds.queries[:20]
        probes_pim, _, _ = engines["pim"].system.locate_on_pim(q, 5)
        probes_host = small_quantized.locate(q, 5)
        # Same distances (ids may differ on exact ties).
        c = small_quantized.centroids.astype(np.int64)
        qq = q.astype(np.int64)
        d = ((qq[:, None] - c[None]) ** 2).sum(-1)
        np.testing.assert_array_equal(
            np.sort(np.take_along_axis(d, probes_pim, 1), axis=1),
            np.sort(np.take_along_axis(d, probes_host, 1), axis=1),
        )
