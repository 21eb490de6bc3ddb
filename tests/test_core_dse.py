import pytest

from repro.core.accuracy import AccuracyTable
from repro.core.dse import DesignSpaceExplorer
from repro.core.params import WRAM_RESERVE_BYTES, DatasetShape, IndexParams
from repro.core.perf_model import HardwareProfile
from repro.pim.config import DpuConfig, PimSystemConfig


@pytest.fixture(scope="module")
def dse():
    shape = DatasetShape(num_points=1_000_000, dim=128, num_queries=1000)
    return DesignSpaceExplorer(
        shape,
        HardwareProfile.for_pim(PimSystemConfig(num_dpus=256)),
        nlist_values=[512, 1024, 2048],
        nprobe_values=[4, 8, 16, 32],
        m_values=[16, 32],
        cb_values=[256],
        k=10,
    )


def _fake_accuracy(params: IndexParams) -> float:
    """Synthetic but realistically-shaped accuracy surface."""
    base = 0.45 + 0.1 * (params.num_subspaces / 32)
    probe_gain = 0.35 * min(params.nprobe / 16, 1.0)
    nlist_penalty = 0.05 * (params.nlist / 2048)
    return min(base + probe_gain - nlist_penalty, 0.99)


class TestObjective:
    def test_invalid_m_pruned(self):
        shape = DatasetShape(num_points=1000, dim=100, num_queries=10)
        d = DesignSpaceExplorer(
            shape,
            HardwareProfile.for_cpu(),
            nlist_values=[16],
            nprobe_values=[2],
            m_values=[3, 10, 20],  # only 10 and 20 divide 100
        )
        assert d.space.size == 2

    def test_all_m_invalid_raises(self):
        shape = DatasetShape(num_points=1000, dim=100, num_queries=10)
        with pytest.raises(ValueError, match="divide"):
            DesignSpaceExplorer(
                shape,
                HardwareProfile.for_cpu(),
                nlist_values=[16],
                nprobe_values=[2],
                m_values=[3],
            )

    def test_wram_infeasible_scored_inf(self, dse):
        assert dse.objective({"nlist": 512, "nprobe": 4, "m": 32, "cb": 99999}) == float("inf")

    def test_nprobe_gt_nlist_infeasible(self, dse):
        assert dse.objective({"nlist": 512, "nprobe": 1024, "m": 16, "cb": 256}) == float("inf")

    def test_wram_limit_reads_the_dpu(self):
        """The LUT-fit limit is the DPU's own WRAM minus the one module
        reserve; the explorer takes no WRAM knobs of its own."""
        shape = DatasetShape(num_points=1000, dim=64, num_queries=10)
        kw = dict(nlist_values=[16], nprobe_values=[2], m_values=[16])
        point = {"nlist": 16, "nprobe": 2, "m": 16, "cb": 256}
        lut_bytes = 16 * 256 * 4
        small = DpuConfig(wram_bytes=lut_bytes + WRAM_RESERVE_BYTES - 1)
        tight = DesignSpaceExplorer(shape, HardwareProfile.for_cpu(), dpu=small, **kw)
        roomy = DesignSpaceExplorer(shape, HardwareProfile.for_cpu(), **kw)
        assert not tight._valid(point) and roomy._valid(point)
        for stale in ("wram_bytes", "wram_reserve"):
            with pytest.raises(TypeError, match=stale):
                DesignSpaceExplorer(
                    shape, HardwareProfile.for_cpu(), **kw, **{stale: 0}
                )

    def test_objective_positive(self, dse):
        assert 0 < dse.objective({"nlist": 1024, "nprobe": 8, "m": 16, "cb": 256}) < 10


class TestStaticPrevalidation:
    """Contract-based WRAM pruning ahead of the sweep (repro lint's
    resource model applied to the explorer's own grid)."""

    def _explorer(self, **kw):
        shape = DatasetShape(num_points=100_000, dim=128, num_queries=64)
        return DesignSpaceExplorer(
            shape,
            HardwareProfile.for_pim(PimSystemConfig(num_dpus=64)),
            nlist_values=[128],
            nprobe_values=[8],
            m_values=[16, 32],
            cb_values=[256],
            **kw,
        )

    def test_default_dpu_grid_unchanged(self):
        d = self._explorer()
        assert d.validate_space() == []
        p = {"nlist": 128, "nprobe": 8, "m": 32, "cb": 256}
        assert d.objective(p) < float("inf")

    def test_24_tasklets_rejects_wram_infeasible_point(self):
        """(M=32, CB=256) passes the LUT-only check (32 KB <= 56 KB) but
        overflows the full residency model at 24 tasklets — the sweep
        must never simulate it."""
        d = self._explorer(dpu=DpuConfig(num_tasklets=24))
        p = {"nlist": 128, "nprobe": 8, "m": 32, "cb": 256}
        assert 32 * 256 * 4 <= d._wram_limit  # old check would simulate it
        assert d.objective(p) == float("inf")

    def test_validate_space_explains_the_rejection(self):
        d = self._explorer(dpu=DpuConfig(num_tasklets=24))
        errors = [
            f for f in d.validate_space() if f.rule == "wram-overflow"
        ]
        assert [(f.data["m"], f.data["cb"]) for f in errors] == [(32, 256)]

    def test_feasible_points_survive(self):
        d = self._explorer(dpu=DpuConfig(num_tasklets=24))
        p = {"nlist": 128, "nprobe": 8, "m": 16, "cb": 256}
        assert d.objective(p) < float("inf")


class TestExplore:
    def test_finds_feasible_configuration(self, dse):
        res = dse.explore(_fake_accuracy, 0.8, num_iterations=16)
        assert res.found_feasible
        assert res.best_accuracy >= 0.8
        assert res.oracle_calls <= 16

    def test_best_is_cheapest_among_observed_feasible(self, dse):
        res = dse.explore(_fake_accuracy, 0.8, num_iterations=16)
        feas = [o for o in res.observations if o.feasible]
        assert res.best_modeled_seconds == min(o.objective for o in feas)

    def test_impossible_constraint(self, dse):
        res = dse.explore(lambda p: 0.1, 0.95, num_iterations=6)
        assert not res.found_feasible
        assert res.best_params is None

    def test_explore_with_table(self, dse):
        table = AccuracyTable()
        for point in dse.space.points():
            p = dse.params_of(point)
            table.record(p, _fake_accuracy(p))
        res = dse.explore_with_table(table, 0.8, num_iterations=16)
        assert res.found_feasible

    def test_prefers_cheap_configs(self, dse):
        """The chosen config should avoid needlessly large nprobe."""
        res = dse.explore(_fake_accuracy, 0.8, num_iterations=24)
        # accuracy saturates at nprobe=16; 32 is never needed
        assert res.best_params.nprobe <= 16
