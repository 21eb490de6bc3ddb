import json

import numpy as np
import pytest

from repro.ann import recall_at_k
from repro.core import (
    DrimAnnEngine,
    EngineConfig,
    IndexParams,
    LayoutConfig,
    SearchParams,
)
from repro.pim.config import PimSystemConfig


def _assert_same_results(res, ref):
    """Results must match up to ties at the k-th distance."""
    np.testing.assert_allclose(
        np.sort(res.distances, axis=1), np.sort(ref.distances, axis=1)
    )


class TestBuild:
    def test_report_fields(self, small_engine):
        rep = small_engine.report
        assert rep.num_shards >= small_engine.quantized.nlist
        assert rep.layout_heat_per_dpu.shape == (16,)
        assert rep.offline_transfer_seconds > 0

    def test_wram_overflow_rejected(self, small_ds):
        params = IndexParams(
            nlist=16, nprobe=2, k=10, num_subspaces=64, codebook_size=512
        )
        with pytest.raises(ValueError, match="WRAM"):
            DrimAnnEngine.from_config(
                small_ds.base[:2000],
                EngineConfig(index=params),
                seed=0,
            )

    def test_nlist_mismatch_rejected(self, small_ds, small_quantized):
        params = IndexParams(nlist=32, nprobe=4, k=10, num_subspaces=16, codebook_size=64)
        with pytest.raises(ValueError, match="nlist"):
            DrimAnnEngine.from_config(
                small_ds.base,
                EngineConfig(index=params),
                prebuilt_quantized=small_quantized,
                seed=0,
            )


class TestSearchCorrectness:
    def test_matches_reference(self, small_engine, small_ds):
        res, _ = small_engine.search(small_ds.queries)
        ref = small_engine.reference_search(small_ds.queries)
        _assert_same_results(res, ref)

    def test_static_policy_matches_reference(self, small_engine, small_ds):
        res, _ = small_engine.search(small_ds.queries, with_scheduler=False)
        ref = small_engine.reference_search(small_ds.queries)
        _assert_same_results(res, ref)

    def test_layout_invariance(self, small_ds, small_quantized, small_params):
        """Same results for radically different layouts."""
        ref = None
        for cfg in (
            LayoutConfig(min_split_size=None, max_copies=0),
            LayoutConfig(min_split_size=150, max_copies=2),
            LayoutConfig(min_split_size=None, max_copies=0, allocation="id_order"),
        ):
            eng = DrimAnnEngine.from_config(
                small_ds.base,
                EngineConfig(
                    index=small_params,
                    system=PimSystemConfig(num_dpus=8),
                    layout=cfg,
                ),
                prebuilt_quantized=small_quantized,
                seed=0,
            )
            res, _ = eng.search(small_ds.queries[:60])
            if ref is None:
                ref = res
            else:
                _assert_same_results(res, ref)

    def test_batch_size_invariance(self, small_ds, small_quantized, small_params):
        engines = []
        for bs in (16, 64):
            engines.append(
                DrimAnnEngine.from_config(
                    small_ds.base,
                    EngineConfig(
                        index=small_params,
                        search=SearchParams(batch_size=bs),
                        system=PimSystemConfig(num_dpus=8),
                    ),
                    prebuilt_quantized=small_quantized,
                    seed=0,
                )
            )
        r1, _ = engines[0].search(small_ds.queries[:50])
        r2, _ = engines[1].search(small_ds.queries[:50])
        _assert_same_results(r1, r2)

    def test_recall_meets_floor(self, small_engine, small_ds):
        res, _ = small_engine.search(small_ds.queries)
        rec = recall_at_k(res.ids, small_ds.ground_truth, 10)
        assert rec > 0.5

    def test_query_dim_checked(self, small_engine):
        with pytest.raises(ValueError, match="dim"):
            small_engine.search(np.zeros((2, 3), dtype=np.uint8))


class TestTiming:
    def test_breakdown_structure(self, small_engine, small_ds):
        _, bd = small_engine.search(small_ds.queries)
        assert bd.num_queries == small_ds.num_queries
        assert bd.pim_seconds > 0
        assert bd.e2e_seconds >= bd.pim_seconds * 0.99
        shares = bd.kernel_shares()
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        assert set(shares) >= {"LC", "DC"}

    def test_scheduler_improves_balance(self, small_engine, small_ds):
        _, with_sched = small_engine.search(small_ds.queries)
        _, without = small_engine.search(small_ds.queries, with_scheduler=False)
        assert with_sched.mean_busy_fraction >= without.mean_busy_fraction

    def test_multiplier_less_faster(
        self, small_ds, small_quantized, small_params
    ):
        times = {}
        for ml in (True, False):
            eng = DrimAnnEngine.from_config(
                small_ds.base,
                EngineConfig(
                    index=small_params,
                    search=SearchParams(multiplier_less=ml),
                    system=PimSystemConfig(num_dpus=8),
                ),
                prebuilt_quantized=small_quantized,
                seed=0,
            )
            _, bd = eng.search(small_ds.queries[:60])
            times[ml] = bd.pim_seconds
        assert times[True] < times[False]

    def test_compute_scale_speeds_up(
        self, small_ds, small_quantized, small_params
    ):
        times = {}
        for scale in (1.0, 5.0):
            eng = DrimAnnEngine.from_config(
                small_ds.base,
                EngineConfig(
                    index=small_params,
                    system=PimSystemConfig(num_dpus=8).with_compute_scale(scale),
                ),
                prebuilt_quantized=small_quantized,
                seed=0,
            )
            _, bd = eng.search(small_ds.queries[:60])
            times[scale] = bd.pim_seconds
        assert times[5.0] < times[1.0]


def _bad_operands(good):
    """The three malformed-input kinds, built from a valid uint8 block."""
    nan = good[:2].astype(np.float64)
    nan[0, 3] = np.nan
    frac = good[:2].astype(np.float64)
    frac[1, 0] += 0.5
    wide = good[:2].astype(np.int64)
    wide[0, 0] = 256
    return {
        "finite": nan,
        "integer values": frac,
        r"\[0, 255\]": wide,
    }


class TestBoundaryValidation:
    """Malformed operands are rejected where the integer pipeline
    starts, naming the argument — never truncated or wrapped."""

    @pytest.mark.parametrize("kind", ["finite", "integer values", r"\[0, 255\]"])
    def test_search_rejects(self, small_engine, small_ds, kind):
        bad = _bad_operands(small_ds.queries)[kind]
        with pytest.raises(ValueError, match=f"queries.*{kind}"):
            small_engine.search(bad)

    @pytest.mark.parametrize("kind", ["finite", "integer values", r"\[0, 255\]"])
    def test_add_rejects_before_mutating(self, small_engine, small_ds, kind):
        bad = _bad_operands(small_ds.base)[kind]
        before = small_engine.quantized.num_points
        with pytest.raises(ValueError, match=f"vectors.*{kind}"):
            small_engine.add(bad)
        assert small_engine.quantized.num_points == before

    def test_search_rejects_fractional_probes(self, small_engine, small_ds):
        q = small_ds.queries[:4]
        probes = small_engine.quantized.locate(q, small_engine.params.nprobe)
        with pytest.raises(ValueError, match="probes.*integer"):
            small_engine.search(q, probes=probes.astype(np.float64) + 0.7)

    def test_search_rejects_probe_ids_below_padding(self, small_engine, small_ds):
        q = small_ds.queries[:4]
        probes = small_engine.quantized.locate(q, small_engine.params.nprobe)
        probes[0, 1] = -7
        with pytest.raises(ValueError, match="probes.*-7"):
            small_engine.search(q, probes=probes)
        probes[0, 1] = -1  # the padding value itself is fine
        small_engine.search(q, probes=probes)

    def test_query_dtype_does_not_move_the_ledger(self, small_engine, small_ds):
        q = small_ds.queries[:20]
        want = small_engine.search(q)
        for dtype in (np.float64, np.int64):
            got = small_engine.search(q.astype(dtype))
            np.testing.assert_array_equal(got.results.ids, want.results.ids)
            assert json.dumps(got.breakdown.to_dict(), sort_keys=True) == json.dumps(
                want.breakdown.to_dict(), sort_keys=True
            )

    def test_integral_floats_search_like_uint8(self, small_engine, small_ds):
        q = small_ds.queries[:6]
        res, _ = small_engine.search(q)
        res_f, _ = small_engine.search(q.astype(np.float32))
        np.testing.assert_array_equal(res.ids, res_f.ids)
        np.testing.assert_array_equal(res.distances, res_f.distances)
