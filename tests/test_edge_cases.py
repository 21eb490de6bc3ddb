"""Edge cases and failure injection across the stack."""

import numpy as np
import pytest

from repro.ann import IVFPQIndex
from repro.core import DrimAnnEngine, EngineConfig, IndexParams, LayoutConfig
from repro.core.layout import generate_layout
from repro.core.quantized import build_quantized_index
from repro.pim.config import DpuConfig, PimSystemConfig
from repro.pim.memory import CapacityError


class TestEmptyClusters:
    """Heavily skewed corpora leave some IVF lists empty; nothing may
    crash and results must stay correct."""

    @pytest.fixture(scope="class")
    def engine_with_empties(self, small_ds):
        # Force empty clusters: nlist close to the number of distinct
        # regions, built on a small slice.
        base = small_ds.base[:1500]
        params = IndexParams(nlist=48, nprobe=6, k=5, num_subspaces=16, codebook_size=16)
        idx = IVFPQIndex.build(
            base, nlist=48, num_subspaces=16, codebook_size=16, seed=0
        )
        # Manually empty a few clusters to guarantee the path is hit.
        victims = [i for i in range(3)]
        for v in victims:
            idx.ivf.lists[v] = np.empty(0, dtype=np.int64)
            idx.codes[v] = np.empty((0, 16), dtype=idx.codes[v].dtype)
        quant = build_quantized_index(idx)
        eng = DrimAnnEngine.from_config(
            base,
            EngineConfig(index=params, system=PimSystemConfig(num_dpus=4)),
            prebuilt_quantized=quant,
            seed=0,
        )
        return eng, base

    def test_search_with_empty_clusters(self, engine_with_empties, small_ds):
        eng, base = engine_with_empties
        res, _ = eng.search(small_ds.queries[:20])
        ref = eng.reference_search(small_ds.queries[:20])
        np.testing.assert_allclose(
            np.sort(res.distances, axis=1), np.sort(ref.distances, axis=1)
        )


class TestExtremeShapes:
    def test_single_dpu(self, small_ds, small_quantized, small_params):
        eng = DrimAnnEngine.from_config(
            small_ds.base,
            EngineConfig(index=small_params, system=PimSystemConfig(num_dpus=1)),
            prebuilt_quantized=small_quantized,
            seed=0,
        )
        res, bd = eng.search(small_ds.queries[:20])
        ref = eng.reference_search(small_ds.queries[:20])
        np.testing.assert_allclose(
            np.sort(res.distances, axis=1), np.sort(ref.distances, axis=1)
        )
        assert bd.mean_busy_fraction == pytest.approx(1.0)

    def test_more_dpus_than_shards(self, small_ds, small_quantized, small_params):
        eng = DrimAnnEngine.from_config(
            small_ds.base,
            EngineConfig(
                index=small_params,
                system=PimSystemConfig(num_dpus=256),
                layout=LayoutConfig(min_split_size=None, max_copies=0),
            ),
            prebuilt_quantized=small_quantized,
            seed=0,
        )
        res, _ = eng.search(small_ds.queries[:20])
        ref = eng.reference_search(small_ds.queries[:20])
        np.testing.assert_allclose(
            np.sort(res.distances, axis=1), np.sort(ref.distances, axis=1)
        )

    def test_batch_larger_than_queries(self, small_engine, small_ds):
        res, bd = small_engine.search(small_ds.queries[:10])
        assert bd.num_batches >= 1
        assert res.ids.shape == (10, 10)

    def test_single_query(self, small_engine, small_ds):
        res, _ = small_engine.search(small_ds.queries[:1])
        assert res.ids.shape == (1, 10)

    def test_nprobe_equals_nlist(self, small_ds, small_quantized):
        params = IndexParams(
            nlist=64, nprobe=64, k=10, num_subspaces=16, codebook_size=64
        )
        eng = DrimAnnEngine.from_config(
            small_ds.base,
            EngineConfig(index=params, system=PimSystemConfig(num_dpus=8)),
            prebuilt_quantized=small_quantized,
            seed=0,
        )
        res, _ = eng.search(small_ds.queries[:10])
        ref = eng.reference_search(small_ds.queries[:10])
        np.testing.assert_allclose(
            np.sort(res.distances, axis=1), np.sort(ref.distances, axis=1)
        )


class TestCapacityFailures:
    def test_corpus_too_big_for_mram(self, small_ds):
        """An undersized MRAM must fail loudly at build, not corrupt."""
        params = IndexParams(nlist=4, nprobe=2, k=5, num_subspaces=16, codebook_size=16)
        tiny_dpu = DpuConfig(mram_bytes=64 * 1024)  # 64 KB MRAM
        with pytest.raises(CapacityError):
            DrimAnnEngine.from_config(
                small_ds.base[:5000],
                EngineConfig(
                    index=params,
                    system=PimSystemConfig(num_dpus=2, dpu=tiny_dpu),
                    layout=LayoutConfig(min_split_size=None, max_copies=0),
                ),
                seed=0,
            )

    def test_duplication_respects_budget_overall(
        self, small_quantized
    ):
        """Even with max_copies high, the byte budget bounds replicas."""
        heat = np.ones(small_quantized.nlist)
        plan = generate_layout(
            small_quantized,
            4,
            heat,
            LayoutConfig(min_split_size=None, max_copies=5, dup_budget_per_dpu=1024),
        )
        extra = sum(
            len(g) - 1 for g in map(len, ())
        )
        total_copies = sum(
            plan.replica_count(c) - 1 for c in range(small_quantized.nlist)
        )
        # 4 KB total budget can hold at most a couple of tiny clusters.
        assert total_copies <= 2


class TestDtypeRobustness:
    def test_float32_corpus_via_ann_layer(self, rng):
        """The reference ANN layer (not the PIM path) accepts floats."""
        base = rng.normal(size=(2000, 16)).astype(np.float32) * 50
        idx = IVFPQIndex.build(base, nlist=16, num_subspaces=4, codebook_size=16, seed=0)
        res = idx.search(base[:5], k=3, nprobe=4)
        assert res.ids.shape == (5, 3)

    def test_uint16_codes_roundtrip(self, rng):
        """CB > 256 switches code dtype to uint16 end to end."""
        from repro.ann import ProductQuantizer

        x = rng.normal(size=(3000, 8)) * 30
        pq = ProductQuantizer.train(x, 2, codebook_size=300, seed=0)
        codes = pq.encode(x[:50])
        assert codes.dtype == np.uint16
        rec = pq.decode(codes)
        assert rec.shape == (50, 8)

    def test_large_codebook_through_pim_path(self, small_ds):
        """Paper: "DRIM-ANN supports more codebook entries" — CB=512
        (uint16 codes) must run the full PIM pipeline, provided the ADC
        LUT still fits WRAM (M=8 x 512 x 4B = 16 KB)."""
        params = IndexParams(
            nlist=16, nprobe=4, k=5, num_subspaces=8, codebook_size=512
        )
        eng = DrimAnnEngine.from_config(
            small_ds.base[:4000],
            EngineConfig(index=params, system=PimSystemConfig(num_dpus=4)),
            seed=0,
        )
        codes_dtype = eng.quantized.cluster_codes[0].dtype
        assert codes_dtype == np.uint16
        q = small_ds.queries[:15]
        res, _ = eng.search(q)
        ref = eng.reference_search(q)
        np.testing.assert_allclose(
            np.sort(res.distances, axis=1), np.sort(ref.distances, axis=1)
        )

    def test_zero_queries(self, small_engine):
        """An empty batch is a no-op, not a crash."""
        res, bd = small_engine.search(
            np.empty((0, small_engine.quantized.dim), dtype=np.uint8)
        )
        assert res.ids.shape == (0, small_engine.params.k)
        assert bd.num_batches == 0
