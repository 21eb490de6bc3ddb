import numpy as np
import pytest

from repro.ann import recall_at_k
from repro.core.quantized import (
    CODEBOOK_CLIP,
    QuantizedIndexData,
    build_quantized_index,
)


class TestBuild:
    def test_dtypes(self, small_quantized):
        q = small_quantized
        assert q.centroids.dtype == np.uint8
        assert q.codebooks.dtype == np.int16
        assert np.abs(q.codebooks).max() <= CODEBOOK_CLIP

    def test_shape_passthrough(self, small_quantized, small_index):
        assert small_quantized.nlist == small_index.nlist
        assert small_quantized.num_points == small_index.num_points
        assert small_quantized.num_subspaces == small_index.pq.num_subspaces

    def test_cluster_sizes(self, small_quantized, small_index):
        np.testing.assert_array_equal(
            small_quantized.cluster_sizes(), small_index.ivf.list_sizes()
        )

    def test_rotated_index_rejected(self, small_ds):
        from repro.ann import IVFPQIndex

        idx = IVFPQIndex.build(
            small_ds.base[:2000],
            nlist=8,
            num_subspaces=16,
            codebook_size=16,
            use_opq=True,
            seed=0,
        )
        with pytest.raises(ValueError, match="rotation"):
            build_quantized_index(idx)

    def test_validation_dtype(self, small_quantized):
        with pytest.raises(TypeError, match="uint8"):
            QuantizedIndexData(
                centroids=small_quantized.centroids.astype(np.float32),
                codebooks=small_quantized.codebooks,
                cluster_ids=small_quantized.cluster_ids,
                cluster_codes=small_quantized.cluster_codes,
            )


class TestIntegerPipeline:
    def test_locate_is_exact_integer_l2(self, small_quantized, small_ds):
        q = small_ds.queries[:10]
        probes = small_quantized.locate(q, 5)
        d = (
            (q[:, None].astype(np.int64) - small_quantized.centroids[None].astype(np.int64))
            ** 2
        ).sum(-1)
        want = np.argsort(d, axis=1, kind="stable")[:, :5]
        dw = np.take_along_axis(d, want, 1)
        dg = np.take_along_axis(d, probes, 1)
        np.testing.assert_array_equal(dg, dw)

    def test_lut_is_exact(self, small_quantized, small_ds):
        res = small_quantized.residual(small_ds.queries[0], 3)
        lut = small_quantized.build_lut(res)
        m, cb, dsub = small_quantized.codebooks.shape
        want = (
            (
                res.astype(np.int64).reshape(m, 1, dsub)
                - small_quantized.codebooks.astype(np.int64)
            )
            ** 2
        ).sum(-1)
        np.testing.assert_array_equal(lut, want)

    def test_build_luts_batched(self, small_quantized, small_ds):
        rs = np.stack(
            [small_quantized.residual(small_ds.queries[i], 0) for i in range(4)]
        )
        luts = small_quantized.build_luts(rs)
        for i in range(4):
            np.testing.assert_array_equal(
                luts[i], small_quantized.build_lut(rs[i])
            )

    def test_reference_search_recall(self, small_quantized, small_ds):
        res = small_quantized.reference_search(small_ds.queries, 10, 16)
        rec = recall_at_k(res.ids, small_ds.ground_truth, 10)
        assert rec > 0.5

    def test_quantization_close_to_float_reference(
        self, small_quantized, small_index, small_ds
    ):
        """Integer rounding should cost only a little recall."""
        rq = small_quantized.reference_search(small_ds.queries, 10, 8)
        rf = small_index.search(small_ds.queries, 10, 8)
        rec_q = recall_at_k(rq.ids, small_ds.ground_truth, 10)
        rec_f = recall_at_k(rf.ids, small_ds.ground_truth, 10)
        assert abs(rec_q - rec_f) < 0.1

    def test_nprobe_bounds(self, small_quantized, small_ds):
        with pytest.raises(ValueError):
            small_quantized.locate(small_ds.queries[:1], 0)


def _copy(q, **kw):
    """A fresh instance over copies of ``q``'s arrays (the session
    fixture must stay untouched)."""
    return QuantizedIndexData(
        centroids=q.centroids.copy(),
        codebooks=q.codebooks.copy(),
        cluster_ids=[ids.copy() for ids in q.cluster_ids],
        cluster_codes=[codes.copy() for codes in q.cluster_codes],
        **kw,
    )


class TestDerivedTables:
    def test_tables_equal_fresh_casts(self, small_quantized):
        """Each derived table is the plain cast/einsum of the trained
        arrays, built once per instance."""
        q = _copy(small_quantized)
        books = q.codebooks.astype(np.int64)
        cents = q.centroids.astype(np.int64)
        terms = q.codebook_terms
        assert terms is q.codebook_terms
        np.testing.assert_array_equal(terms.books, books)
        np.testing.assert_array_equal(terms.books_t, books.transpose(0, 2, 1))
        assert terms.books_t.dtype == np.float64
        np.testing.assert_array_equal(terms.norms_sq, (books**2).sum(-1))
        assert terms.norms_sq.dtype == np.int64
        np.testing.assert_array_equal(terms.norms_f64, terms.norms_sq)
        assert terms.max_abs == int(np.abs(books).max())
        np.testing.assert_array_equal(q.centroids_i64, cents)
        assert q.centroid_norms_sq.dtype == np.int64
        np.testing.assert_array_equal(
            q.centroid_norms_sq, (cents**2).sum(-1)[None, :]
        )

    def test_locate_bit_exact(self):
        """A canonical engine's locate, first call (builds the tables)
        and second (reads them), equals a fresh instance's over copies
        of the same arrays, distances included."""
        from repro.testing import build_canonical_engine, canonical_dataset

        q = canonical_dataset().queries[:16]
        quant = build_canonical_engine("split-replicated").quantized
        first = quant.locate_with_distances(q, 4)
        again = quant.locate_with_distances(q, 4)
        fresh = _copy(quant).locate_with_distances(q, 4)
        for got in (again, fresh):
            np.testing.assert_array_equal(got[0], first[0])
            np.testing.assert_array_equal(got[1], first[1])


class TestPickle:
    @pytest.mark.parametrize("tombstones", [False, True])
    @pytest.mark.parametrize("warm", [False, True])
    def test_round_trip_is_bit_identical(
        self, small_quantized, small_ds, tombstones, warm
    ):
        """A restored index (pickled with or without its derived tables
        built, with or without tombstones) locates, encodes and
        searches bit-identically to the original."""
        import pickle

        q = _copy(small_quantized)
        if tombstones:
            assert q.delete(np.concatenate(q.cluster_ids)[::7]) > 0
        queries = small_ds.queries[:12]
        if warm:
            q.locate(queries, 4)
            q.encode(small_ds.base[:5])
        got = pickle.loads(pickle.dumps(q))
        assert got.num_tombstones == q.num_tombstones
        np.testing.assert_array_equal(got.locate(queries, 8), q.locate(queries, 8))
        vectors = small_ds.base[:40]
        for a, b in zip(got.encode(vectors), q.encode(vectors)):
            np.testing.assert_array_equal(a, b)
        want = q.reference_search(queries, 10, 8)
        res = got.reference_search(queries, 10, 8)
        np.testing.assert_array_equal(res.ids, want.ids)
        np.testing.assert_array_equal(res.distances, want.distances)
