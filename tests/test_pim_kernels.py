import numpy as np
import pytest

from repro.ann.heap import BoundedMaxHeap
from repro.core.square_lut import SquareLut
from repro.pim.kernels import (
    expected_heap_updates,
    run_cluster_locate,
    run_distance_scan,
    run_lut_build,
    run_residual,
    run_topk_sort,
)


@pytest.fixture()
def setup(rng):
    d, m, cb, dsub, n = 32, 8, 16, 4, 50
    queries = rng.integers(0, 255, size=(3, d)).astype(np.uint8)
    centroid = rng.integers(0, 255, size=d).astype(np.uint8)
    books = rng.integers(-200, 200, size=(m, cb, dsub)).astype(np.int16)
    codes = rng.integers(0, cb, size=(n, m)).astype(np.uint8)
    ids = rng.permutation(1000)[:n].astype(np.int64)
    return queries, centroid, books, codes, ids


class TestResidual:
    def test_values(self, setup):
        q, c, *_ = setup
        res, cost = run_residual(q, c)
        np.testing.assert_array_equal(
            res, q.astype(np.int32) - c.astype(np.int32)
        )
        assert cost.kernel == "RC"

    def test_cost_scales_with_tasks(self, setup):
        q, c, *_ = setup
        _, c1 = run_residual(q[:1], c)
        _, c3 = run_residual(q, c)
        assert c3.instructions.add == 3 * c1.instructions.add
        assert c3.traffic.sequential_read == 3 * c1.traffic.sequential_read

    def test_shape_validation(self, setup):
        q, c, *_ = setup
        with pytest.raises(ValueError):
            run_residual(q, c[:-1])


class TestLutBuild:
    def test_exact_integer_lut(self, setup):
        q, c, books, *_ = setup
        res, _ = run_residual(q, c)
        luts, cost = run_lut_build(res, books)
        m, cb, dsub = books.shape
        want = (
            (
                res.astype(np.int64).reshape(3, m, 1, dsub)
                - books.astype(np.int64)[None]
            )
            ** 2
        ).sum(-1)
        np.testing.assert_array_equal(luts, want)
        assert cost.kernel == "LC"

    def test_square_lut_is_lossless(self, setup):
        q, c, books, *_ = setup
        res, _ = run_residual(q, c)
        sq = SquareLut.for_bit_width(8, levels=3)
        a, _ = run_lut_build(res, books)
        b, _ = run_lut_build(res, books, sq)
        np.testing.assert_array_equal(a, b)

    def test_multiplier_less_removes_muls(self, setup):
        q, c, books, *_ = setup
        res, _ = run_residual(q, c)
        sq = SquareLut.for_bit_width(8, levels=3)
        _, with_mul = run_lut_build(res, books)
        _, without = run_lut_build(res, books, sq)
        assert with_mul.instructions.mul > 0
        assert without.instructions.mul == 0
        assert without.instructions.load > with_mul.instructions.load

    def test_partial_lut_misses_charged(self, setup):
        q, c, books, *_ = setup
        res, _ = run_residual(q, c)
        # Tiny resident window: many lookups miss.
        sq = SquareLut.for_bit_width(8, levels=3).partial(10)
        luts, cost = run_lut_build(res, books, sq)
        assert cost.traffic.random_read > 0

    def test_dim_mismatch(self, setup):
        _, _, books, _, _ = setup
        with pytest.raises(ValueError):
            run_lut_build(np.zeros((2, 31), dtype=np.int32), books)


class TestDistanceScan:
    def test_matches_manual_gather(self, setup):
        q, c, books, codes, _ = setup
        res, _ = run_residual(q, c)
        luts, _ = run_lut_build(res, books)
        dists, cost = run_distance_scan(luts, codes)
        m = books.shape[0]
        want = luts[:, np.arange(m)[None, :], codes.astype(int)].sum(2)
        np.testing.assert_array_equal(dists, want)
        assert cost.kernel == "DC"

    def test_cost_scales_with_points(self, setup):
        q, c, books, codes, _ = setup
        res, _ = run_residual(q, c)
        luts, _ = run_lut_build(res, books)
        _, c_half = run_distance_scan(luts, codes[:25])
        _, c_full = run_distance_scan(luts, codes)
        assert c_full.instructions.add == 2 * c_half.instructions.add

    def test_code_width_mismatch(self, setup):
        q, c, books, codes, _ = setup
        res, _ = run_residual(q, c)
        luts, _ = run_lut_build(res, books)
        with pytest.raises(ValueError):
            run_distance_scan(luts, codes[:, :-1])


class TestTopkSort:
    def test_exact_topk(self, setup, rng):
        dists = rng.integers(0, 10_000, size=(4, 50)).astype(np.int64)
        ids = np.arange(50, dtype=np.int64)
        (rid, rd), cost = run_topk_sort(dists, ids, 10)
        assert rid.shape == rd.shape == (4, 10)
        np.testing.assert_array_equal(rd, np.sort(dists, axis=1)[:, :10])
        np.testing.assert_array_equal(np.take_along_axis(dists, rid, 1), rd)
        assert cost.kernel == "TS"

    def test_fewer_candidates_than_k(self, rng):
        dists = rng.integers(0, 100, size=(2, 3)).astype(np.int64)
        (rid, rd), _ = run_topk_sort(dists, np.arange(3, dtype=np.int64), 10)
        assert rid.shape == rd.shape == (2, 3)

    def test_empty_shard(self):
        (rid, rd), _ = run_topk_sort(
            np.empty((2, 0), dtype=np.int64), np.empty(0, dtype=np.int64), 5
        )
        assert rid.shape == rd.shape == (2, 0) and rid.dtype == np.int64

    def test_expected_updates_matches_heap_within_factor(self, rng):
        """The analytic estimate should track the real heap's updates."""
        n, k, trials = 2000, 10, 20
        total = 0
        for _ in range(trials):
            vals = rng.permutation(n).astype(float)
            h = BoundedMaxHeap(k)
            before = 0
            updates = 0
            for i, v in enumerate(vals):
                if v < h.worst or len(h) < k:
                    updates += 1
                h.push(float(v), i)
            total += updates
        measured = total / trials
        predicted = expected_heap_updates(n, k)
        assert 0.5 * measured < predicted < 2.0 * measured

    def test_expected_updates_small_n(self):
        assert expected_heap_updates(5, 10) == 5.0
        assert expected_heap_updates(0, 10) == 0.0


class TestClusterLocate:
    def test_finds_nearest_centroids(self, rng):
        cents = rng.integers(0, 255, size=(20, 16)).astype(np.uint8)
        q = rng.integers(0, 255, size=(5, 16)).astype(np.uint8)
        (idx, vals), cost = run_cluster_locate(q, cents, 4)
        d = (
            (q[:, None].astype(np.int64) - cents[None].astype(np.int64)) ** 2
        ).sum(-1)
        want = np.sort(d, axis=1)[:, :4]
        np.testing.assert_array_equal(np.sort(vals, axis=1), want)
        assert cost.kernel == "CL"

    def test_square_lut_variant_identical(self, rng):
        cents = rng.integers(0, 255, size=(10, 8)).astype(np.uint8)
        q = rng.integers(0, 255, size=(3, 8)).astype(np.uint8)
        sq = SquareLut.for_bit_width(8, levels=2)
        (i1, v1), _ = run_cluster_locate(q, cents, 3)
        (i2, v2), _ = run_cluster_locate(q, cents, 3, sq)
        np.testing.assert_array_equal(v1, v2)

    def test_nprobe_clamped_to_slice(self, rng):
        cents = rng.integers(0, 255, size=(3, 8)).astype(np.uint8)
        q = rng.integers(0, 255, size=(2, 8)).astype(np.uint8)
        (idx, _), _ = run_cluster_locate(q, cents, 10)
        assert idx.shape == (2, 3)
