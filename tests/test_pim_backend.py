"""The host kernels: accessor, bit-exactness, scan/LUT/top-k, planner.

The acceptance contract of ``repro.pim.backend``: the NumPy kernels
are bit-identical to the staged reference kernels, and reject operands
they would read wrongly instead of truncating them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.square_lut import SquareLut
from repro.pim.backend import numpy_backend, resolve_backend
from repro.pim.backend.numpy_backend import (
    EXACT_FLOAT_LIMIT,
    CodebookTerms,
    NumpyBackend,
    ProductTable,
    gather_offsets,
)
from repro.pim.kernels import (
    run_lut_build,
    scan_distances,
    scan_distances_stacked,
    topk_rows,
)
from repro.pim.parallel import POOL_MIN_POINTS, ExecutionPlanner, scan_shard_group


def _rng(seed=0):
    return np.random.default_rng(seed)


def _residual_pairs(residuals):
    """``build_luts``'s pair operands for given residuals: each row
    against one all-zero centroid."""
    g = len(residuals)
    centroids = np.zeros((1, residuals.shape[1]), dtype=np.uint8)
    return residuals, centroids, np.arange(g), np.zeros(g, dtype=np.intp)


def _gather_dtype(residuals, books):
    """int32 when ``M * dsub * (max|r| + max|b|)**2`` fits int32 (an
    empty batch is int64)."""
    if not residuals.size:
        return np.int64
    m, _, dsub = books.shape
    r = int(np.abs(residuals.astype(np.int64)).max())
    b = int(np.abs(books.astype(np.int64)).max())
    return np.int32 if m * dsub * (r + b) ** 2 < 2**31 else np.int64


def _scan(luts, codes, backend=None):
    """The ADC scan of ``(g, M, CB)`` LUTs x ``(n, M)`` codes through the
    kernel entry points: the LUTs' gather view, the codes' offsets and
    one ``scan_into``."""
    out = np.empty((len(luts), len(codes)), dtype=np.int64)
    (backend or resolve_backend()).scan_into(
        numpy_backend._gather_view(luts), gather_offsets(codes, luts.shape[-1]), out
    )
    return out


def _scan_case(rng, g, n, m, cb, code_dtype=np.uint8):
    luts = rng.integers(0, 1 << 20, size=(g, m, cb)).astype(np.int64)
    codes = rng.integers(0, cb, size=(n, m)).astype(code_dtype)
    return luts, codes


class TestRegistry:
    """``resolve_backend``: the one accessor for the process-wide
    kernels. Both accepted modes name the same implementation."""

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="kernel backend"):
            resolve_backend("cuda")

    def test_explicit_numpy_resolves_numpy(self):
        assert resolve_backend("numpy").name == "numpy"

    def test_auto_resolves_silently(self):
        """``auto`` is the process-wide instance, and its class defines
        every kernel itself (wrappers installed through ``vars(cls)``
        must find them)."""
        backend = resolve_backend("auto")
        assert backend is resolve_backend() is resolve_backend("numpy")
        for op in ("scan_into", "query_terms", "point_terms", "build_luts"):
            assert op in vars(type(backend))


class TestBitExactness:
    @pytest.mark.parametrize("code_dtype", [np.uint8, np.uint16])
    @pytest.mark.parametrize("name", ["auto", "numpy"])
    def test_scan_matches_reference(self, name, code_dtype):
        backend = resolve_backend(name)
        rng = _rng(1)
        for g, n in [(1, 1), (3, 40), (32, 2000)]:
            luts, codes = _scan_case(rng, g, n, 8, 64, code_dtype)
            got = _scan(luts, codes, backend)
            want = scan_distances(luts, codes)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["auto", "numpy"])
    def test_scan_stacked_matches_reference(self, name):
        backend = resolve_backend(name)
        rng = _rng(2)
        for j, g, n in [(1, 2, 10), (4, 16, 500), (8, 32, 2000)]:
            luts = rng.integers(0, 1 << 20, size=(j, g, 8, 64)).astype(
                np.int64
            )
            codes = rng.integers(0, 64, size=(j, n, 8)).astype(np.uint8)
            got = np.stack([_scan(lut, c, backend) for lut, c in zip(luts, codes)])
            want = scan_distances_stacked(luts, codes)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["auto", "numpy"])
    def test_build_luts_matches_reference(self, name):
        backend = resolve_backend(name)
        rng = _rng(3)
        m, cb, dsub = 8, 32, 4
        residuals = rng.integers(-500, 500, size=(12, m * dsub)).astype(
            np.int32
        )
        codebooks = rng.integers(-255, 255, size=(m, cb, dsub)).astype(
            np.int16
        )
        got = backend.build_luts(
            *_residual_pairs(residuals), CodebookTerms(codebooks)
        )
        r = residuals.astype(np.int64).reshape(12, m, 1, dsub)
        want = ((r - codebooks.astype(np.int64)) ** 2).sum(axis=3)
        assert got.dtype == np.int32  # every 8-entry sum fits int32
        assert np.array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        g=st.integers(1, 6),
        n=st.integers(1, 300),
        m=st.integers(1, 8),
        cb=st.sampled_from([4, 32, 256, 300]),
        seed=st.integers(0, 2**16),
    )
    def test_fused_scan_property(self, g, n, m, cb, seed):
        """Fused == staged for arbitrary shapes, incl. uint16 codes
        (CB > 256) and LUT values spanning the int32 gather limit."""
        rng = _rng(seed)
        code_dtype = np.uint8 if cb <= 256 else np.uint16
        high = (1 << 31) if seed % 2 else (1 << 10)
        luts = rng.integers(0, high, size=(g, m, cb)).astype(np.int64)
        codes = rng.integers(0, cb, size=(n, m)).astype(code_dtype)
        assert np.array_equal(_scan(luts, codes), scan_distances(luts, codes))


class TestScanKernel:
    """The numpy backend's one gather-then-reduce scan kernel, in its
    row-major layout (these jobs are short; :class:`TestScanLayouts`
    covers the query-major one)."""

    @pytest.mark.parametrize(
        "high", [1 << 20, 1 << 40], ids=["int32-view", "int64-luts"]
    )
    def test_slabbed_scan_equals_reference(self, monkeypatch, high):
        """Under a tiny byte budget every job runs in several row
        slabs, from the int32 gather view and from int64 LUTs alike,
        and still equals the staged kernels bit for bit."""
        rng = _rng(9)
        j, g, n, m, cb = 3, 7, 30, 4, 16
        itemsize = 4 if high <= 1 << 31 else 8
        monkeypatch.setattr(numpy_backend, "LUT_CHUNK_BYTES", 2 * m * n * itemsize)
        assert numpy_backend.slab_rows(m * n * itemsize) == 2
        luts = rng.integers(0, high, size=(j, g, m, cb)).astype(np.int64)
        codes = rng.integers(0, cb, size=(j, n, m)).astype(np.uint8)
        got = _scan(luts[0], codes[0])
        assert np.array_equal(got, scan_distances(luts[0], codes[0]))
        got = np.stack([_scan(lut, c) for lut, c in zip(luts, codes)])
        assert np.array_equal(got, scan_distances_stacked(luts, codes))

    def test_int32_entries_summing_past_int32_stay_exact(self):
        """Entries that fit int32 but whose row sums overflow int32 get
        an int64 gather view, int32-typed LUTs included, so they sum
        exactly in the int64 reduction; LUTs whose sums fit get the
        int32 view (and int32 sums)."""
        g, n, m, cb = 2, 5, 4, 8
        top = np.iinfo(np.int32).max
        codes = np.zeros((n, m), dtype=np.uint8)
        want = np.full((g, n), m * top, dtype=np.int64)
        assert want[0, 0] > 1 << 31
        for dtype in (np.int64, np.int32):
            luts = np.full((g, m, cb), top, dtype=dtype)
            assert numpy_backend._gather_view(luts).dtype == np.int64
            assert numpy_backend._gather_view(luts // m).dtype == np.int32
            assert np.array_equal(_scan(luts, codes), want)
            ids, dists = scan_shard_group(luts, codes, np.arange(n), 2)
            assert np.array_equal(ids, np.tile([0, 1], (g, 1)))
            assert np.array_equal(dists, np.full((g, 2), float(m * top)))
            one = np.full((1, 4, 8), 2**30, dtype=dtype)
            _, dists = scan_shard_group(one, codes[:3], np.arange(3), 2)
            assert np.array_equal(dists, [[2.0**32, 2.0**32]])

    @pytest.mark.parametrize("sign", [1, -1])
    def test_int32_sums_at_the_bound_are_exact(self, sign):
        """At ``M * max|entry| == 2**31 - 1`` the int32 view (and its
        int32 sums) still applies, and every sum is exact."""
        g, n, m, cb = 3, 7, 4, 8
        entry = sign * (np.iinfo(np.int32).max // m)
        luts = np.full((g, m, cb), entry, dtype=np.int64)
        luts[1, :, ::2] = 0  # mixed rows
        assert numpy_backend._gather_view(luts).dtype == np.int32
        codes = _rng(12).integers(0, cb, size=(n, m)).astype(np.uint8)
        assert np.array_equal(_scan(luts, codes), scan_distances(luts, codes))

    @pytest.mark.parametrize("bad", [16, 255, -1])
    def test_codes_outside_codebook_raise(self, bad):
        """A code past CB must not read the next subspace's entry, and
        a negative one must not wrap to the end of the LUT row."""
        rng = _rng(10)
        luts, codes = _scan_case(rng, 3, 6, 4, 16, code_dtype=np.int16)
        codes[3, 2] = bad
        with pytest.raises(IndexError, match="codes"):
            gather_offsets(codes, 16)
        with pytest.raises(IndexError, match="codes"):
            scan_shard_group(luts, codes, np.arange(6), 2)

    @pytest.mark.parametrize("n", [3, 600])
    def test_non_integer_operands_raise(self, n):
        """Float LUTs or codes are rejected at every job size, never
        truncated into an integer result."""
        luts = np.full((2, 4, 8), 0.75)
        codes = np.zeros((n, 4), dtype=np.uint8)
        ids = np.arange(n)
        with pytest.raises(TypeError, match="luts"):
            scan_shard_group(luts, codes, ids, 2)
        with pytest.raises(TypeError, match="codes"):
            scan_shard_group(luts.astype(np.int64), codes.astype(np.float64), ids, 2)
        with pytest.raises(TypeError, match="codes"):
            gather_offsets(codes.astype(np.float64), 8)

    @pytest.mark.parametrize(
        "luts, codes, ids, k, exc, match",
        [
            (np.zeros((4, 8), np.int64), np.zeros((3, 4), np.uint8), 3, 2, ValueError, "luts"),
            (np.zeros((2, 4, 8), np.int64), np.zeros((3, 5), np.uint8), 3, 2, ValueError, "codes"),
            (np.zeros((2, 4, 8), np.int64), np.zeros(3, np.uint8), 3, 2, ValueError, "codes"),
            (np.zeros((2, 4, 8), np.int64), np.zeros((3, 4), np.uint8), 4, 2, ValueError, "ids"),
            (np.zeros((2, 4, 8), np.int64), np.zeros((3, 4), np.uint8), 3, 0, ValueError, "k"),
            (np.zeros((2, 4, 8), np.int64), np.zeros((3, 4), np.uint8), 3, 2.0, TypeError, "k"),
        ],
    )
    def test_misshapen_group_operands_raise(self, luts, codes, ids, k, exc, match):
        """``scan_shard_group`` rejects LUTs that are not 3-D, codes that
        are not ``(n, M)``, ids that are not ``(n,)`` and a ``k`` that
        is not an int >= 1, each error naming the operand."""
        with pytest.raises(exc, match=match):
            scan_shard_group(luts, codes, np.arange(ids), k)


_SQUARES_8 = SquareLut.for_bit_width(8, levels=3)
_SQUARES_16 = SquareLut.for_bit_width(16, levels=3)


class TestLutBuildKernel:
    """The exact LC kernel against the staged square-LUT reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        g=st.integers(0, 6),
        m=st.integers(1, 6),
        cb=st.sampled_from([1, 3, 16, 128, 300]),
        dsub=st.integers(1, 8),
        wide=st.booleans(),
        window=st.integers(0, 1 << 17),
        seed=st.integers(0, 2**16),
    )
    def test_build_luts_equals_run_lut_build(
        self, g, m, cb, dsub, wide, window, seed
    ):
        """The kernel == ``run_lut_build`` through a full and a
        partial square LUT. ``wide`` draws int16 codebook extremes and
        uint16-range residuals (through the 16-bit table); otherwise
        the engine's 8-bit operand ranges."""
        rng = _rng(seed)
        if wide:
            books = rng.integers(-(1 << 15), 1 << 15, size=(m, cb, dsub))
            books.flat[rng.integers(0, books.size, size=2)] = [-(1 << 15), (1 << 15) - 1]
            residuals = rng.integers(0, 1 << 16, size=(g, m * dsub))
            full = _SQUARES_16
        else:
            books = rng.integers(-510, 511, size=(m, cb, dsub))
            residuals = rng.integers(-255, 256, size=(g, m * dsub))
            full = _SQUARES_8
        books = books.astype(np.int16)
        residuals = residuals.astype(np.int32 if wide else np.int16)
        partial = full.partial(min(window, full.max_abs))
        want, _ = run_lut_build(residuals, books, full)
        want_p, _ = run_lut_build(residuals, books, partial)
        assert np.array_equal(want, want_p)
        got = resolve_backend().build_luts(
            *_residual_pairs(residuals), CodebookTerms(books)
        )
        assert got.dtype == _gather_dtype(residuals, books)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("wide", [False, True])
    def test_slabbed_build_equals_run_lut_build(self, monkeypatch, wide):
        """A large batch under a tiny byte budget runs in many slabs,
        on the expansion path and on the int64 fallback, and still
        equals the staged kernel row for row."""
        from repro.pim.backend import numpy_backend

        monkeypatch.setattr(numpy_backend, "LUT_CHUNK_BYTES", 3 * 4 * 16 * 8)
        rng = _rng(7)
        m, cb, dsub, g = 4, 16, 2, 50
        books = rng.integers(-510, 511, size=(m, cb, dsub)).astype(np.int16)
        residuals = rng.integers(-255, 256, size=(g, m * dsub)).astype(np.int64)
        if wide:
            residuals[g // 2, 0] = 1 << 26  # breaks the 2**53 bound
        want, _ = run_lut_build(residuals, books)
        got = NumpyBackend().build_luts(
            *_residual_pairs(residuals), CodebookTerms(books)
        )
        assert np.array_equal(got, want)

    def test_exactness_guard_falls_back(self, monkeypatch):
        """Magnitudes past the 2**53 bound take the int64 diff path and
        still return the exact integers."""
        from repro.pim.backend import numpy_backend

        calls = []
        real = numpy_backend._build_luts_int64

        def spy(residuals, codebooks, out):
            calls.append(residuals.shape)
            real(residuals, codebooks, out)

        monkeypatch.setattr(numpy_backend, "_build_luts_int64", spy)
        rng = _rng(8)
        m, cb, dsub = 2, 8, 4
        books = rng.integers(-(1 << 15), 1 << 15, size=(m, cb, dsub)).astype(np.int16)
        ok = rng.integers(0, 1 << 16, size=(3, m * dsub)).astype(np.int64)
        NumpyBackend().build_luts(*_residual_pairs(ok), CodebookTerms(books))
        assert calls == []
        big = ok.copy()
        big[1, 0] = 1 << 26  # dsub * (2**26 + 2**15)**2 > 2**53
        assert not numpy_backend.expansion_is_exact(1 << 26, 1 << 15, dsub)
        got = NumpyBackend().build_luts(
            *_residual_pairs(big), CodebookTerms(books)
        )
        assert calls == [big.shape]
        diff = big.reshape(3, m, 1, dsub) - books.astype(np.int64)
        assert np.array_equal(got, (diff * diff).sum(axis=3))

    def test_empty_batch(self):
        books = np.zeros((4, 8, 2), dtype=np.int16)
        empty = _residual_pairs(np.zeros((0, 8), dtype=np.int32))
        out = NumpyBackend().build_luts(*empty, CodebookTerms(books))
        assert out.shape == (0, 4, 8) and out.dtype == np.int64


def _exact_products(x, rows):
    """``x @ rows.T`` in Python integers: the oracle past int64 range."""
    return np.array(
        [[sum(int(a) * int(b) for a, b in zip(xr, rr)) for rr in rows] for xr in x],
        dtype=object,
    )


class TestExactProducts:
    """CL's ``q.c`` products: float64 ``matmul`` inside the ``2**53``
    guard, int64 past it, bit-identical to the int64 product."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 40),
        n=st.integers(1, 12),
        q=st.integers(0, 9),
        bits=st.integers(1, 26),
        signed=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_equals_int64_product(self, d, n, q, bits, signed, seed):
        rng = _rng(seed)
        lo = -(1 << bits) if signed else 0
        rows = rng.integers(lo, 1 << bits, size=(n, d))
        x = rng.integers(lo, 1 << bits, size=(q, d))
        table = ProductTable(rows)
        got = table.products(x)
        assert got.dtype == np.int64 and got.shape == (q, n)
        assert got.tobytes() == (x @ rows.T).tobytes()

    def test_guard_edge_is_exact(self):
        """``D * max|x| * max|row|`` just below ``2**53`` takes the
        float path, whose odd ~2**52 products are still exact."""
        v = (1 << 26) + 1
        table = ProductTable(np.array([[v], [v - 2]]))
        x = np.array([[v], [1]])
        assert 1 * v * v < EXACT_FLOAT_LIMIT
        assert table.products(x).tolist() == [[v * v, v * (v - 2)], [v, v - 2]]

    def test_wide_operands_take_int64(self, monkeypatch):
        """Past the guard (int64 rows and queries near ``2**29`` in 4
        dimensions) float64 would round the products; the table takes
        the int64 product and equals the exact integers."""
        rng = _rng(3)
        rows = rng.integers((1 << 29) - 999, 1 << 29, size=(5, 4))
        x = rng.integers((1 << 29) - 999, 1 << 29, size=(3, 4))
        assert 4 * int(x.max()) * int(rows.max()) >= EXACT_FLOAT_LIMIT
        rounded = (x.astype(np.float64) @ rows.T.astype(np.float64)).astype(np.int64)
        want = _exact_products(x, rows)
        assert (rounded != want.astype(np.int64)).any()
        calls = []
        real = np.matmul

        def spy(a, b, *args, **kw):
            calls.append(a.dtype)
            return real(a, b, *args, **kw)

        monkeypatch.setattr(numpy_backend.np, "matmul", spy)
        got = ProductTable(rows).products(x)
        monkeypatch.undo()
        assert np.float64 not in calls
        assert got.tolist() == want.tolist()

    def test_rejects_non_2d_table(self):
        with pytest.raises(ValueError, match="table"):
            ProductTable(np.zeros(4, dtype=np.int64))


def _lut_codes(residuals, books):
    """The int64 oracle: argmin over the difference-form LUT."""
    m, _, dsub = books.shape
    r = residuals.astype(np.int64).reshape(len(residuals), m, 1, dsub)
    return ((r - books.astype(np.int64)) ** 2).sum(-1).argmin(axis=2)


class TestPqEncode:
    """``pq_encode``: the first-minimum LUT argmin, by a float64
    ``matmul`` inside the exactness guard and the int64 LUT past it."""

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 5),
        cb=st.sampled_from([1, 2, 7, 16]),
        dsub=st.integers(1, 4),
        n=st.integers(0, 30),
        dups=st.integers(0, 6),
        wide=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_equals_build_luts_argmin(self, m, cb, dsub, n, dups, wide, seed):
        """Codes equal ``build_luts(...).argmin(axis=2)``, with duplicate
        codewords forcing first-minimum ties; ``wide`` codebooks (past
        the ``2**53`` guard) take the int64 LUT."""
        rng = _rng(seed)
        b_max = (1 << 27) if wide else 510
        books = rng.integers(-b_max, b_max + 1, size=(m, cb, dsub))
        books[0, 0, 0] = b_max
        for _ in range(dups):
            j, k = rng.integers(0, cb, size=2)
            books[:, max(j, k)] = books[:, min(j, k)]
        residuals = rng.integers(-255, 256, size=(n, m * dsub)).astype(np.int16)
        terms = CodebookTerms(books)
        backend = NumpyBackend()
        got = backend.pq_encode(residuals, terms)
        assert got.dtype == np.intp and got.shape == (n, m)
        want = backend.build_luts(*_residual_pairs(residuals), terms).argmin(axis=2)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, _lut_codes(residuals, books))
        exact = numpy_backend.expansion_is_exact(255, int(np.abs(books).max()), dsub)
        assert exact != wide

    @pytest.mark.parametrize("wide", [False, True])
    def test_path_follows_the_guard(self, monkeypatch, wide):
        rng = _rng(5)
        b_max = (1 << 27) if wide else 510
        books = rng.integers(-b_max, b_max + 1, size=(4, 16, 2))
        books[0, 0, 0] = b_max
        residuals = rng.integers(-255, 256, size=(9, 8))
        seen = []
        real = numpy_backend._encode_slab

        def spy(r, terms, exact, out):
            seen.append(exact)
            return real(r, terms, exact, out)

        monkeypatch.setattr(numpy_backend, "_encode_slab", spy)
        got = NumpyBackend().pq_encode(residuals, CodebookTerms(books))
        assert seen == [not wide]
        np.testing.assert_array_equal(got, _lut_codes(residuals, books))

    def test_operand_checks(self):
        terms = CodebookTerms(np.zeros((2, 4, 3), dtype=np.int16))
        backend = NumpyBackend()
        with pytest.raises(ValueError, match="residuals"):
            backend.pq_encode(np.zeros((3, 5), dtype=np.int16), terms)
        with pytest.raises(TypeError, match="residuals"):
            backend.pq_encode(np.zeros((3, 6)), terms)


class TestTermTableOperands:
    """``query_terms`` and ``point_terms`` check their operands the way
    ``build_luts`` does: dtype and shape, each error naming the
    operand."""

    BOOKS = CodebookTerms(np.arange(16, dtype=np.int16).reshape(2, 4, 2))

    @pytest.mark.parametrize(
        "kernel, operand, exc, match",
        [
            ("query_terms", np.zeros((2, 4)) + 0.5, TypeError, "queries"),
            ("query_terms", np.zeros((2, 4), dtype=bool), TypeError, "queries"),
            ("query_terms", np.zeros((2, 5), dtype=np.uint8), ValueError, "queries"),
            ("query_terms", np.zeros(4, dtype=np.uint8), ValueError, "queries"),
            ("point_terms", np.zeros(4) + 0.5, TypeError, "centroid"),
            ("point_terms", np.zeros(5, dtype=np.uint8), ValueError, "centroid"),
            ("point_terms", np.zeros((1, 4), dtype=np.uint8), ValueError, "centroid"),
        ],
    )
    def test_bad_operand_rejected(self, kernel, operand, exc, match):
        backend = resolve_backend()
        off = gather_offsets(np.zeros((3, 2), dtype=np.uint8), 4)
        with pytest.raises(exc, match=match):
            if kernel == "query_terms":
                backend.query_terms(operand, self.BOOKS)
            else:
                backend.point_terms(operand, off, self.BOOKS)

    def test_codebooks_must_be_3d(self):
        with pytest.raises(ValueError, match="codebooks"):
            CodebookTerms(np.zeros((4, 2), dtype=np.int16))


class TestScanTopk:
    def test_small_n_equals_topk_rows(self):
        rng = _rng(5)
        luts, codes = _scan_case(rng, 4, 100, 8, 64)
        ids = rng.permutation(100).astype(np.int64)
        got = scan_shard_group(luts, codes, ids, 10, backend=resolve_backend())
        want = topk_rows(scan_distances(luts, codes), ids, 10)
        assert got[0].shape == got[1].shape == (4, 10)
        assert got[0].dtype == np.int64 and got[1].dtype == np.float64
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class _TakeSpy:
    """Stands in for ``numpy`` inside the backend module and records
    the byte size and axis of every ``take`` (the scan's gathers: axis
    1 is a row-major slab, axis 0 the query-major ``(M, n, g)``
    gather)."""

    def __init__(self):
        self.sizes = []
        self.axes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def take(self, *args, **kwargs):
        out = np.take(*args, **kwargs)
        self.sizes.append(out.nbytes)
        self.axes.append(kwargs.get("axis"))
        return out


class TestScanSlabs:
    """Memory is bounded inside the scan: gathers slab by rows, and by
    columns once one row's ``(M, n)`` gather exceeds the budget; the
    shard-group scan slabs rows by its ``(rows, n)`` distance block.
    Slabs never change a value."""

    @pytest.mark.parametrize("budget", [64, 200, 1000, 4096, 1 << 20])
    def test_column_slabs_are_bit_exact_and_bounded(self, monkeypatch, budget):
        rng = _rng(8)
        g, n, m, cb, k = 5, 300, 4, 16, 7
        luts, codes = _scan_case(rng, g, n, m, cb)
        ids = rng.permutation(n).astype(np.int64)
        backend = resolve_backend()
        want_d = scan_distances(luts, codes)
        want = topk_rows(want_d, ids, k)
        spy = _TakeSpy()
        monkeypatch.setattr(numpy_backend, "LUT_CHUNK_BYTES", budget)
        monkeypatch.setattr(numpy_backend, "np", spy)
        got_d = _scan(luts, codes, backend)
        got = scan_shard_group(luts, codes, ids, k, backend=backend)
        monkeypatch.undo()
        assert np.array_equal(got_d, want_d)
        for gv, wv in zip(got, want):
            assert np.array_equal(gv, wv)
        # One gathered LUT entry is the smallest slab the scan can take.
        itemsize = numpy_backend._gather_view(luts).dtype.itemsize
        assert spy.sizes and max(spy.sizes) <= max(budget, m * itemsize)
        if budget < m * n * itemsize:
            assert max(spy.sizes) < m * n * itemsize  # a row was split

    def test_stacked_scan_column_slabs(self, monkeypatch):
        rng = _rng(9)
        luts = rng.integers(0, 1 << 20, size=(3, 2, 4, 16)).astype(np.int64)
        codes = rng.integers(0, 16, size=(3, 90, 4)).astype(np.uint8)
        want = scan_distances_stacked(luts, codes)
        monkeypatch.setattr(numpy_backend, "LUT_CHUNK_BYTES", 100)
        got = np.stack([_scan(lut, c) for lut, c in zip(luts, codes)])
        assert np.array_equal(got, want)


def _strided_out(g, n):
    """A ``(g, n)`` view into every other row of a wider int64 block,
    and the block (pre-filled, so stray writes show)."""
    block = np.full((2 * g + 1, n + 3), -7, dtype=np.int64)
    return block[1::2, 2 : n + 2], block


class TestScanLayouts:
    """The scan kernel's two gather layouts
    (:func:`numpy_backend.scan_layout`): query-major for a job of
    ``g >= 2`` rows over ``n >= 8 * CB`` points whose whole gather fits
    ``LUT_CHUNK_BYTES``, row-major slabs for every other job. The
    layout never changes a value."""

    @settings(max_examples=80, deadline=None)
    @given(
        g=st.integers(1, 40),
        extra=st.sampled_from([-1, 0, 1, 45]),
        m=st.integers(1, 5),
        cb=st.sampled_from([2, 4, 16]),
        kind=st.sampled_from(["int32", "int64", "int32-entries-past-int32"]),
        squeeze=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_scan_into_equals_reference(self, g, extra, m, cb, kind, squeeze, seed):
        """``scan_into`` (``_scan_rows``) into a strided view of a wider
        block equals the staged ``scan_distances`` bit for bit around
        the ``n = 8 * CB`` floor, for int32 tables (int32 sums), int64
        tables, and int64 tables of int32 entries whose sums pass
        int32; a job whose gather exceeds the budget stays on
        row-major slabs within it."""
        rng = _rng(seed)
        n = numpy_backend.QUERY_MAJOR_POINTS_PER_CODE * cb + extra
        if kind == "int32":
            top = np.iinfo(np.int32).max // m
            luts = rng.integers(-top, top + 1, size=(g, m, cb)).astype(np.int32)
        elif kind == "int64":
            luts = rng.integers(-(1 << 40), 1 << 40, size=(g, m, cb))
        else:
            m = max(m, 2)
            luts = rng.integers(1 << 30, 1 << 31, size=(g, m, cb))
        codes = rng.integers(0, cb, size=(n, m)).astype(np.uint8)
        want = scan_distances(luts.astype(np.int64), codes)
        if kind == "int32-entries-past-int32":
            assert want.max() > np.iinfo(np.int32).max
        gather_bytes = g * m * n * luts.itemsize
        out, block = _strided_out(g, n)
        spy = _TakeSpy()
        with pytest.MonkeyPatch.context() as mp:
            if squeeze:
                mp.setattr(numpy_backend, "LUT_CHUNK_BYTES", gather_bytes - 1)
            layout = numpy_backend.scan_layout(g, m, cb, n, luts.itemsize)
            mp.setattr(numpy_backend, "np", spy)
            NumpyBackend().scan_into(luts, gather_offsets(codes, cb), out)
        assert layout == (
            "query-major" if g >= 2 and extra >= 0 and not squeeze else "row-major"
        )
        assert set(spy.axes) == ({0} if layout == "query-major" else {1})
        if squeeze:
            assert max(spy.sizes) <= max(gather_bytes - 1, m * luts.itemsize)
        assert np.array_equal(out, want)
        block[1::2, 2 : n + 2] = -7
        assert (block == -7).all()

    def test_rule_is_shape_only(self):
        """The floor is ``n >= 8 * CB`` with two or more rows, and the
        whole gather must fit the budget."""
        cap = numpy_backend.LUT_CHUNK_BYTES
        layout = numpy_backend.scan_layout
        assert layout(2, 32, 128, 1024, 4) == "query-major"
        assert layout(2, 32, 128, 1023, 4) == "row-major"
        assert layout(1, 32, 128, 4096, 4) == "row-major"
        assert layout(200, 32, 128, 256, 4) == "row-major"
        n = cap // (2 * 32 * 4)
        assert layout(2, 32, 128, n, 4) == "query-major"
        assert layout(2, 32, 128, n + 1, 4) == "row-major"

    def test_long_shard_engine_takes_both_layouts(self, monkeypatch):
        """On an index whose shards straddle ``8 * CB`` (CB 16, split
        and replicated), every round-size cell with adaptive ``off`` and
        ``bound`` returns ``reference_search``'s ids and distances and
        the ledger of the all-row-major kernel, and both layouts ran
        for jobs of two or more rows."""
        from repro.core import (
            DrimAnnEngine,
            EngineConfig,
            IndexParams,
            LayoutConfig,
            SearchParams,
        )
        from repro.pim.config import PimSystemConfig
        from repro.testing import ROUND_SIZES, canonical_dataset

        ds = canonical_dataset()
        queries = ds.queries[:40]
        layouts = []
        real = numpy_backend._scan_rows

        def spy(gather, off, out):
            if len(gather) >= 2:
                layouts.append(
                    numpy_backend.scan_layout(
                        *gather.shape, off.shape[1], gather.itemsize
                    )
                )
            real(gather, off, out)

        def searches(batch_size):
            cfg = EngineConfig(
                index=IndexParams(
                    nlist=32, nprobe=4, k=10, num_subspaces=8, codebook_size=16
                ),
                search=SearchParams(batch_size=batch_size),
                system=PimSystemConfig(num_dpus=8),
                layout=LayoutConfig(min_split_size=150, max_copies=2),
            )
            engine = DrimAnnEngine.from_config(ds.base[:6000], cfg, seed=0)
            try:
                outs = [engine.search(queries, adaptive=a) for a in ("off", "bound")]
                return outs, engine.reference_search(queries)
            finally:
                engine.close()

        monkeypatch.setattr(numpy_backend, "_scan_rows", spy)
        for size in ROUND_SIZES.values():
            with monkeypatch.context() as mp:
                # The all-row-major kernel: no job reaches the floor.
                mp.setattr(numpy_backend, "QUERY_MAJOR_POINTS_PER_CODE", 1 << 40)
                row_major, _ = searches(size)
            del layouts[:]
            outs, ref = searches(size)
            assert {"query-major", "row-major"} <= set(layouts)
            for (res, bd), (_, bd_row) in zip(outs, row_major):
                np.testing.assert_array_equal(res.ids, ref.ids)
                np.testing.assert_array_equal(res.distances, ref.distances)
                assert bd.to_dict() == bd_row.to_dict()


class TestPlannerBackendAwareness:
    """The planner's view of the in-process path: its measured rate,
    keyed ``"vectorized"`` next to the pool's ``"pool"``."""

    def _executor(self, ready=True):
        class _Pool:
            parallel = True

            def ready(self):
                return ready

            def ensure_started(self):
                pass

        return _Pool()

    def test_measured_throughput_arbitrates(self):
        planner = ExecutionPlanner()
        executor = self._executor(ready=True)
        planner.note_round("vectorized", 10_000_000, 1.0)
        planner.note_round("pool", 1_000_000, 1.0)
        choose = dict(
            num_jobs=8, scan_points=POOL_MIN_POINTS * 2, executor=executor
        )
        # Above the floor, but the in-process path measured faster.
        assert planner.choose(**choose) == "vectorized"
        # Flip the measured rates: the pool wins the same round.
        planner.throughput["pool"] = 100_000_000.0
        assert planner.choose(**choose) == "pool"

    def test_rates_are_keyed_by_backend_name(self):
        """Only a rate keyed ``"vectorized"`` speaks for the in-process
        path: one noted under the kernel module's name decides nothing,
        so the round falls back to the size floor."""
        planner = ExecutionPlanner()
        executor = self._executor(ready=True)
        planner.note_round("numpy", 100_000_000, 1.0)  # far faster than pool
        planner.note_round("pool", 1_000, 1.0)
        choose = dict(
            num_jobs=8, scan_points=POOL_MIN_POINTS * 2, executor=executor
        )
        assert planner.choose(**choose) == "pool"
        planner.note_round("vectorized", 100_000_000, 1.0)
        assert planner.choose(**choose) == "vectorized"

    def test_note_round_ignores_degenerate_samples(self):
        planner = ExecutionPlanner()
        planner.note_round("pool", 0, 1.0)
        planner.note_round("pool", 100, 0.0)
        assert planner.throughput == {}


class TestMicrobench:
    def test_record_shape_and_gate(self):
        from repro.pim.backend.microbench import (
            MIN_LUT_SPEEDUP,
            MIN_SCAN_SPEEDUP,
            format_record,
            run_microbench,
        )

        record = run_microbench(repeats=1, seed=0)
        assert record["bit_identical"] is True
        assert record["min_scan_speedup"] == MIN_SCAN_SPEEDUP == 3.0
        assert record["min_lut_speedup"] == MIN_LUT_SPEEDUP == 3.0
        assert record["gate_ok"] == (
            record["scan_speedup"] >= MIN_SCAN_SPEEDUP
            and record["lut_speedup"] >= MIN_LUT_SPEEDUP
        )
        for key in ("scan_seconds", "lut_seconds", "encode_seconds"):
            assert record[key] > 0 and record["reference"][key] > 0
        assert record["term_scan_seconds"] > 0
        assert record["encode_shape"] == {"vectors": 200, "m": 32, "cb": 128, "dsub": 4}
        text = format_record(record)
        assert "stacked scan" in text and "LUT build" in text
        assert "encode n=200" in text
        assert "bit_identical=True" in text

    def test_encode_mismatch_fails_the_gate(self, monkeypatch):
        """The encoder's codes are part of the bit-equality gate: one
        code off fails ``gate_ok`` whatever the speedups."""
        from repro.pim.backend.microbench import run_microbench

        real = numpy_backend._encode_slab

        def off_by_one(r, terms, exact, out):
            real(r, terms, exact, out)
            out[0, 0] = (out[0, 0] + 1) % terms.books.shape[1]

        monkeypatch.setattr(numpy_backend, "_encode_slab", off_by_one)
        record = run_microbench(repeats=1, seed=0)
        assert record["bit_identical"] is False and record["gate_ok"] is False

    def test_term_scan_mismatch_fails_the_gate(self, monkeypatch):
        """The gate follows the kernel the search runs: a term-table
        scan off by one fails ``gate_ok`` whatever the speedups."""
        from repro.pim.backend import numpy_backend
        from repro.pim.backend.microbench import run_microbench

        real = numpy_backend.NumpyBackend.point_terms
        monkeypatch.setattr(
            numpy_backend.NumpyBackend, "point_terms",
            lambda self, *a: real(self, *a) + 1,
        )
        record = run_microbench(repeats=1, seed=0)
        assert record["bit_identical"] is False and record["gate_ok"] is False

    def test_gate_times_both_layouts(self, monkeypatch):
        """The stacked scan's jobs are query-major and the term-table
        scan row-major; a rule that moved both to one layout fails
        ``gate_ok`` even at bit-identical output."""
        from repro.pim.backend.microbench import run_microbench

        record = run_microbench(repeats=1, seed=0)
        assert record["layouts"] == {"scan": "query-major", "term_scan": "row-major"}
        monkeypatch.setattr(numpy_backend, "QUERY_MAJOR_POINTS_PER_CODE", 1 << 40)
        record = run_microbench(repeats=1, seed=0)
        assert set(record["layouts"].values()) == {"row-major"}
        assert record["bit_identical"] is True and record["gate_ok"] is False


class TestEngineThreading:
    def test_search_rejects_bad_backend(self, small_params):
        """A config naming a kernel backend fails when the engine is
        configured, before any search can run on it: the field is gone
        from the system config, and the accessor rejects unknown
        modes."""
        from repro.core.config import EngineConfig
        from repro.pim.config import PimSystemConfig

        saved = EngineConfig(
            index=small_params,
            system=PimSystemConfig(num_dpus=8),
        ).to_dict()
        saved["system"]["kernel_backend"] = "cuda"
        with pytest.raises(TypeError, match="kernel_backend"):
            EngineConfig.from_dict(saved)
        with pytest.raises(ValueError, match="kernel backend"):
            resolve_backend("cuda")
