"""The host kernels: accessor, bit-exactness, product DC/LUT/top-k, planner.

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
    EXACT_FLOAT32_LIMIT,
    EXACT_FLOAT_LIMIT,
    CodebookTerms,
    NumpyBackend,
    ProductTable,
    decode_table,
    gather_offsets,
    product_dtype,
)
from repro.pim.kernels import (
    run_lut_build,
    scan_distances,
    scan_distances_stacked,
    topk_rows,
)
from repro.pim.parallel import (
    POOL_MIN_POINTS,
    ExecutionPlanner,
    scan_jobs_stacked,
    scan_shard_group,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _residual_pairs(residuals):
    """``build_luts``'s pair operands for given residuals: each row
    against one all-zero centroid."""
    g = len(residuals)
    centroids = np.zeros((1, residuals.shape[1]), dtype=np.uint8)
    return residuals, centroids, np.arange(g), np.zeros(g, dtype=np.intp)


def _lut_dtype(residuals, books):
    """int32 when ``M * dsub * (max|r| + max|b|)**2`` fits int32 (an
    empty batch is int64)."""
    if not residuals.size:
        return np.int64
    m, _, dsub = books.shape
    r = int(np.abs(residuals.astype(np.int64)).max())
    b = int(np.abs(books.astype(np.int64)).max())
    return np.int32 if m * dsub * (r + b) ** 2 < 2**31 else np.int64


def _dc_case(rng, g, n, m, cb, dsub=2, code_dtype=np.uint8, high=200):
    """Codebooks, a centroid, ``(g, D)`` uint8 queries and ``(n, M)``
    codes of one shard."""
    books = rng.integers(-high, high + 1, size=(m, cb, dsub))
    books[0, 0, 0] = high
    cent = rng.integers(0, 256, size=m * dsub).astype(np.int64)
    queries = rng.integers(0, 256, size=(g, m * dsub)).astype(np.uint8)
    codes = rng.integers(0, cb, size=(n, m)).astype(code_dtype)
    return books, cent, queries, codes


def _product_job(books, cent, queries, codes, ids, k, backend=None):
    """The compute plane's product job over the shard: decoded
    residuals and point terms built as a data shard keeps them."""
    backend = backend or resolve_backend()
    terms = CodebookTerms(books)
    table = decode_table(terms, 255)
    off = gather_offsets(codes, books.shape[1])
    decoded = backend.decode(off, table)
    pts = backend.residual_terms(
        cent[None], np.zeros(len(codes), dtype=np.intp), off, decoded, terms
    )
    res = queries.astype(np.int64) - cent
    rows = queries.astype(table.dtype)
    return rows, decoded, ids, k, pts, np.einsum("td,td->t", res, res), None


def _product_dists(books, cent, queries, codes, backend=None):
    """The product DC's ``(g, n)`` int64 distances: one
    ``product_scan_into`` plus the row terms."""
    backend = backend or resolve_backend()
    rows, decoded, _, _, pts, row_terms, _ = _product_job(
        books, cent, queries, codes, None, 1, backend
    )
    out = np.empty((len(rows), len(decoded)), dtype=np.int64)
    backend.product_scan_into(rows, decoded, pts, out)
    return out + row_terms[:, None]


def _staged_dists(books, cent, queries, codes):
    """The staged reference: ``scan_distances`` of ``run_lut_build``'s
    LUTs of the residuals."""
    res = (queries.astype(np.int64) - cent).astype(np.int32)
    luts, _ = run_lut_build(res, books)
    return scan_distances(luts, codes)


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
        for op in ("product_scan_into", "decode", "residual_terms", "build_luts"):
            assert op in vars(type(backend))


class TestBitExactness:
    @pytest.mark.parametrize("code_dtype", [np.uint8, np.uint16])
    @pytest.mark.parametrize("name", ["auto", "numpy"])
    def test_scan_matches_reference(self, name, code_dtype):
        """The product DC equals the staged LUT scan bit for bit."""
        backend = resolve_backend(name)
        rng = _rng(1)
        for g, n in [(1, 1), (3, 40), (32, 2000)]:
            case = _dc_case(rng, g, n, 8, 64, code_dtype=code_dtype)
            got = _product_dists(*case, backend=backend)
            want = _staged_dists(*case)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["auto", "numpy"])
    def test_scan_stacked_matches_reference(self, name):
        """A stacked call of product jobs equals, job by job, the
        canonical top-k of the staged stacked LUT scan."""
        backend = resolve_backend(name)
        rng = _rng(2)
        for j, g, n in [(1, 2, 10), (4, 16, 500), (8, 32, 2000)]:
            cases = [_dc_case(rng, g, n, 8, 64) for _ in range(j)]
            ids = [rng.permutation(10 * n)[:n].astype(np.int64) for _ in range(j)]
            jobs = [
                _product_job(*case, i, 10, backend) for case, i in zip(cases, ids)
            ]
            got = scan_jobs_stacked(jobs, backend=backend)
            luts = np.stack([
                run_lut_build(
                    (q.astype(np.int64) - c).astype(np.int32), b
                )[0]
                for b, c, q, _ in cases
            ])
            dists = scan_distances_stacked(luts, np.stack([cs[3] for cs in cases]))
            for ji in range(j):
                want = topk_rows(dists[ji], ids[ji], 10)
                rows = slice(ji * g, (ji + 1) * g)
                assert np.array_equal(got[0][rows], want[0])
                assert np.array_equal(got[1][rows], want[1])

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
        """Product == staged for arbitrary shapes, incl. uint16 codes
        (CB > 256) and codebooks on both sides of float32 exactness."""
        rng = _rng(seed)
        code_dtype = np.uint8 if cb <= 256 else np.uint16
        high = (1 << 20) if seed % 2 else 100
        case = _dc_case(rng, g, n, m, cb, code_dtype=code_dtype, high=high)
        assert np.array_equal(_product_dists(*case), _staged_dists(*case))


class TestScanKernel:
    """The product scan's operand checks: codes are range-checked
    before they are decoded, and a job's operands are checked by
    ``scan_shard_group``, each error naming the operand."""

    @pytest.mark.parametrize("bad", [16, 255, -1])
    def test_codes_outside_codebook_raise(self, bad):
        """A code past CB must not decode the next subspace's codeword,
        and a negative one must not wrap to the end of the table."""
        codes = _rng(10).integers(0, 16, size=(6, 4)).astype(np.int16)
        codes[3, 2] = bad
        with pytest.raises(IndexError, match="codes"):
            gather_offsets(codes, 16)

    @pytest.mark.parametrize("n", [3, 600])
    def test_non_integer_operands_raise(self, n):
        """Float codes, point terms, row terms or dead rows are rejected
        at every job size, never truncated into an integer result."""
        rows = np.zeros((2, 4), dtype=np.float32)
        decoded = np.zeros((n, 4), dtype=np.float32)
        ids, pts, terms = np.arange(n), np.zeros(n, np.int64), np.zeros(2, np.int64)
        with pytest.raises(TypeError, match="point_terms"):
            scan_shard_group(rows, decoded, ids, 2, pts + 0.5, terms)
        with pytest.raises(TypeError, match="row_terms"):
            scan_shard_group(rows, decoded, ids, 2, pts, terms + 0.5)
        with pytest.raises(TypeError, match="dead"):
            scan_shard_group(rows, decoded, ids, 2, pts, terms, np.array([0.0]))
        with pytest.raises(TypeError, match="codes"):
            gather_offsets(np.zeros((n, 4)), 8)

    @pytest.mark.parametrize(
        "rows, decoded, pts, terms, dead, exc, match",
        [
            ((4,), (3, 4), 3, 4, None, ValueError, "rows"),
            ((2, 4), (3, 5), 3, 2, None, ValueError, "decoded"),
            ((2, 4), (3,), 3, 2, None, ValueError, "decoded"),
            ((2, 4), (3, 4), 4, 2, None, ValueError, "point_terms"),
            ((2, 4), (3, 4), 3, 3, None, ValueError, "row_terms"),
            ((2, 4), (3, 4), 3, 2, [1, 1], ValueError, "dead"),
            ((2, 4), (3, 4), 3, 2, [0, 3], ValueError, "dead"),
            ((2, 4), (3, 4), 3, 2, [[0]], ValueError, "dead"),
        ],
    )
    def test_misshapen_job_operands_raise(
        self, rows, decoded, pts, terms, dead, exc, match
    ):
        """``scan_shard_group`` rejects query rows that are not 2-D,
        decoded residuals that are not ``(n, D)``, point terms that are
        not ``(n,)``, row terms that are not ``(g,)`` and dead rows that
        are not strictly ascending 1-D rows in ``[0, n)``, each error
        naming the operand."""
        with pytest.raises(exc, match=match):
            scan_shard_group(
                np.zeros(rows, np.float32), np.zeros(decoded, np.float32),
                np.arange(3), 2, np.zeros(pts, np.int64), np.zeros(terms, np.int64),
                None if dead is None else np.array(dead),
            )

    @pytest.mark.parametrize(
        "rows, decoded, ids, k, exc, match",
        [
            (np.float32, np.float64, 3, 2, TypeError, "decoded"),
            (np.uint8, np.uint8, 3, 2, TypeError, "rows"),
            (np.float32, np.float32, 4, 2, ValueError, "ids"),
            (np.float32, np.float32, 3, 0, ValueError, "k"),
            (np.float32, np.float32, 3, 2.0, TypeError, "k"),
        ],
    )
    def test_mismatched_job_operands_raise(self, rows, decoded, ids, k, exc, match):
        """Query rows and decoded residuals must share one product dtype
        (float32, float64 or int64), ids must be ``(n,)`` and ``k`` an
        int >= 1."""
        with pytest.raises(exc, match=match):
            scan_shard_group(
                np.zeros((2, 4), rows), np.zeros((3, 4), decoded), np.arange(ids),
                k, np.zeros(3, np.int64), np.zeros(2, np.int64),
            )


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
        assert got.dtype == _lut_dtype(residuals, books)
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


class TestProductRegimes:
    """DC's product helper: :func:`product_dtype` takes float32 below
    ``2**24``, float64 below ``2**53`` and int64 past, and
    ``product_scan_into`` in the dtype it picks equals the int64 oracle
    ``terms - 2 x.r``, at each bound's edge and inside each regime."""

    #: (D, max|x|, max|row|, bound, dtype) on either side of each limit.
    EDGES = [
        (1, 4095, 4097, EXACT_FLOAT32_LIMIT - 1, np.float32),
        (3, 1365, 4097, EXACT_FLOAT32_LIMIT - 1, np.float32),
        (1, 4096, 4096, EXACT_FLOAT32_LIMIT, np.float64),
        (4, 2048, 2048, EXACT_FLOAT32_LIMIT, np.float64),
        (1, 6361 * 69431, 20394401, EXACT_FLOAT_LIMIT - 1, np.float64),
        (1, 1 << 26, 1 << 27, EXACT_FLOAT_LIMIT, np.int64),
        (4, 1 << 25, 1 << 26, EXACT_FLOAT_LIMIT, np.int64),
    ]

    @staticmethod
    def _check(x, rows, terms):
        """``product_scan_into`` in the picked dtype against the oracle;
        returns the dtype."""
        bound = x.shape[1] * int(np.abs(x).max()) * int(np.abs(rows).max())
        dtype = product_dtype(bound)
        out = np.empty((len(x), len(rows)), dtype=np.int64)
        NumpyBackend().product_scan_into(
            x.astype(dtype), rows.astype(dtype), terms, out
        )
        want = terms - 2 * (x.astype(np.int64) @ rows.astype(np.int64).T)
        assert out.tobytes() == want.tobytes()
        return dtype

    @pytest.mark.parametrize("d, xm, rm, bound, dtype", EDGES)
    def test_bound_edges(self, d, xm, rm, bound, dtype):
        """Operands whose worst partial sum sits exactly on a limit
        leave its dtype, and one just below stays in it; either way the
        result is exact, the full-magnitude rows reaching the bound."""
        assert d * xm * rm == bound
        rng = _rng(d)
        x = np.array([[xm] * d, [-xm] * d, [1] * d], dtype=np.int64)
        rows = np.concatenate(
            [np.full((1, d), rm), rng.integers(-rm, rm + 1, size=(4, d))]
        )
        terms = rng.integers(-(1 << 40), 1 << 40, size=len(rows))
        assert self._check(x, rows, terms) == dtype

    def test_float32_rounds_past_its_limit(self):
        """Past ``2**24`` a float32 product rounds (an odd integer above
        the limit), which is why the rule moves to float64 there."""
        x = np.array([[4097]])
        rows = np.array([[4097]])
        exact = int((x @ rows.T)[0, 0])
        assert exact > EXACT_FLOAT32_LIMIT and exact % 2
        rounded = np.matmul(x.astype(np.float32), rows.T.astype(np.float32))
        assert int(rounded[0, 0]) != exact
        assert product_dtype(exact) == np.float64

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 64),
        regime=st.sampled_from(["float32", "float64", "int64"]),
        g=st.integers(1, 5),
        n=st.integers(1, 7),
        seed=st.integers(0, 2**16),
    )
    def test_each_regime_equals_int64_oracle(self, d, regime, g, n, seed):
        """Operands drawn just inside each regime's bound, signed, with a
        full-magnitude row each."""
        limit = {"float32": 1 << 24, "float64": 1 << 53, "int64": 1 << 60}[regime]
        rng = _rng(seed)
        xm = int(rng.integers(1, max(2, int(np.sqrt(limit // d)))))
        rm = max(1, (limit - 1) // (d * xm))
        x = rng.integers(-xm, xm + 1, size=(g, d))
        x[0] = xm
        rows = rng.integers(-rm, rm + 1, size=(n, d))
        rows[0] = rm
        terms = rng.integers(-(1 << 40), 1 << 40, size=n)
        assert self._check(x, rows, terms) == np.dtype(regime)

    def test_decode_table_dtype(self):
        """The decode table takes the product dtype of ``D * x_max *
        max|b|``: float32 up to its edge, float64 one past it."""
        m, cb, dsub = 4, 3, 2
        edge = (EXACT_FLOAT32_LIMIT - 1) // (m * dsub * 255)
        for b_max, dtype in ((edge, np.float32), (edge + 1, np.float64)):
            books = np.zeros((m, cb, dsub), dtype=np.int64)
            books[1, 2, 1] = -b_max
            table = decode_table(CodebookTerms(books), 255)
            assert table.dtype == dtype and table.shape == (m * cb, dsub)
            np.testing.assert_array_equal(table, books.reshape(m * cb, dsub))


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
    """``CodebookTerms``, the codebook's term tables, checks its
    operand's shape."""

    def test_codebooks_must_be_3d(self):
        with pytest.raises(ValueError, match="codebooks"):
            CodebookTerms(np.zeros((4, 2), dtype=np.int16))


class TestScanTopk:
    def test_small_n_equals_topk_rows(self):
        rng = _rng(5)
        case = _dc_case(rng, 4, 100, 8, 64)
        ids = rng.permutation(100).astype(np.int64)
        got = scan_shard_group(*_product_job(*case, ids, 10), backend=resolve_backend())
        want = topk_rows(_staged_dists(*case), ids, 10)
        assert got[0].shape == got[1].shape == (4, 10)
        assert got[0].dtype == np.int64 and got[1].dtype == np.float64
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


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
            record["product_speedup"] >= MIN_SCAN_SPEEDUP
            and record["lut_speedup"] >= MIN_LUT_SPEEDUP
        )
        for key in ("lut_seconds", "encode_seconds"):
            assert record[key] > 0 and record["reference"][key] > 0
        assert record["product_seconds"] > 0
        assert record["reference"]["scan_seconds"] > 0
        assert record["product_speedup"] == (
            record["reference"]["scan_seconds"] / record["product_seconds"]
        )
        assert record["lut_speedup"] == (
            record["reference"]["lut_seconds"] / record["lut_seconds"]
        )
        assert record["encode_shape"] == {"vectors": 200, "m": 32, "cb": 128, "dsub": 4}
        assert "scan_shape" not in record and "layouts" not in record
        text = format_record(record)
        assert "LUT build" in text and "product DC" in text
        assert "encode n=200" in text and "bit_identical=True" in text

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

    def test_product_mismatch_fails_the_gate(self, monkeypatch):
        """The gate follows the product DC the search runs: a product
        off by one fails ``gate_ok`` whatever the speedups."""
        from repro.pim.backend.microbench import run_microbench

        real = numpy_backend.NumpyBackend.product_scan_into

        def off_by_one(self, x, decoded, terms, out):
            real(self, x, decoded, terms, out)
            out[0, 0] += 1

        monkeypatch.setattr(
            numpy_backend.NumpyBackend, "product_scan_into", off_by_one
        )
        record = run_microbench(repeats=1, seed=0)
        assert record["bit_identical"] is False and record["gate_ok"] is False


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
