"""The host kernels: fused NumPy, no extra dependencies.

Same values as the reference kernels in :mod:`repro.pim.kernels`,
restructured for speed. Only the raw array math lives here — no cost
accounting: callers charge the modeled PIM cycles separately from
closed forms, which keeps ledgers independent of the host kernels.

**Product DC** is what every search runs, in process or in the worker
pool. Over whole decoded residuals ``B`` (a point's codewords
concatenated, ``D`` integers) and a task's residual ``r = q - c`` the
distance the DPU sums from its LUT reads ``||r - B||^2 = ||r||^2 +
||B||^2 - 2 r.B`` (the IVF-PQ residual form, Jegou et al., TPAMI
2011): :meth:`NumpyBackend.decode` turns a shard's codes into ``B``,
column-major (the transposed view of a ``(D, n)`` array, so BLAS
reads ``B.T`` at unit stride), with takes of the :func:`decode_table`,
:meth:`NumpyBackend.point_norms` gives each point its int64
``||B||^2`` (a take of the codeword norms), both once per stored row,
and :meth:`NumpyBackend.product_scan_into` computes a job's ``||B||^2
- 2 R @ B.T`` over its tasks' residual rows ``R`` as one BLAS
``matmul`` into a distance slab. Every partial sum of ``r.B`` is an
integer bounded by ``D * max|r| * max|b|``, so :func:`product_dtype`
picks float32 below ``2**24`` (the benchmark's codebooks, at ``128 *
255 * 144``: uint8 queries and centroids keep ``|r| <= 255``), float64
below ``2**53`` and int64 past it, the rule :class:`ProductTable`
applies to CL. The slab and the resident point terms are int32 while
every slab value is bounded below ``2**31 - 1`` (:func:`slab_dtype`),
and then one pass adds the terms to the product of ``-2 R`` (exact: a
power-of-two scale, and a float64 add of integers below ``2**31``);
else they are int64. The DPU turns these products into LUT lookups
because it lacks a fast multiplier; the host has BLAS.

Codes are decoded through flat offsets ``code + m*CB``
(:func:`gather_offsets`), which carry no per-subspace bounds, so
:func:`gather_offsets` checks codes against ``[0, CB)`` before any
offset exists (:class:`IndexError`, where a code past ``CB`` would
otherwise read the next subspace's codeword and a negative one would
wrap), and non-integer codes are rejected with :class:`TypeError`
rather than silently truncated.

**LUT build** (LC, :meth:`NumpyBackend.build_luts`) takes (query,
centroid) pairs: task ``t``'s residual is ``q - c`` for ``q =
queries[qrows[t]]`` and ``c = centroids[crows[t]]``. Per subspace ``m``
and codeword ``b`` it uses the same identity::

    ||q - c - b||^2 = ||q - c||^2 + (||b||^2 - 2 q.b) + 2 c.b

so the codebook products are two batched float64 ``matmul`` term
tables, ``||b||^2 - 2 q.b`` over the batch's *unique* queries and
``2 c.b`` over its unique centroids, instead of one product per pair;
each task's ``(M, CB)`` LUT is then a gather of its two table rows plus
``||r_m||^2``. Every operand, product and partial sum is an integer of
magnitude at most ``dsub * (max|q| + max|c| + max|b|)**2``; while
that stays below ``2**53`` float64
represents all of them exactly, so the result is the exact integer in
any summation order. Inputs that break it take the int64
difference/einsum path over the residuals instead. The output is int32
when ``M`` times that bound fits int32 (every table entry and
``M``-entry sum then does; the tables are cast once and the pairs
assembled in int32), else int64. Assembly and the fallback run in row
slabs of at most :data:`LUT_CHUNK_BYTES` of transient data. No search
path builds LUTs; the kernel microbenchmark times this one against the
staged square-LUT build. The codebook operands (int64 and transposed
float64 books, ``||b||^2``, the encoder's table, ``max|b|``) come as
one :class:`CodebookTerms`, built once by whoever owns the codebooks
(``PimSystem.codebook_terms``, ``QuantizedIndexData.codebook_terms``),
so the backend itself holds no state.

**Encode** (:meth:`NumpyBackend.pq_encode`) drops the per-row constant
``||r||^2`` from the LUT: a residual's codes are the first-minimum
argmin of ``||b||^2 - 2 r.b``, one float64 ``matmul`` per slab against
:attr:`CodebookTerms.code_t` under the same exactness guard, else the
int64 LUT's argmin. **CL products** (:class:`ProductTable`) are one
float64 ``matmul`` against a cached float64 transpose while ``D *
max|x| * max|row| < 2**53``, else int64.

Every variant computes the identical integer values, so the outputs
are bit-identical to the reference kernels — property-tested in
``tests/test_pim_backend.py``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Largest magnitude float64 holds every integer up to (inclusive).
EXACT_FLOAT_LIMIT = 1 << 53

#: Largest magnitude float32 holds every integer up to (inclusive).
EXACT_FLOAT32_LIMIT = 1 << 24

#: Byte budget for one slab of a kernel's transient arrays (a LUT
#: build's pair assembly, the fallback's int64 difference tensor, an
#: encode slab's table, or a round slab's ``(rows, n)`` distances
#: before top-k); bounds memory without affecting values.
LUT_CHUNK_BYTES = 32 * 1024 * 1024

_I32_MAX = np.iinfo(np.int32).max

#: Points :meth:`NumpyBackend.decode` transposes into place per take, so
#: a take's ``(M, points, dsub)`` rows stay in cache for the copy.
_DECODE_CHUNK_POINTS = 1024


def gather_offsets(codes: np.ndarray, cb: int) -> np.ndarray:
    """The range-checked ``(M, n)`` intp offsets ``code + m*cb`` of
    ``(n, M)`` codes into an ``(M * cb, ...)`` table.

    Raises :class:`IndexError` for a code outside ``[0, cb)`` and
    :class:`TypeError` for non-integer codes, so every offset
    :meth:`NumpyBackend.decode` and :meth:`NumpyBackend.point_norms`
    take is in bounds (intp: ``np.take`` would re-cast narrower offsets
    on every call).
    """
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"codes must be (n, M), got {codes.shape}")
    if not np.issubdtype(codes.dtype, np.integer):
        raise TypeError(f"codes must be an integer array, got {codes.dtype}")
    if codes.size and (codes.max() >= cb or codes.dtype.kind == "i" and codes.min() < 0):
        raise IndexError(
            f"codes must lie in [0, {cb}), got [{codes.min()}, {codes.max()}]"
        )
    off = np.ascontiguousarray(codes.T, dtype=np.intp)
    off += (np.arange(codes.shape[1], dtype=np.intp) * cb)[:, None]
    return off


class CodebookTerms:
    """The derived operands of one ``(M, CB, dsub)`` integer codebook
    table, built once by its owner.

    ``books`` is the int64 table, ``books_t`` the ``(M, dsub, CB)``
    float64 transpose, ``norms_sq`` the ``(M, CB)`` int64
    ``||b_mc||^2`` (``norms_f64`` its exact float64 copy, which the
    float path adds without a per-call cast), ``code_t`` the ``(M, dsub
    + 1, CB)`` float64 ``-2 * books_t`` over a row of ``norms_f64``
    (so ``[r, 1] @ code_t`` is ``||b||^2 - 2 r.b``, the encoder's
    term), and ``max_abs`` the largest ``|b|``, which the exactness
    check needs. Tables are replaced, never edited in place, so the
    terms never go stale.
    """

    __slots__ = ("books", "books_t", "norms_sq", "norms_f64", "code_t", "max_abs")

    def __init__(self, codebooks: np.ndarray) -> None:
        codebooks = np.asarray(codebooks)
        if codebooks.ndim != 3:
            raise ValueError(
                f"codebooks must be (M, CB, dsub), got {codebooks.shape}"
            )
        self.books = codebooks.astype(np.int64)
        self.books_t = np.ascontiguousarray(
            self.books.transpose(0, 2, 1), dtype=np.float64
        )
        self.norms_sq = np.einsum("mcd,mcd->mc", self.books, self.books)
        self.norms_f64 = self.norms_sq.astype(np.float64)
        self.code_t = np.concatenate(
            [-2.0 * self.books_t, self.norms_f64[:, None, :]], axis=1
        )
        self.max_abs = _max_abs(self.books)


class ProductTable:
    """An ``(n, D)`` integer row table (the centroids) with the derived
    operands of exact products against it, built once by its owner.

    ``rows`` is the int64 table, ``rows_t`` its ``(D, n)`` float64
    transpose and ``max_abs`` its largest ``|entry|``. Tables are
    replaced, never edited in place.
    """

    __slots__ = ("rows", "rows_t", "max_abs")

    def __init__(self, table: np.ndarray) -> None:
        table = np.asarray(table)
        if table.ndim != 2:
            raise ValueError(f"table must be (n, D), got {table.shape}")
        self.rows = table.astype(np.int64, copy=False)
        self.rows_t = np.ascontiguousarray(self.rows.T, dtype=np.float64)
        self.max_abs = _max_abs(self.rows)

    def products(self, x: np.ndarray) -> np.ndarray:
        """``(q, D)`` integer rows -> ``(q, n)`` int64 ``x @ rows.T``.

        One float64 ``matmul`` while ``D * max|x| * max|row|`` is below
        ``2**53``: every product and partial sum is then an integer
        float64 holds exactly, in any summation order. Wider operands
        take the int64 product."""
        if x.shape[1] * _max_abs(x) * self.max_abs < EXACT_FLOAT_LIMIT:
            return np.matmul(x.astype(np.float64), self.rows_t).astype(np.int64)
        return x.astype(np.int64) @ self.rows.T


def product_dtype(bound: int) -> np.dtype:
    """The narrowest dtype whose products are exact for integer operands
    whose every partial dot-product sum is at most ``bound`` in
    magnitude: float32 below ``2**24``, float64 below ``2**53``, else
    int64. Below its limit a float type holds each product and partial
    sum exactly, in any summation order."""
    if bound < EXACT_FLOAT32_LIMIT:
        return np.dtype(np.float32)
    if bound < EXACT_FLOAT_LIMIT:
        return np.dtype(np.float64)
    return np.dtype(np.int64)


def decode_table(terms: "CodebookTerms", x_max: int) -> np.ndarray:
    """The ``(M * CB, dsub)`` codeword table :meth:`NumpyBackend.decode`
    takes rows from, in the :func:`product_dtype` of ``D * x_max *
    max|b|``: the dtype in which products of decoded residuals with
    ``(D,)`` rows of entries at most ``x_max`` are exact."""
    m, cb, dsub = terms.books.shape
    dtype = product_dtype(m * dsub * x_max * terms.max_abs)
    return terms.books.reshape(m * cb, dsub).astype(dtype)


def slab_dtype(terms: "CodebookTerms", x_max: int, c_max: int) -> np.dtype:
    """The dtype of DC's distance slab and resident point terms for
    codebooks ``terms``, query entries at most ``x_max`` and centroid
    entries at most ``c_max`` in magnitude: int32 when ``D * max|b| *
    (max|b| + 2 * c_max + 2 * x_max) < 2**31 - 1``, else int64.

    A residual ``r = q - c`` then has ``|r| <= x_max + c_max``, so that
    bounds every point term ``||B||^2`` and every slab value ``||B||^2
    - 2 r.B`` (:meth:`NumpyBackend.product_scan_into`), and each sits
    strictly below the int32 padding value ``2**31 - 1``."""
    m, _, dsub = terms.books.shape
    b = terms.max_abs
    bound = m * dsub * b * (b + 2 * c_max + 2 * x_max)
    return np.dtype(np.int32 if bound < _I32_MAX else np.int64)


def expansion_is_exact(residual_max_abs: int, codebook_max_abs: int, dsub: int) -> bool:
    """Whether the float64 LUT build is exact for these magnitudes.

    Every term and partial sum of ``||r||^2 - 2 r.b + ||b||^2`` is an
    integer bounded by ``dsub * (max|r| + max|b|)**2``; for the pair
    identity, ``max|q| + max|c|`` bounds ``max|r|``.
    """
    return dsub * (residual_max_abs + codebook_max_abs) ** 2 < EXACT_FLOAT_LIMIT


def slab_rows(row_bytes: int) -> int:
    """Rows per slab so one slab's transient data fits the budget
    (at least one)."""
    return max(1, LUT_CHUNK_BYTES // max(1, row_bytes))


def _max_abs(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _build_luts_int64(
    residuals: np.ndarray, terms: CodebookTerms, out: np.ndarray
) -> None:
    """The int64 difference/einsum LUT build into ``out``."""
    books = terms.books
    m, cb, dsub = books.shape
    step = slab_rows(m * cb * dsub * 8)
    for s0 in range(0, len(out), step):
        r = residuals[s0 : s0 + step].astype(np.int64)
        diff = r.reshape(len(r), m, 1, dsub) - books
        out[s0 : s0 + step] = np.einsum("gmcd,gmcd->gmc", diff, diff)


def _encode_slab(
    residuals: np.ndarray, terms: CodebookTerms, exact: bool, out: np.ndarray
) -> None:
    """One slab's PQ codes into ``out`` (``(rows, M)``): per subspace the
    first-minimum ``argmin`` over codewords of ``||b||^2 - 2 r.b``, one
    batched float64 ``matmul`` of ``[r, 1]`` against ``terms.code_t``
    (``exact``: every entry and partial sum is an integer float64
    holds), else of the int64 LUT. Both differ from the LUT ``||r -
    b||^2`` by the per-(row, subspace) constant ``||r_m||^2``, so ties
    and codes are the LUT argmin's."""
    m, cb, dsub = terms.books.shape
    if exact:
        x = np.empty((m, len(residuals), dsub + 1))
        x[:, :, :dsub] = residuals.reshape(len(residuals), m, dsub).transpose(1, 0, 2)
        x[:, :, dsub] = 1.0
        out[...] = np.matmul(x, terms.code_t).argmin(axis=2).T  # (M, rows, CB)
    else:
        luts = np.empty((len(residuals), m, cb), dtype=np.int64)
        _build_luts_int64(residuals, terms, luts)
        out[...] = luts.argmin(axis=2)


def _term_table(
    rows: np.ndarray, terms: CodebookTerms, scale: int, dtype, norms: bool
) -> np.ndarray:
    """``(u, M, CB)`` table ``scale * x.b`` (``+ ||b||^2`` with
    ``norms``) of ``(u, D)`` integer rows, cast to ``dtype``: one
    batched float64 ``matmul`` while float64 is provably exact for them
    (:func:`expansion_is_exact`), else an int64 ``einsum``."""
    m, _, dsub = terms.books.shape
    if not expansion_is_exact(_max_abs(rows), terms.max_abs, dsub):
        x = rows.astype(np.int64).reshape(len(rows), m, dsub)
        table = scale * np.einsum("umd,mcd->umc", x, terms.books)
        if norms:
            table += terms.norms_sq
        return table.astype(dtype, copy=False)
    x = rows.astype(np.float64).reshape(len(rows), m, dsub).transpose(1, 0, 2)
    table = np.matmul(x, terms.books_t)  # (M, u, CB)
    table *= scale
    if norms:
        table += terms.norms_f64[:, None, :]
    return np.ascontiguousarray(table.transpose(1, 0, 2), dtype=dtype)


def _check_operand(
    arr: np.ndarray, width: int, name: str, ndim: int = 2
) -> np.ndarray:
    """``arr`` as an integer array of rows ``width`` wide (``(n,
    width)``, or ``(width,)`` for ``ndim=1``): a wrong shape raises
    :class:`ValueError` and a non-integer array :class:`TypeError`,
    both naming ``name``. Checks dtype and shape only, never the
    data."""
    arr = np.asarray(arr)
    if arr.ndim != ndim or arr.shape[-1] != width:
        want = f"(n, {width})" if ndim == 2 else f"({width},)"
        raise ValueError(f"{name} must be {want}, got {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"{name} must be an integer array, got {arr.dtype}")
    return arr


def _check_rows(rows: np.ndarray, name: str) -> np.ndarray:
    rows = np.asarray(rows)
    if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
        raise TypeError(
            f"{name} must be a 1-D integer array, got {rows.dtype} {rows.shape}"
        )
    return rows


def _unique_rows(
    rows: np.ndarray, table: np.ndarray, name: str
) -> Tuple[np.ndarray, np.ndarray]:
    """The unique rows of ``table`` that ``rows`` names, and each row's
    index among them; :class:`IndexError` for a row outside it."""
    uniq, inverse = np.unique(rows, return_inverse=True)
    if uniq[0] < 0 or uniq[-1] >= len(table):
        raise IndexError(
            f"{name} must lie in [0, {len(table)}), got [{uniq[0]}, {uniq[-1]}]"
        )
    return table[uniq], inverse


class NumpyBackend:
    """Fused NumPy implementation of the hot kernels (see module
    docstring)."""

    name = "numpy"

    def decode(self, off: np.ndarray, table: np.ndarray) -> np.ndarray:
        """``(M, n)`` offsets (:func:`gather_offsets`) -> ``(n, M *
        dsub)`` decoded residuals, each point's codewords concatenated,
        in the :func:`decode_table`'s dtype and column-major: the
        transposed view of a C-contiguous ``(D, n)`` array, the operand
        layout BLAS reads at unit stride in ``x @ decoded.T``.

        Per :data:`_DECODE_CHUNK_POINTS` points, one take of the table
        rows, subspace-major ``(M, points, dsub)``, then one copy that
        transposes each subspace's ``(points, dsub)`` block into
        place; a whole ``(n, D)`` transpose would stride through
        memory ``D`` items apart."""
        m, n = off.shape
        dsub = table.shape[1]
        out = np.empty((m, dsub, n), dtype=table.dtype)
        for a in range(0, n, _DECODE_CHUNK_POINTS):
            b = a + _DECODE_CHUNK_POINTS
            rows = np.take(table, off[:, a:b], axis=0, mode="wrap")
            out[:, :, a:b] = rows.transpose(0, 2, 1)
        return out.reshape(m * dsub, n).T

    def point_norms(self, off: np.ndarray, terms: CodebookTerms) -> np.ndarray:
        """``(n,)`` int64 ``||B||^2`` of the points with ``(M, n)``
        offsets ``off`` (:func:`gather_offsets`): one take of the int64
        codeword norms, summed over the subspaces."""
        return np.add.reduce(np.take(terms.norms_sq, off, mode="wrap"), axis=0)

    def product_scan_into(
        self, x: np.ndarray, decoded: np.ndarray, terms: np.ndarray, out: np.ndarray
    ) -> None:
        """DC as one product: exact ``terms - 2 * x @ decoded.T`` into
        ``out``, a ``(g, n)`` distance slab (may be a view into a wider
        block) in :func:`slab_dtype`'s int32 or int64. With ``x`` the
        tasks' residuals ``q - c`` and ``terms`` the points'
        :meth:`point_norms`, a slab row is its task's distances less
        ``||q - c||^2``.

        ``x`` is ``(g, D)`` and ``decoded`` ``(n, D)`` integer rows, both
        in the :func:`product_dtype` of ``D * max|x| * max|decoded|``, so
        a float product is one BLAS ``matmul`` whose every partial sum is
        the exact integer; a column-major ``decoded`` (:meth:`decode`)
        hands BLAS a unit-stride ``(D, n)`` operand. ``terms`` is
        ``(n,)`` in ``out``'s dtype or int64.

        An int32 ``out`` asserts :func:`slab_dtype`'s bound: every
        result and term is below ``2**31 - 1`` in magnitude. Then one
        pass adds the terms to the product of ``-2 * x``, exact because
        scaling by a power of two is, and casts into ``out``: the add
        runs as a float64 loop, exact below ``2**53``. An int64 ``out``
        has no such bound, so the product is doubled into it and the
        terms are added in int64."""
        if out.dtype == np.int32:
            np.add(np.matmul(x * -2, decoded.T), terms, out=out, casting="unsafe")
            return
        if x.dtype.kind == "f":
            np.multiply(np.matmul(x, decoded.T), -2, out=out, casting="unsafe")
        else:
            np.matmul(x, decoded.T, out=out)
            out *= -2
        out += terms

    def pq_encode(self, residuals: np.ndarray, terms: CodebookTerms) -> np.ndarray:
        """``(n, D)`` int residuals -> ``(n, M)`` intp PQ codes, per
        subspace the first-minimum ``argmin`` of the residual's LUT
        against the codebook ``terms`` (the lowest codeword index wins a
        tie), bit-identical to ``build_luts(...).argmin(axis=2)``.

        While :func:`expansion_is_exact` holds, each slab is one float64
        ``matmul`` of ``[r, 1]`` against :attr:`CodebookTerms.code_t` and
        an argmin of ``||b||^2 - 2 r.b``, else an argmin of the int64
        LUT; slabs hold
        at most :data:`LUT_CHUNK_BYTES` of ``(M, rows, CB)`` table. A
        wrong width raises :class:`ValueError`, non-integer residuals
        :class:`TypeError`."""
        m, cb, dsub = terms.books.shape
        residuals = _check_operand(residuals, m * dsub, "residuals")
        out = np.empty((len(residuals), m), dtype=np.intp)
        exact = expansion_is_exact(_max_abs(residuals), terms.max_abs, dsub)
        step = slab_rows(m * cb * 8)
        for s0 in range(0, len(out), step):
            _encode_slab(residuals[s0 : s0 + step], terms, exact, out[s0 : s0 + step])
        return out

    def build_luts(
        self,
        queries: np.ndarray,
        centroids: np.ndarray,
        qrows: np.ndarray,
        crows: np.ndarray,
        terms: CodebookTerms,
    ) -> np.ndarray:
        """Batched integer LUT build over (query, centroid) pairs:
        ``(Q, D)`` int queries and ``(C, D)`` int centroids, ``(T,)``
        rows ``qrows`` / ``crows`` naming each task's pair, and the
        :class:`CodebookTerms` of ``(M, CB, dsub)`` int codebooks ->
        ``(T, M, CB)`` LUTs of the residuals ``queries[qrows] -
        centroids[crows]``, int32 when every ``M``-entry sum fits int32,
        else int64.

        The term tables are built once per unique query and per unique
        centroid and shared by their tasks; a repeated pair is
        assembled once per task. Non-integer operands raise
        :class:`TypeError`, rows outside their table
        :class:`IndexError`.
        """
        m, cb, dsub = terms.books.shape
        queries = _check_operand(queries, m * dsub, "queries")
        centroids = _check_operand(centroids, m * dsub, "centroids")
        qrows = _check_rows(qrows, "qrows")
        crows = _check_rows(crows, "crows")
        if len(qrows) != len(crows):
            raise ValueError(
                f"qrows and crows must align, got {len(qrows)} and {len(crows)}"
            )
        t = len(qrows)
        if t == 0:
            return np.empty((0, m, cb), dtype=np.int64)
        uq, qi = _unique_rows(qrows, queries, "qrows")
        uc, ci = _unique_rows(crows, centroids, "crows")
        q_max, c_max = _max_abs(uq), _max_abs(uc)
        if not expansion_is_exact(q_max + c_max, terms.max_abs, dsub):
            out = np.empty((t, m, cb), dtype=np.int64)
            residuals = queries[qrows].astype(np.int64) - centroids[crows]
            _build_luts_int64(residuals, terms, out)
            return out
        # Every table entry, partial sum and M-entry scan sum is within
        # M * dsub * (max|q| + max|c| + max|b|)**2.
        bound = m * dsub * (q_max + c_max + terms.max_abs) ** 2
        dtype = np.int32 if bound <= _I32_MAX else np.int64
        q_terms = _term_table(uq, terms, -2, dtype, norms=True)
        c_terms = _term_table(uc, terms, 2, dtype, norms=False)
        out = np.empty((t, m, cb), dtype=dtype)
        step = slab_rows(m * cb * out.itemsize)
        for s0 in range(0, t, step):
            rows = slice(s0, s0 + step)
            o = out[rows]
            # Every index is in range, so the take mode only picks the
            # unbuffered loop.
            np.take(q_terms, qi[rows], axis=0, out=o, mode="wrap")
            o += np.take(c_terms, ci[rows], axis=0, mode="wrap")
            r = (
                queries[qrows[rows]].astype(dtype)
                - centroids[crows[rows]].astype(dtype)
            ).reshape(len(o), m, dsub)
            o += np.einsum("gmd,gmd->gm", r, r)[:, :, None]
        return out
