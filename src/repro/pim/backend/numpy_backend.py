"""The host kernels: fused NumPy, no extra dependencies.

Same values as the reference kernels in :mod:`repro.pim.kernels`,
restructured for speed. Only the raw array math lives here — no cost
accounting: callers charge the modeled PIM cycles separately from
closed forms, which keeps ledgers independent of the host kernels.

**Scan** (DC) is one gather-then-reduce kernel (:meth:`NumpyBackend.scan_into`):

* a shard's ``(n, M)`` codes become ``(M, n)`` flat offsets into the
  ``(g, M*CB)`` LUT rows (``code + m*CB``, :func:`gather_offsets`).
  The PIM system builds them once per shard and keeps them resident
  next to the shard, the way the codes sit in MRAM;
  :func:`~repro.pim.parallel.scan_shard_group` builds them per call;
* each slab of LUT rows is one ``np.take`` of those offsets, a
  row-major ``(rows, M, n)`` gather, reduced over ``M`` into int64 —
  at the bench shape several times faster than the staged reference's
  3-index gather. The slab's transient gather stays within
  :data:`LUT_CHUNK_BYTES`; when a single row's ``(M, n)`` gather would
  not, that row is gathered in column slabs instead;
* a job of ``g >= 2`` rows over ``n >= 8 * CB`` points whose whole
  gather fits the budget is scanned query-major (:func:`scan_layout`):
  its tables are transposed once to ``(M*CB, g)``, so each offset
  gathers ``g`` contiguous entries (an ``(M, n, g)`` gather, same
  bytes). At M 32, CB 128 that takes 0.36-0.61 of the row-major time
  at n 3,456 (g >= 4) but 0.94-2.2 at n 150, hence the ``n`` floor;
* when a sum of ``M`` LUT entries always fits int32 (``M *
  max|entry| < 2**31``, always true for the quantized pipeline, whose
  entries are bounded by ``dim * CODEBOOK_CLIP**2``) the gathers run
  on int32 LUTs, halving gather traffic, and reduce in int32, about
  twice as fast as an int64 reduction; every partial sum is exact, and
  the int64 output holds it unchanged. :meth:`NumpyBackend.build_luts`
  returns such LUTs as int32 already; other callers take the gather
  view of their LUTs (:func:`_gather_view`): int32 when the sums fit,
  else int64, reduced in int64.

Flat offsets carry no per-subspace bounds, so :func:`gather_offsets`
checks codes against ``[0, CB)`` before any offset exists
(:class:`IndexError`, where a code past ``CB`` would otherwise read the
next subspace's entry and a negative one would wrap), and non-integer
LUTs or codes are rejected with :class:`TypeError` rather than
silently truncated.

**LUT build** (LC, :meth:`NumpyBackend.build_luts`) takes (query,
centroid) pairs: task ``t``'s residual is ``q - c`` for ``q =
queries[qrows[t]]`` and ``c = centroids[crows[t]]``. Per subspace ``m``
and codeword ``b`` it uses the exact IVF-PQ identity (Jegou et al.,
TPAMI 2011)::

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
difference/einsum path over the residuals instead. The output comes in
the scans' gather dtype: int32 when ``M`` times that bound fits int32
(every table entry, partial sum and ``M``-entry scan sum then does; the
tables are cast once and the pairs assembled in int32), else int64.
Assembly and the fallback run in row slabs of at most
:data:`LUT_CHUNK_BYTES` of transient data. The codebook operands (int64
and transposed float64 books, ``||b||^2``, the encoder's table,
``max|b|``) come as one
:class:`CodebookTerms`, built once by whoever owns the codebooks
(``PimSystem.codebook_terms``, ``QuantizedIndexData.codebook_terms``),
so the backend itself holds no state.

**Term tables** split the same identity without a per-task LUT, for
the search's compute plane: :meth:`NumpyBackend.query_terms` (per
query, scanned at a point's codes) and :meth:`NumpyBackend.point_terms`
(per point, once per shard); the caller adds ``||q - c||^2``. The
search's round path no longer calls :meth:`NumpyBackend.build_luts`;
the worker pool still does.

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

#: Byte budget for one slab of a kernel's transient arrays (a scan's
#: ``(rows, M, n)`` gather, a LUT build's pair assembly, the
#: fallback's int64 difference tensor, or a shard group's ``(rows, n)``
#: distances before top-k); bounds memory without affecting values.
LUT_CHUNK_BYTES = 32 * 1024 * 1024

#: Points per codeword from which a job of two or more LUT rows scans
#: query-major (:func:`scan_layout`): the per-job transpose of its
#: ``g * M * CB`` table entries pays back only at ``n`` several ``CB``.
QUERY_MAJOR_POINTS_PER_CODE = 8

_I32_MAX = np.iinfo(np.int32).max


def _gather_view(luts: np.ndarray) -> np.ndarray:
    """The ``(..., M, CB)`` integer LUTs as int32 when a sum of ``M``
    entries always fits int32, else as int64.

    An int32 view halves the gather traffic of the hot loop, and the
    scan then also accumulates in int32 (:func:`_scan_rows`), about
    twice as fast as an int64 reduction; with ``M * max|entry|`` within
    int32 every partial sum is exact. Other LUTs, int32-typed ones
    included, are gathered as int64 and reduced into int64.
    """
    if luts.size == 0:
        return luts
    bound = max(-int(luts.min()), int(luts.max())) * luts.shape[-2]
    return luts.astype(np.int32 if bound <= _I32_MAX else np.int64, copy=False)


def gather_offsets(codes: np.ndarray, cb: int) -> np.ndarray:
    """The range-checked ``(M, n)`` intp scan offsets ``code + m*cb`` of
    ``(n, M)`` codes.

    Raises :class:`IndexError` for a code outside ``[0, cb)`` and
    :class:`TypeError` for non-integer codes, so every offset
    :meth:`NumpyBackend.scan_into` receives is in bounds. Costs
    ``8 * M`` bytes per row (intp: ``np.take`` would re-cast narrower
    offsets on every call).
    """
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"codes must be (n, M), got {codes.shape}")
    if not np.issubdtype(codes.dtype, np.integer):
        raise TypeError(f"codes must be an integer array, got {codes.dtype}")
    if codes.size and (codes.min() < 0 or codes.max() >= cb):
        raise IndexError(
            f"codes must lie in [0, {cb}), got [{codes.min()}, {codes.max()}]"
        )
    off = np.ascontiguousarray(codes.T, dtype=np.intp)
    off += (np.arange(codes.shape[1], dtype=np.intp) * cb)[:, None]
    return off


def scan_layout(g: int, m: int, cb: int, n: int, itemsize: int) -> str:
    """The gather layout :func:`_scan_rows` takes for ``(g, M, CB)``
    tables of ``itemsize`` bytes over ``n`` points: ``"query-major"``
    for at least two rows, ``n >= QUERY_MAJOR_POINTS_PER_CODE * CB`` and
    a whole gather within :data:`LUT_CHUNK_BYTES`, else ``"row-major"``."""
    long = g >= 2 and n >= QUERY_MAJOR_POINTS_PER_CODE * cb
    fits = g * m * n * itemsize <= LUT_CHUNK_BYTES
    return "query-major" if long and fits else "row-major"


def _scan_rows(gather: np.ndarray, off: np.ndarray, out: np.ndarray) -> None:
    """One job's ADC scan into ``out`` (``(g, n)`` int64, may be a view).

    ``gather`` is the ``(g, M, CB)`` LUTs from :func:`_gather_view`,
    ``off`` the ``(M, n)`` offsets from :func:`gather_offsets`. Each
    slab is one gather of the offsets and one reduction over the
    subspaces — in int32 for an int32 gather view, whose sums fit, else
    in int64. A query-major job (:func:`scan_layout`) is one ``(M, n, g)``
    gather of the transposed tables, else whole rows while a row's ``(M,
    n)`` gather fits :data:`LUT_CHUNK_BYTES`, else single rows in column
    slabs that do. No checks: the offsets were range-checked when built.
    """
    g, m, cb = gather.shape
    n = off.shape[1]
    if n == 0 or g == 0:
        return
    flat = gather.reshape(g, m * cb)
    acc = np.int32 if flat.dtype == np.int32 else np.int64
    if scan_layout(g, m, cb, n, flat.itemsize) == "query-major":
        # Each offset copies g contiguous entries of the transpose.
        gathered = np.take(np.ascontiguousarray(flat.T), off, axis=0, mode="wrap")
        out[...] = np.add.reduce(gathered, axis=0, dtype=acc).T
        return
    if g * m * n * flat.itemsize <= LUT_CHUNK_BYTES:
        # The whole job is one slab (the common case): one gather.
        gathered = np.take(flat, off, axis=1, mode="wrap")
        np.add.reduce(gathered, axis=1, dtype=acc, out=out)
        return
    cols = min(n, slab_rows(m * flat.itemsize))
    step = slab_rows(m * cols * flat.itemsize)
    for r0 in range(0, g, step):
        rows = flat[r0 : r0 + step]
        for c0 in range(0, n, cols):
            # Every offset is in bounds, so the take mode only picks
            # the cheapest loop.
            gathered = np.take(rows, off[:, c0 : c0 + cols], axis=1, mode="wrap")
            np.add.reduce(
                gathered, axis=1, dtype=acc,
                out=out[r0 : r0 + step, c0 : c0 + cols],
            )


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

    def scan_into(
        self, luts: np.ndarray, off: np.ndarray, out: np.ndarray
    ) -> None:
        """Unchecked ADC scan of resident offsets: ``(g, M, CB)`` tables
        from :meth:`build_luts` or :meth:`query_terms` (int32 ones must:
        their sums are taken in int32) x ``(M, n)`` offsets from
        :func:`gather_offsets` -> ``(g, n)`` int64 written into ``out``,
        which may be a view into a wider block. The job's shape picks
        the gather layout (:func:`scan_layout`), never its values."""
        _scan_rows(luts, off, out)

    def query_terms(self, queries: np.ndarray, terms: CodebookTerms) -> np.ndarray:
        """``(Q, D)`` int queries -> ``(Q, M, CB)`` term tables
        ``||b||^2 - 2 q.b`` of the codebook ``terms``, int32 when ``M *
        dsub * (max|q| + max|b|)**2`` (which bounds their ``M``-entry
        sums) fits, else int64. A wrong width raises :class:`ValueError`,
        non-integer queries :class:`TypeError`."""
        m, _, dsub = terms.books.shape
        queries = _check_operand(queries, m * dsub, "queries")
        bound = m * dsub * (_max_abs(queries) + terms.max_abs) ** 2
        dtype = np.int32 if bound <= _I32_MAX else np.int64
        return _term_table(queries, terms, -2, dtype, norms=True)

    def centroid_terms(self, centroid: np.ndarray, terms: CodebookTerms) -> np.ndarray:
        """The ``(1, M, CB)`` int64 table ``2 c.b`` of a ``(D,)`` int
        centroid ``c``, checked like :meth:`query_terms`'s queries; a
        scan of it at a point's offsets is the point's term."""
        m, _, dsub = terms.books.shape
        centroid = _check_operand(centroid, m * dsub, "centroid", ndim=1)
        return _term_table(centroid[None], terms, 2, np.int64, norms=False)

    def point_terms(
        self, centroid: np.ndarray, off: np.ndarray, terms: CodebookTerms
    ) -> np.ndarray:
        """``(n,)`` int64 terms ``sum_m 2 c.b[m, code_m]`` of the points
        with ``(M, n)`` offsets (:func:`gather_offsets`) in a shard with
        ``(D,)`` int centroid ``c``: a scan of :meth:`centroid_terms`."""
        out = np.empty((1, off.shape[1]), dtype=np.int64)
        _scan_rows(self.centroid_terms(centroid, terms), off, out)
        return out[0]

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
        centroids[crows]``, int32 when every ``M``-entry sum fits int32
        (the scans' gather dtype), else int64.

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
