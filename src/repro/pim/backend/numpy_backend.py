"""The host kernels: fused NumPy, no extra dependencies.

Same values as the reference kernels in :mod:`repro.pim.kernels`,
restructured for speed. Only the raw array math lives here — no cost
accounting: callers charge the modeled PIM cycles separately from
closed forms, which keeps ledgers independent of the host kernels.

**Scan** (DC) is one gather-then-reduce kernel (:meth:`NumpyBackend.scan_into`):

* a shard's ``(n, M)`` codes become ``(M, n)`` flat offsets into the
  ``(g, M*CB)`` LUT rows (``code + m*CB``, :func:`gather_offsets`).
  The PIM system builds them once per shard and keeps them resident
  next to the shard, the way the codes sit in MRAM; the public
  :meth:`NumpyBackend.scan` / :meth:`NumpyBackend.scan_stacked` build
  them per call;
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
  returns such LUTs as int32 already; the public scans take an int32
  copy of int64 ones. Other LUTs are gathered as they are and reduced
  in int64.

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
and transposed float64 books, ``||b||^2``, ``max|b|``) come as one
:class:`CodebookTerms`, built once by whoever owns the codebooks
(``PimSystem.codebook_terms``, ``QuantizedIndexData.codebook_terms``),
so the backend itself holds no state.

**Term tables** split the same identity without a per-task LUT, for
the search's compute plane: :meth:`NumpyBackend.query_terms` (per
query, scanned at a point's codes) and :meth:`NumpyBackend.point_terms`
(per point, once per shard); the caller adds ``||q - c||^2``. The
search's round path no longer calls :meth:`NumpyBackend.build_luts`;
the encoder and the worker pool still do.

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
    """The ``(..., M, CB)`` LUTs as int32 when a sum of ``M`` entries
    always fits int32, else unchanged.

    An int32 view halves the gather traffic of the hot loop, and the
    scan then also accumulates in int32 (:func:`_scan_rows`), about
    twice as fast as an int64 reduction; with ``M * max|entry|`` within
    int32 every partial sum is exact. Other LUTs are gathered as they
    are and reduced into int64.
    """
    if luts.size == 0:
        return luts
    bound = max(-int(luts.min()), int(luts.max())) * luts.shape[-2]
    if bound <= _I32_MAX:
        return luts.astype(np.int32, copy=False)
    return luts


def _check_codes(codes: np.ndarray, cb: int) -> None:
    """Reject codes that flat offsets would read wrongly instead of
    failing: non-integer codes, and codes outside ``[0, cb)``."""
    if not np.issubdtype(codes.dtype, np.integer):
        raise TypeError(f"codes must be an integer array, got {codes.dtype}")
    if codes.size and (codes.min() < 0 or codes.max() >= cb):
        raise IndexError(
            f"codes must lie in [0, {cb}), got [{codes.min()}, {codes.max()}]"
        )


def _check_scan_operands(luts: np.ndarray, codes: np.ndarray) -> None:
    """Reject non-integer LUTs, and codes :func:`_check_codes` rejects."""
    if not np.issubdtype(luts.dtype, np.integer):
        raise TypeError(f"luts must be an integer array, got {luts.dtype}")
    _check_codes(codes, luts.shape[-1])


def _offsets(codes: np.ndarray, cb: int) -> np.ndarray:
    """``(M, n)`` intp flat offsets ``code + m*cb`` of ``(n, M)`` codes."""
    off = np.ascontiguousarray(codes.T, dtype=np.intp)
    off += (np.arange(codes.shape[1], dtype=np.intp) * cb)[:, None]
    return off


def gather_offsets(codes: np.ndarray, cb: int) -> np.ndarray:
    """The range-checked ``(M, n)`` intp scan offsets of ``(n, M)`` codes.

    Raises :class:`IndexError` for a code outside ``[0, cb)`` and
    :class:`TypeError` for non-integer codes, so every offset
    :meth:`NumpyBackend.scan_into` receives is in bounds. Costs
    ``8 * M`` bytes per row (intp: ``np.take`` would re-cast narrower
    offsets on every call).
    """
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"codes must be (n, M), got {codes.shape}")
    _check_codes(codes, cb)
    return _offsets(codes, cb)


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
    float path adds without a per-call cast) and ``max_abs`` the
    largest ``|b|``, which the exactness check needs. Tables are replaced, never edited in place,
    so the terms never go stale.
    """

    __slots__ = ("books", "books_t", "norms_sq", "norms_f64", "max_abs")

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
        self.max_abs = _max_abs(self.books)


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

    def scan(self, luts: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """ADC scan: ``(g, M, CB)`` LUTs x ``(n, M)`` codes -> ``(g, n)``
        int64 distances, with no intermediate beyond a bounded gather
        slab (:func:`_scan_rows`)."""
        luts = np.asarray(luts)
        codes = np.asarray(codes)
        if luts.ndim != 3:
            raise ValueError(f"luts must be (g, M, CB), got {luts.shape}")
        if codes.ndim != 2 or codes.shape[1] != luts.shape[1]:
            raise ValueError(
                f"codes must be (n, {luts.shape[1]}), got {codes.shape}"
            )
        _check_scan_operands(luts, codes)
        out = np.empty((luts.shape[0], codes.shape[0]), dtype=np.int64)
        _scan_rows(_gather_view(luts), _offsets(codes, luts.shape[-1]), out)
        return out

    def scan_stacked(self, luts: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Stacked scan: ``(J, g, M, CB)`` x ``(J, n, M)`` ->
        ``(J, g, n)`` without a ``(J, g, n, M)`` intermediate; each job
        gathers at most a bounded slab at a time (:func:`_scan_rows`)."""
        luts = np.asarray(luts)
        codes = np.asarray(codes)
        if luts.ndim != 4:
            raise ValueError(f"luts must be (J, g, M, CB), got {luts.shape}")
        if (
            codes.ndim != 3
            or codes.shape[0] != luts.shape[0]
            or codes.shape[2] != luts.shape[2]
        ):
            raise ValueError(
                f"codes must be ({luts.shape[0]}, n, {luts.shape[2]}), "
                f"got {codes.shape}"
            )
        _check_scan_operands(luts, codes)
        gather = _gather_view(luts)
        out = np.empty(luts.shape[:2] + codes.shape[1:2], dtype=np.int64)
        for j in range(len(out)):
            _scan_rows(gather[j], _offsets(codes[j], luts.shape[-1]), out[j])
        return out

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

    def point_terms(
        self, centroid: np.ndarray, off: np.ndarray, terms: CodebookTerms
    ) -> np.ndarray:
        """``(n,)`` int64 terms ``sum_m 2 c.b[m, code_m]`` of the points
        with ``(M, n)`` offsets (:func:`gather_offsets`) in a shard with
        ``(D,)`` int centroid ``c``, checked like :meth:`query_terms`'s
        queries."""
        m, _, dsub = terms.books.shape
        centroid = _check_operand(centroid, m * dsub, "centroid", ndim=1)
        table = _term_table(centroid[None], terms, 2, np.int64, norms=False)
        out = np.empty((1, off.shape[1]), dtype=np.int64)
        _scan_rows(table, off, out)
        return out[0]

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
