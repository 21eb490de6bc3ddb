"""The guaranteed kernel backend: fused NumPy, no extra dependencies.

Same values as the reference kernels in :mod:`repro.pim.kernels`,
restructured for speed.

**Scan** (DC, :meth:`NumpyBackend.scan` / :meth:`NumpyBackend.scan_stacked`):

* one ``(g, n)`` gather is accumulated per subspace instead of
  materializing the staged ``(g, n, M)`` / ``(J, g, n, M)`` gather
  tensor — at the bench shape this alone is ~3-4x over the staged
  reference;
* when every LUT entry fits int32 (always true for the quantized
  pipeline, whose entries are bounded by ``dim * CODEBOOK_CLIP**2``)
  the gathers run on an int32 copy of the LUTs, halving gather
  traffic; the accumulator stays int64 so the sums are exact;
* tiny jobs (``g * n`` below :data:`FUSED_MIN_CELLS`) keep the staged
  reference path, where one big gather beats M small ones.

**LUT build** (LC, :meth:`NumpyBackend.build_luts`) is the norm
expansion ``LUT[g,m,c] = ||r_gm||^2 - 2 r_gm.c_mc + ||c_mc||^2``: one
batched float64 ``matmul`` over the subspaces, shaped
``(M, g, dsub) @ (M, dsub, CB)``, instead of the ``(g, M, CB, dsub)``
difference tensor. Every operand, product and partial sum is an integer
of magnitude at most ``dsub * (max|r| + max|c|)**2``; while that stays
below ``2**53`` float64 represents all of them exactly, so the result
is the exact integer in any summation order. The bound is checked once
per call (O(g*D)); inputs that break it take the int64
difference/einsum path instead. Both paths run in row slabs of at
most :data:`LUT_CHUNK_BYTES` of transient data, written straight into
the ``(g, M, CB)`` int64 output. The transposed float codebook,
``||c||^2`` and ``max|c|`` are cached per codebook table
(:class:`CodebookTermsCache`).

Every variant computes the identical int64 values, so the outputs are
bit-identical to the reference kernels — property-tested in
``tests/test_pim_backend.py``. No cost accounting here: callers charge
the closed forms.
"""

from __future__ import annotations

import weakref
from typing import Dict, Tuple

import numpy as np

from repro.pim.backend import KernelBackend
from repro.pim.kernels import scan_distances, scan_distances_stacked

#: Below this many output cells (``g * n``) the fused per-subspace loop
#: loses to the reference's single staged gather; the variants are
#: bit-identical, so the cutover is purely a wall-clock choice.
FUSED_MIN_CELLS = 1024

#: Largest magnitude float64 holds every integer up to (inclusive).
EXACT_FLOAT_LIMIT = 1 << 53

#: Byte budget for one row slab of a LUT build's transient arrays (the
#: float64 expansion, or the fallback's int64 difference tensor);
#: bounds memory without affecting values.
LUT_CHUNK_BYTES = 32 * 1024 * 1024

#: Codebook tables whose expansion terms one backend instance keeps.
TERMS_CACHE_ENTRIES = 8

_I32_MIN = np.iinfo(np.int32).min
_I32_MAX = np.iinfo(np.int32).max


def _gather_view(luts: np.ndarray) -> np.ndarray:
    """int32 copy of the LUTs when lossless, else the original.

    Gathering from int32 halves the memory traffic of the hot loop;
    the accumulator is int64 either way, and NumPy upcasts the gathered
    int32 values exactly, so the sums are unchanged.
    """
    if luts.size == 0 or luts.dtype.itemsize <= 4:
        return luts
    lo, hi = luts.min(), luts.max()
    if _I32_MIN <= lo and hi <= _I32_MAX:
        return luts.astype(np.int32)
    return luts


def _scan_fused(luts: np.ndarray, gather: np.ndarray, codes: np.ndarray) -> np.ndarray:
    g = luts.shape[0]
    n, m = codes.shape
    idx = codes.astype(np.intp)
    acc = np.zeros((g, n), dtype=np.int64)
    for mi in range(m):
        acc += gather[:, mi, :][:, idx[:, mi]]
    return acc


class CodebookTerms:
    """Per-codebook-table operands of the norm-expansion LUT build.

    ``books_t`` is the ``(M, dsub, CB)`` float64 transposed codebook,
    ``norms_sq`` the ``(M, CB)`` float64 ``||c_mc||^2`` (exact: int16
    entries keep it far below ``2**53``) and ``max_abs`` the largest
    ``|c|``, which the exactness check needs.
    """

    __slots__ = ("books_t", "norms_sq", "max_abs")

    def __init__(self, codebooks: np.ndarray) -> None:
        books = codebooks.astype(np.int64)
        self.books_t = np.ascontiguousarray(
            books.transpose(0, 2, 1), dtype=np.float64
        )
        self.norms_sq = np.einsum("mcd,mcd->mc", books, books).astype(np.float64)
        self.max_abs = int(np.abs(books).max()) if books.size else 0


class CodebookTermsCache:
    """The :class:`CodebookTerms` of the last few tables, keyed on
    table identity plus shape/dtype.

    One backend instance serves every engine in the process, so it
    keeps up to :data:`TERMS_CACHE_ENTRIES` tables (oldest dropped
    first). Each entry holds only a weak reference to its table: a
    recycled identity is detected (the reference no longer points at
    the table asked about), and an unloaded engine's table — often a
    view of a memory-mapped index file — is never kept alive. Like any
    identity-keyed cast cache, a table edited in place keeps its stale
    entry; tables are replaced, not edited.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple, Tuple[weakref.ref, CodebookTerms]] = {}

    def terms(self, codebooks: np.ndarray) -> CodebookTerms:
        key = (id(codebooks), codebooks.shape, codebooks.dtype.str)
        hit = self._entries.pop(key, None)
        if hit is None or hit[0]() is not codebooks:
            hit = (weakref.ref(codebooks), CodebookTerms(codebooks))
        self._entries[key] = hit
        if len(self._entries) > TERMS_CACHE_ENTRIES:
            del self._entries[next(iter(self._entries))]
        return hit[1]


def expansion_is_exact(residual_max_abs: int, codebook_max_abs: int, dsub: int) -> bool:
    """Whether the float64 norm expansion is exact for these magnitudes.

    Every term and partial sum of ``||r||^2 - 2 r.c + ||c||^2`` is an
    integer bounded by ``dsub * (max|r| + max|c|)**2``.
    """
    return dsub * (residual_max_abs + codebook_max_abs) ** 2 < EXACT_FLOAT_LIMIT


def _slab_rows(row_bytes: int) -> int:
    """Rows per slab so one slab's transient data fits the budget."""
    return max(1, LUT_CHUNK_BYTES // max(1, row_bytes))


def _build_luts_int64(
    residuals: np.ndarray, codebooks: np.ndarray, out: np.ndarray
) -> None:
    """The int64 difference/einsum LUT build into ``out``."""
    m, cb, dsub = codebooks.shape
    books = codebooks.astype(np.int64)
    step = _slab_rows(m * cb * dsub * 8)
    for s0 in range(0, len(out), step):
        r = residuals[s0 : s0 + step].astype(np.int64)
        diff = r.reshape(len(r), m, 1, dsub) - books
        out[s0 : s0 + step] = np.einsum("gmcd,gmcd->gmc", diff, diff)


def _build_luts_expansion(
    residuals: np.ndarray, terms: CodebookTerms, out: np.ndarray
) -> None:
    """The float64 norm-expansion LUT build into ``out`` (exact when
    :func:`expansion_is_exact` holds)."""
    m, dsub, cb = terms.books_t.shape
    step = _slab_rows(m * cb * 8)
    for s0 in range(0, len(out), step):
        rows = residuals[s0 : s0 + step]
        r = rows.astype(np.float64).reshape(len(rows), m, dsub).transpose(1, 0, 2)
        lut = np.matmul(r, terms.books_t)  # (M, rows, CB): r.c
        lut *= -2.0
        lut += terms.norms_sq[:, None, :]
        lut += np.einsum("mgd,mgd->mg", r, r)[:, :, None]
        out[s0 : s0 + step] = lut.transpose(1, 0, 2)


class NumpyBackend(KernelBackend):
    """Fused NumPy implementation of the three hot kernels."""

    name = "numpy"
    compiled = False

    def __init__(self) -> None:
        self._terms = CodebookTermsCache()

    def scan(self, luts: np.ndarray, codes: np.ndarray) -> np.ndarray:
        luts = np.asarray(luts)
        codes = np.asarray(codes)
        if luts.ndim != 3:
            raise ValueError(f"luts must be (g, M, CB), got {luts.shape}")
        if codes.ndim != 2 or codes.shape[1] != luts.shape[1]:
            raise ValueError(
                f"codes must be (n, {luts.shape[1]}), got {codes.shape}"
            )
        if luts.shape[0] * codes.shape[0] < FUSED_MIN_CELLS:
            return scan_distances(luts, codes)
        return _scan_fused(luts, _gather_view(luts), codes)

    def scan_stacked(self, luts: np.ndarray, codes: np.ndarray) -> np.ndarray:
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
        num_jobs, g = luts.shape[0], luts.shape[1]
        n = codes.shape[1]
        if num_jobs == 0 or g * n < FUSED_MIN_CELLS:
            return scan_distances_stacked(luts, codes)
        gather = _gather_view(luts)
        out = np.empty((num_jobs, g, n), dtype=np.int64)
        for j in range(num_jobs):
            out[j] = _scan_fused(luts[j], gather[j], codes[j])
        return out

    def gather_view(self, luts: np.ndarray) -> np.ndarray:
        return _gather_view(luts)

    def build_luts(
        self, residuals: np.ndarray, codebooks: np.ndarray
    ) -> np.ndarray:
        residuals = np.asarray(residuals)
        codebooks = np.asarray(codebooks)
        if codebooks.ndim != 3:
            raise ValueError(
                f"codebooks must be (M, CB, dsub), got {codebooks.shape}"
            )
        m, cb, dsub = codebooks.shape
        if residuals.ndim != 2 or residuals.shape[1] != m * dsub:
            raise ValueError(
                f"residuals must be (g, {m * dsub}), got {residuals.shape}"
            )
        out = np.empty((residuals.shape[0], m, cb), dtype=np.int64)
        if len(out) == 0:
            return out
        terms = self._terms.terms(codebooks)
        r_max = max(int(residuals.max()), -int(residuals.min()))
        if expansion_is_exact(r_max, terms.max_abs, dsub):
            _build_luts_expansion(residuals, terms, out)
        else:
            _build_luts_int64(residuals, codebooks, out)
        return out
