"""Integer index data as resident on DPUs.

UPMEM DPUs have no floating-point unit, so everything the PIM side
touches must be integer: queries and centroids are uint8 (the paper's
datasets are uint8), PQ codebook entries are rounded to int16 (they are
residual-scale values), LUT entries are int32 partial squared
distances, and accumulated distances are int64-safe.

:func:`build_quantized_index` converts a float-trained
:class:`~repro.ann.ivfpq.IVFPQIndex` into :class:`QuantizedIndexData`.
The rounding slightly perturbs distances relative to the float
reference — exactly as on the real hardware — so accuracy experiments
measure the quantized pipeline end to end.

:meth:`QuantizedIndexData.reference_search` is the pure-NumPy gold
standard of the integer pipeline: the PIM engine must return identical
top-k sets for any layout/scheduling, which is the key invariance the
test suite checks (splitting, duplication and deferral must never
change results).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.ann.heap import topk_smallest
from repro.ann.ivfpq import IVFPQIndex, SearchResult
from repro.utils import check_2d, check_operands, topk_canonical

if TYPE_CHECKING:
    from repro.pim.backend.numpy_backend import CodebookTerms

# Codebook entries are residual-scale; they are clipped to this bound at
# quantization time so that (residual - codebook) stays within the
# 3-level square-LUT range (±765 for 8-bit data).
CODEBOOK_CLIP = 510


def _check_ids(ids) -> np.ndarray:
    """Point ids as a flat int64 array, rejecting what a cast would change.

    Ids are non-negative integers: ``-1`` pads short result rows
    (:class:`~repro.ann.ivfpq.SearchResult`), so it can never name a
    point. A 2-D (or deeper) array is rejected, not flattened.
    """
    ids = np.asarray(ids)
    if ids.ndim > 1:
        raise ValueError(f"ids must be 1-D, got shape {ids.shape}")
    ids = check_operands(np.ravel(ids), np.int64, "ids")
    if ids.size and ids.min() < 0:
        raise ValueError(
            f"ids must be non-negative (-1 pads results), got {ids.min()}"
        )
    return ids.astype(np.int64, copy=False)


@dataclass
class QuantizedIndexData:
    """Integer-only IVF-PQ index state."""

    centroids: np.ndarray  # (nlist, D) uint8
    codebooks: np.ndarray  # (M, CB, dsub) int16
    cluster_ids: List[np.ndarray]  # per cluster, (n_c,) int64 point ids
    cluster_codes: List[np.ndarray]  # per cluster, (n_c, M) uint8/uint16
    # Per cluster, (n_c,) bool — True marks a deleted (tombstoned) row.
    # None means "no deletions ever"; rows are only reclaimed by compact().
    tombstones: Optional[List[np.ndarray]] = field(default=None)

    def __post_init__(self) -> None:
        self.centroids = check_2d(self.centroids, "centroids")
        if self.centroids.dtype != np.uint8:
            raise TypeError(f"centroids must be uint8, got {self.centroids.dtype}")
        if self.codebooks.ndim != 3:
            raise ValueError(f"codebooks must be 3-D, got {self.codebooks.shape}")
        if self.codebooks.dtype != np.int16:
            raise TypeError(f"codebooks must be int16, got {self.codebooks.dtype}")
        if len(self.cluster_ids) != len(self.cluster_codes):
            raise ValueError("cluster_ids and cluster_codes length mismatch")
        if len(self.cluster_ids) != self.centroids.shape[0]:
            raise ValueError(
                f"{len(self.cluster_ids)} clusters != {self.centroids.shape[0]} centroids"
            )
        tombs = self.__dict__.get("tombstones")
        if tombs is not None:
            if len(tombs) != len(self.cluster_ids):
                raise ValueError(
                    f"{len(tombs)} tombstone masks != "
                    f"{len(self.cluster_ids)} clusters"
                )
            coerced = []
            for i, (mask, ids) in enumerate(zip(tombs, self.cluster_ids)):
                mask = np.asarray(mask)
                if mask.shape != (len(ids),):
                    raise ValueError(
                        f"tombstones[{i}] has shape {mask.shape}; "
                        f"cluster holds {len(ids)} rows"
                    )
                coerced.append(
                    mask if mask.dtype == np.bool_ else mask.astype(bool)
                )
            self.tombstones = coerced

    # ----- derived tables -------------------------------------------------
    # Built on first use and kept: the tables are replaced (compact()
    # builds a new instance), never edited in place. A pickled instance
    # carries whatever was built; a restored one builds the rest.
    @functools.cached_property
    def codebook_terms(self) -> "CodebookTerms":
        """The codebooks' derived operands (int64 and float64 books,
        ``||b||^2``, ``max|b|``) for the host kernels."""
        # Function-local: repro.pim imports this module (see encode).
        from repro.pim.backend.numpy_backend import CodebookTerms

        return CodebookTerms(self.codebooks)

    @functools.cached_property
    def centroids_i64(self) -> np.ndarray:
        """The centroids as int64, the CL operand."""
        return self.centroids.astype(np.int64)

    @functools.cached_property
    def centroid_norms_sq(self) -> np.ndarray:
        """``(1, nlist)`` int64 ``||c||^2`` of every centroid."""
        c = self.centroids_i64
        return np.einsum("ij,ij->i", c, c)[None, :]

    # ----- shape ----------------------------------------------------------
    @property
    def nlist(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    @property
    def num_subspaces(self) -> int:
        return self.codebooks.shape[0]

    @property
    def codebook_size(self) -> int:
        return self.codebooks.shape[1]

    @property
    def dsub(self) -> int:
        return self.codebooks.shape[2]

    @property
    def num_points(self) -> int:
        return int(sum(len(i) for i in self.cluster_ids))

    def cluster_sizes(self) -> np.ndarray:
        return np.array([len(i) for i in self.cluster_ids], dtype=np.int64)

    def codes_nbytes(self, cluster_id: int) -> int:
        return self.cluster_codes[cluster_id].nbytes

    # ----- tombstones -----------------------------------------------------
    def tombstone_masks(self) -> Optional[List[np.ndarray]]:
        """Per-cluster deletion masks, or ``None`` when nothing was deleted.

        Instances restored by pickle bypass ``__post_init__`` and may
        predate the field entirely, so access goes through here.
        """
        return self.__dict__.get("tombstones")

    def _ensure_tombstones(self) -> List[np.ndarray]:
        masks = self.tombstone_masks()
        if masks is None:
            masks = [
                np.zeros(len(ids), dtype=bool) for ids in self.cluster_ids
            ]
            self.tombstones = masks
        return masks

    @property
    def num_tombstones(self) -> int:
        masks = self.tombstone_masks()
        if masks is None:
            return 0
        return int(sum(int(m.sum()) for m in masks))

    @property
    def has_tombstones(self) -> bool:
        return self.num_tombstones > 0

    @property
    def num_live_points(self) -> int:
        return self.num_points - self.num_tombstones

    @property
    def tombstone_ratio(self) -> float:
        total = self.num_points
        return self.num_tombstones / total if total else 0.0

    def cluster_live_sizes(self) -> np.ndarray:
        """Like :meth:`cluster_sizes`, minus tombstoned rows."""
        sizes = self.cluster_sizes()
        masks = self.tombstone_masks()
        if masks is not None:
            sizes = sizes - np.array(
                [int(m.sum()) for m in masks], dtype=np.int64
            )
        return sizes

    def live_rows(self, cluster_id: int) -> Optional[np.ndarray]:
        """Row indices of live points in a cluster, ``None`` if all live."""
        masks = self.tombstone_masks()
        if masks is None or not masks[cluster_id].any():
            return None
        return np.flatnonzero(~masks[cluster_id])

    # ----- mutable lifecycle ----------------------------------------------
    def encode(self, vectors: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Assign and PQ-encode raw uint8 vectors with the trained index.

        The paper's CL → RC → LC pipeline plus an argmin: assignment is
        :meth:`locate` with nprobe=1 (int64 distances, canonical
        lowest-index tie-break), and each point's ``(M, CB)`` LUT comes from the host kernels' exact
        pair-form ``build_luts`` (the point against its assigned
        centroid) — bit-identical to :meth:`build_luts`, so the
        first-minimum argmin picks the same codes as the int64
        reference. LUTs are built in row slabs of at most
        :data:`~repro.pim.backend.numpy_backend.LUT_CHUNK_BYTES`, so
        large batches never hold an ``(n, M, CB)`` table. Returns ``(assign, codes)`` — ``(n,)`` cluster ids
        and ``(n, M)`` codes in the index's code dtype.
        """
        # Function-local: repro.pim imports this module (via faults
        # and core.persist), so a module-level import is circular.
        from repro.pim.backend import numpy_backend, resolve_backend

        vectors = check_2d(vectors, "vectors")
        if vectors.dtype != np.uint8:
            raise TypeError(f"vectors must be uint8, got {vectors.dtype}")
        if vectors.shape[1] != self.dim:
            raise ValueError(
                f"vectors have dim {vectors.shape[1]}; index has {self.dim}"
            )
        n = vectors.shape[0]
        m, cb, _ = self.codebooks.shape
        code_dtype = np.uint8 if cb <= 256 else np.uint16
        if n == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty((0, m), dtype=code_dtype),
            )
        assign = self.locate(vectors, 1)[:, 0]
        codes = np.empty((n, m), dtype=code_dtype)
        backend = resolve_backend()
        step = max(1, numpy_backend.LUT_CHUNK_BYTES // (m * cb * 8))
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            luts = backend.build_luts(
                vectors[lo:hi],
                self.centroids,
                np.arange(hi - lo),
                assign[lo:hi],
                self.codebook_terms,
            )
            codes[lo:hi] = luts.argmin(axis=2)
        return assign, codes

    def add(
        self, vectors: np.ndarray, ids: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Encode and append new vectors; returns ``(new_ids, assign)``.

        Ids must be non-negative integers (``-1`` is the result padding
        sentinel); strings and bools raise ``TypeError``, fractions,
        non-finite values and negatives ``ValueError``. They default to
        a fresh contiguous range above the current maximum (tombstoned
        ids still count as taken until :meth:`compact`). The collision
        check is one lookup against the whole id column, and the batch
        is grouped by cluster with one stable sort. Appending
        re-materializes the touched clusters' arrays, so mmap-backed
        clusters become ordinary in-memory arrays for exactly the
        clusters that grew.
        """
        if ids is not None:
            ids = _check_ids(ids)
        assign, codes = self.encode(vectors)
        n = len(assign)
        existing = np.concatenate(self.cluster_ids)
        if ids is None:
            start = int(existing.max()) + 1 if len(existing) else 0
            ids = np.arange(start, start + n, dtype=np.int64)
        else:
            if len(ids) != n:
                raise ValueError(f"{len(ids)} ids for {n} vectors")
            if len(np.unique(ids)) != n:
                raise ValueError("duplicate ids in add() batch")
            if n and bool(np.isin(ids, existing).any()):
                raise ValueError("add() ids collide with existing point ids")
        if n == 0:
            return ids, assign
        masks = self.tombstone_masks()
        order = np.argsort(assign, kind="stable")
        touched, starts = np.unique(assign[order], return_index=True)
        ends = np.append(starts[1:], n)
        for cid, lo, hi in zip(touched.tolist(), starts, ends):
            rows = order[lo:hi]
            self.cluster_ids[cid] = np.concatenate(
                [np.asarray(self.cluster_ids[cid]), ids[rows]]
            )
            self.cluster_codes[cid] = np.concatenate(
                [
                    np.asarray(self.cluster_codes[cid]),
                    codes[rows].astype(self.cluster_codes[cid].dtype),
                ]
            )
            if masks is not None:
                masks[cid] = np.concatenate(
                    [masks[cid], np.zeros(hi - lo, dtype=bool)]
                )
        return ids, assign

    def delete(self, ids: np.ndarray) -> int:
        """Tombstone points by id; returns how many rows were newly marked.

        Ids are validated like :meth:`add`'s. Rows stay resident (the
        DC phase still streams them — the cycle ledger charges that
        honestly) but are filtered out of every result path until
        :meth:`compact` reclaims them.
        """
        return self._tombstone(ids)[0]

    def _tombstone(self, ids: np.ndarray) -> Tuple[int, np.ndarray]:
        """:meth:`delete` plus the ids of the clusters it touched.

        One id lookup over the whole id column, split back per cluster
        at the cumulative cluster sizes; the count is the number of
        live rows whose id is in ``ids``, summed over clusters.
        """
        ids = _check_ids(ids)
        touched = np.empty(0, dtype=np.int64)
        if len(ids) == 0:
            return 0, touched
        masks = self._ensure_tombstones()
        hit = np.isin(np.concatenate(self.cluster_ids), ids)
        hit &= ~np.concatenate(masks)
        rows = np.flatnonzero(hit)
        if len(rows) == 0:
            return 0, touched
        ends = np.cumsum(self.cluster_sizes())
        touched = np.unique(np.searchsorted(ends, rows, side="right"))
        for cid in touched.tolist():
            masks[cid] |= hit[ends[cid] - len(masks[cid]) : ends[cid]]
        return len(rows), touched

    def compact(self) -> "QuantizedIndexData":
        """A fresh, fully-materialized index holding only live rows.

        The result owns plain in-memory arrays (never mmap views) and
        carries no tombstones — it is what gets re-encoded to disk when
        the engine compacts.
        """
        masks = self.tombstone_masks()
        new_ids: List[np.ndarray] = []
        new_codes: List[np.ndarray] = []
        for cid in range(self.nlist):
            ids = np.asarray(self.cluster_ids[cid])
            codes = np.asarray(self.cluster_codes[cid])
            if masks is not None and masks[cid].any():
                keep = ~masks[cid]
                ids = ids[keep]
                codes = codes[keep]
            new_ids.append(np.array(ids, dtype=np.int64))
            new_codes.append(np.array(codes))
        return QuantizedIndexData(
            centroids=np.array(self.centroids),
            codebooks=np.array(self.codebooks),
            cluster_ids=new_ids,
            cluster_codes=new_codes,
        )

    @classmethod
    def from_vectors(
        cls,
        centroids: np.ndarray,
        codebooks: np.ndarray,
        vectors: np.ndarray,
        ids: Optional[np.ndarray] = None,
    ) -> "QuantizedIndexData":
        """Build an index by integer-encoding ``vectors`` against trained
        centroids/codebooks — the gold standard ``compact()`` must match."""
        m = codebooks.shape[0]
        cb = codebooks.shape[1]
        code_dtype = np.uint8 if cb <= 256 else np.uint16
        nlist = centroids.shape[0]
        inst = cls(
            centroids=centroids,
            codebooks=codebooks,
            cluster_ids=[np.empty(0, dtype=np.int64) for _ in range(nlist)],
            cluster_codes=[
                np.empty((0, m), dtype=code_dtype) for _ in range(nlist)
            ],
        )
        vectors = check_2d(vectors, "vectors")
        if vectors.shape[0]:
            inst.add(vectors, ids)
        return inst

    # ----- integer search pipeline ----------------------------------------
    def locate(self, queries: np.ndarray, nprobe: int) -> np.ndarray:
        """CL phase on integer centroids. ``(q, nprobe)`` ids, nearest first."""
        ids, _ = self.locate_with_distances(queries, nprobe)
        return ids

    def locate_with_distances(
        self, queries: np.ndarray, nprobe: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """CL phase keeping the integer centroid distances.

        Returns ``(ids, dists)``: the ``(q, nprobe)`` nearest-first
        cluster ids plus the matching int64 squared centroid distances
        — the statistics the adaptive probing path (budgets and
        distance bounds, see :mod:`repro.core.adaptive`) is driven by.
        """
        queries = check_2d(queries, "queries")
        if not 1 <= nprobe <= self.nlist:
            raise ValueError(f"nprobe must be in [1, {self.nlist}], got {nprobe}")
        q = queries.astype(np.int64)
        qq = np.einsum("ij,ij->i", q, q)[:, None]
        d = qq + self.centroid_norms_sq - 2 * (q @ self.centroids_i64.T)
        idx, dists = topk_smallest(d, nprobe, axis=1)
        return idx.astype(np.int64), dists

    def residual(self, query: np.ndarray, cluster_id: int) -> np.ndarray:
        """RC phase: int32 residual of one query to one centroid."""
        return query.astype(np.int32) - self.centroids[cluster_id].astype(np.int32)

    def build_lut(self, residual: np.ndarray) -> np.ndarray:
        """LC phase: integer ADC LUT, ``(M, CB)`` int64."""
        m, dsub = self.num_subspaces, self.dsub
        r = residual.astype(np.int64).reshape(m, 1, dsub)
        diff = r - self.codebook_terms.books
        return np.einsum("mcd,mcd->mc", diff, diff)

    def build_luts(self, residuals: np.ndarray) -> np.ndarray:
        """Batched LC: ``(g, D)`` int32 residuals → ``(g, M, CB)`` int64."""
        residuals = check_2d(residuals, "residuals")
        g = residuals.shape[0]
        m, dsub = self.num_subspaces, self.dsub
        r = residuals.astype(np.int64).reshape(g, m, 1, dsub)
        diff = r - self.codebook_terms.books[None]
        return np.einsum("gmcd,gmcd->gmc", diff, diff)

    def reference_search(
        self, queries: np.ndarray, k: int, nprobe: int
    ) -> SearchResult:
        """Host-side gold standard of the integer pipeline.

        Identical math to the PIM kernels, with no partitioning — the
        engine's results must match this for every layout and schedule.
        """
        queries = check_2d(queries, "queries")
        probes = self.locate(queries, nprobe)
        nq = queries.shape[0]
        out_ids = np.full((nq, k), -1, dtype=np.int64)
        out_dist = np.full((nq, k), np.inf, dtype=np.float64)
        marange = np.arange(self.num_subspaces)
        masks = self.tombstone_masks()
        for qi in range(nq):
            dparts = []
            iparts = []
            for cid in probes[qi]:
                ids = self.cluster_ids[cid]
                codes = self.cluster_codes[cid]
                # Tombstoned rows are filtered BEFORE the scan/top-k so
                # deleted points can never displace live candidates —
                # the engine's scan path filters at the same stage.
                if masks is not None and masks[cid].any():
                    keep = ~masks[cid]
                    ids = ids[keep]
                    codes = codes[keep]
                if len(ids) == 0:
                    continue
                lut = self.build_lut(self.residual(queries[qi], cid))
                d = lut[marange[None, :], codes.astype(np.intp)].sum(axis=1)
                dparts.append(d)
                iparts.append(ids)
            if not dparts:
                continue
            dall = np.concatenate(dparts)
            iall = np.concatenate(iparts)
            kk = min(k, len(dall))
            sel_ids, sel_dists = topk_canonical(dall, iall, kk)
            out_ids[qi, :kk] = sel_ids
            out_dist[qi, :kk] = sel_dists.astype(np.float64)
        return SearchResult(ids=out_ids, distances=out_dist)


def build_quantized_index(index: IVFPQIndex) -> QuantizedIndexData:
    """Round a float-trained IVFPQIndex into DPU-resident integer form.

    Requires the index to have been built on uint8-range data (the
    paper's setting); centroids are rounded into [0, 255] and codebook
    entries clipped to ±``CODEBOOK_CLIP``.
    """
    if index.rotation is not None:
        raise ValueError(
            "OPQ-rotated indexes must be quantized on rotated data; "
            "apply the rotation to the corpus first (the engine does "
            "this automatically) — got an index with a rotation attached"
        )
    cents = np.clip(np.rint(index.ivf.centroids), 0, 255).astype(np.uint8)
    books = np.clip(
        np.rint(index.pq.codebooks), -CODEBOOK_CLIP, CODEBOOK_CLIP
    ).astype(np.int16)
    return QuantizedIndexData(
        centroids=cents,
        codebooks=books,
        cluster_ids=[ids.copy() for ids in index.ivf.lists],
        cluster_codes=[c.copy() for c in index.codes],
    )
