"""TS kernel: per-query top-k maintenance over scanned distances.

On real DPUs each tasklet keeps a bounded max-heap of size K in WRAM
and offers every scanned candidate to it. Functionally we take the
exact top-k with vectorized selection; the *cost* charged is the heap's
expected work:

* every candidate pays one comparison against the heap root;
* a candidate that improves the heap pays a ``log2 K`` sift.

For n candidates arriving in random order against a running top-k, the
expected number of improvements is ``K + K * ln(n / K)`` (the k-record
count of a random permutation), which we use as the deterministic
estimate — summed candidate counts make it exact enough that Fig. 8's
TS share matches the paper's shape. ``BoundedMaxHeap`` in
``repro.ann.heap`` is the operation-exact (but Python-loop) variant
used by the tests to validate this estimate.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.analysis.contracts import KernelShape, ResourceContract, WramTerm
from repro.pim.dpu import KernelCost
from repro.pim.isa import InstructionMix
from repro.pim.memory import MemoryTraffic


def expected_heap_updates(n: int, k: int) -> float:
    """Expected number of heap insertions for n random-order candidates."""
    if n <= 0:
        return 0.0
    if n <= k:
        return float(n)
    return k + k * math.log(n / k)


def topk_sort_cost(g: int, n: int, k: int) -> KernelCost:
    """TS cost for ``g`` rows of ``n`` candidates kept to top-``k``.

    Closed form shared by :func:`run_topk_sort` and the batched
    executor (cost charged per shard group, functional work possibly in
    worker processes)."""
    kk = min(k, n) if n else k
    updates = expected_heap_updates(n, k)
    log_k = math.log2(max(k, 2))
    mix = InstructionMix(
        compare=float(g * n) + g * updates * log_k,
        store=g * updates,
    )
    # Per-task result write-back staged in WRAM; MRAM write of the k
    # (id, distance) pairs for the host gather.
    traffic = MemoryTraffic(
        sequential_write=float(g * kk * 8), transactions=float(g)
    )
    return KernelCost(kernel="TS", instructions=mix, traffic=traffic)


def select_topk(
    dists: np.ndarray, ids: np.ndarray, id_start: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Canonical per-row top-k of a ``(R, W)`` distance block.

    Row ``r``'s candidate in column ``c`` has distance ``dists[r, c]``
    and id ``ids[id_start[r] + c]`` (``ids`` is flat, so rows of one
    shard share one id run; a padding column past a row's run is never
    selected ahead of a real candidate, and reads any id). Returns
    ``(ids_k, dists_k)``, each ``(R, min(k, W))``: every row's ``min(k, W)``
    smallest candidates under the canonical ``(distance, id)`` order,
    ascending — ties on distance break by ascending id, so the choice
    depends only on the candidate set, never on its layout or on how
    many padding columns follow it.

    One ``np.partition`` finds each row's k-th distance; the candidates
    at or below it (k per row, more only on a boundary tie) get one
    lexsort. No cost accounting — callers charge
    :func:`topk_sort_cost`.
    """
    rows, width = dists.shape
    kk = min(k, width)
    if rows == 0 or kk == 0:
        return (
            np.empty((rows, kk), dtype=ids.dtype),
            np.empty((rows, kk), dtype=dists.dtype),
        )
    if kk < width:
        kth = np.partition(dists, kk - 1, axis=1)[:, kk - 1 : kk]
        # Flat indices: a 2-D np.nonzero is several times slower.
        flat = np.flatnonzero(dists <= kth)
        r, c = np.divmod(flat, width)
        cand_d = dists.ravel()[flat]
    else:
        r = np.repeat(np.arange(rows), width)
        c = np.tile(np.arange(width), rows)
        cand_d = dists.ravel()
    cand_i = ids[np.minimum(id_start[r] + c, len(ids) - 1)]
    if len(r) == rows * kk:
        # No boundary tie: exactly kk candidates per row, sorted in place.
        cand_d = cand_d.reshape(rows, kk)
        cand_i = cand_i.reshape(rows, kk)
        order = np.lexsort((cand_i, cand_d), axis=1)
        return (
            np.take_along_axis(cand_i, order, axis=1),
            np.take_along_axis(cand_d, order, axis=1),
        )
    order = np.lexsort((cand_i, cand_d, r))
    counts = np.bincount(r, minlength=rows)
    starts = np.cumsum(counts) - counts
    keep = order[(starts[:, None] + np.arange(kk)).ravel()]
    return cand_i[keep].reshape(rows, kk), cand_d[keep].reshape(rows, kk)


def topk_rows(
    dists: np.ndarray, ids: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Functional core of TS: per-row top-k of a ``(g, n)`` block.

    Returns ``(ids_k, dists_k)``, each ``(g, min(k, n))``: row ``r``
    holds that row's k nearest candidates in the canonical
    ``(distance, id)`` order (ties on distance by ascending id,
    :func:`select_topk`) — the fixed-width slot a DPU writes back per
    task. The round path selects with the same rule over its padded
    block, so both agree bit for bit. No cost accounting — callers
    that model timing charge :func:`topk_sort_cost` separately.
    """
    dists = np.asarray(dists)
    ids = np.asarray(ids)
    if dists.ndim != 2:
        raise ValueError(f"dists must be 2-D, got {dists.shape}")
    if ids.shape != (dists.shape[1],):
        raise ValueError(f"ids shape {ids.shape} != ({dists.shape[1]},)")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if dists.shape[1] == 0:
        return np.empty(dists.shape, dtype=np.int64), dists
    return select_topk(dists, ids, np.zeros(dists.shape[0], dtype=np.intp), k)


def run_topk_sort(
    dists: np.ndarray, ids: np.ndarray, k: int
) -> Tuple[Tuple[np.ndarray, np.ndarray], KernelCost]:
    """Top-k per row of a ``(g, n)`` distance block.

    Parameters
    ----------
    dists: ``(g, n)`` int64 (DC output for one cluster shard).
    ids: ``(n,)`` int64 point ids of the shard.
    k: neighbors to keep.

    Returns
    -------
    ``(ids_k, dists_k)`` of shape ``(g, min(k, n))`` (each row sorted
    ascending), and the kernel cost. Rows with fewer than k candidates
    return what exists.
    """
    dists = np.asarray(dists)
    g, n = dists.shape
    return topk_rows(dists, ids, k), topk_sort_cost(g, n, k)


def _ts_mix(s: KernelShape) -> InstructionMix:
    updates = expected_heap_updates(s.n, s.k)
    log_k = math.log2(max(s.k, 2))
    return InstructionMix(
        compare=float(s.g * s.n) + s.g * updates * log_k,
        store=s.g * updates,
    )


def _ts_traffic(s: KernelShape) -> MemoryTraffic:
    kk = min(s.k, s.n) if s.n else s.k
    return MemoryTraffic(
        sequential_write=float(s.g * kk * 8), transactions=float(s.g)
    )


def _ts_wram(s: KernelShape):
    kk = min(s.k, s.n) if s.n else s.k
    return [
        # Bounded max-heap of (id, distance) pairs, one per tasklet.
        WramTerm("topk_heap", 8 * s.k, per_tasklet=True),
        WramTerm("topk_writeback_staging", 8 * kk, per_tasklet=True),
    ]


#: Closed-form resource claim checked by ``repro lint``.
CONTRACT = ResourceContract(
    kernel="TS",
    instruction_mix=_ts_mix,
    memory_traffic=_ts_traffic,
    wram_terms=_ts_wram,
    dma_transfers=lambda s: {
        "topk_writeback": float(8 * (min(s.k, s.n) if s.n else s.k))
    },
    notes="expected k-record heap work; see expected_heap_updates()",
)
