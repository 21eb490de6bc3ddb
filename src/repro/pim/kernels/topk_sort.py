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
from repro.ann.heap import topk_smallest
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


def topk_rows(
    dists: np.ndarray, ids: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Functional core of TS: per-row top-k of a ``(g, n)`` block.

    Returns ``(ids_k, dists_k)``, each ``(g, min(k, n))``: row ``r``
    holds that row's k nearest candidates sorted ascending by distance
    (stable in row order on ties) — the fixed-width slot a DPU writes
    back per task. No cost accounting — callers that model timing
    charge :func:`topk_sort_cost` separately.
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
    sel, vals = topk_smallest(dists, k, axis=1)
    return ids[sel], vals


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
