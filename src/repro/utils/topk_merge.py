"""Canonical (distance, id) top-k merge, shared by every gather path.

The engine's per-task partials, the cluster frontend's per-shard
responses, and the host reference all end the same way: concatenate a
candidate pool per query and keep the k smallest under the canonical
``(distance, id)`` order. Ties on distance break by ascending id, which
makes the merged result independent of arrival order — the property
behind the bit-identity guarantees across round sizes, plans,
shardings, and (since adaptive probing) early-terminated probe sets.

This module is dependency-free (pure numpy) so both ``repro.ann`` and
``repro.cluster`` can import it without cycles. ``repro.ann.heap``
re-exports :func:`topk_canonical` for backward compatibility.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def topk_canonical(
    dists: np.ndarray, ids: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-k of a candidate pool with a canonical (distance, id) order.

    Ties on distance are broken by ascending id, which makes the result
    independent of the order in which candidates were concatenated —
    the property that lets every round size of the engine (and the
    host reference) agree bit-for-bit even
    when partial results arrive in different orders.

    Returns ``(ids_k, dists_k)``, ascending by ``(distance, id)``.
    """
    dists = np.asarray(dists)
    ids = np.asarray(ids)
    kk = min(k, len(dists))
    order = np.lexsort((ids, dists))[:kk]
    return ids[order], dists[order]


def merge_topk_pools(
    pools_i: List[List[np.ndarray]],
    pools_d: List[List[np.ndarray]],
    num_queries: int,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-query candidate pools into dense ``(nq, k)`` results.

    ``pools_i[q]`` / ``pools_d[q]`` hold the id / distance fragments
    gathered for query ``q`` (from PIM partials or shard responses, in
    any order). Each query's pool is concatenated and reduced with
    :func:`topk_canonical`; queries with fewer than ``k`` candidates are
    padded with id ``-1`` and distance ``inf``.

    Returns ``(ids, dists)`` — int64 ``(nq, k)`` and float64 ``(nq, k)``.
    Distances are converted to float64 before the lexsort (exact for the
    integer ADC distances, which stay far below 2**53).
    """
    out_ids = np.full((num_queries, k), -1, dtype=np.int64)
    out_dist = np.full((num_queries, k), np.inf, dtype=np.float64)
    for qi in range(num_queries):
        if not pools_i[qi]:
            continue
        ids = np.concatenate(pools_i[qi])
        dists = np.concatenate(pools_d[qi]).astype(np.float64)
        kk = min(k, len(ids))
        sel_ids, sel_dists = topk_canonical(dists, ids, kk)
        out_ids[qi, :kk] = sel_ids
        out_dist[qi, :kk] = sel_dists
    return out_ids, out_dist
