"""Canonical (distance, id) top-k merge, shared by every gather path.

The engine's per-round task blocks, the cluster frontend's per-shard
responses, and the host reference all end the same way: keep each
query's k smallest candidates under the canonical ``(distance, id)``
order. Ties on distance break by ascending id, which makes the merged
result independent of arrival order — the property behind the
bit-identity guarantees across round sizes, plans, shardings, and
(since adaptive probing) early-terminated probe sets.

This module is dependency-free (pure numpy) so both ``repro.ann`` and
``repro.cluster`` can import it without cycles.
"""

from __future__ import annotations

from typing import Tuple

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
    best_ids: np.ndarray,
    best_dists: np.ndarray,
    rows: np.ndarray,
    ids: np.ndarray,
    dists: np.ndarray,
) -> None:
    """Fold a block of candidate rows into a running top-k, in place.

    ``best_ids`` / ``best_dists`` are the running ``(nq, k)`` canonical
    top-k — int64 ids and float64 distances, padded with ``-1`` /
    ``inf``. Block row ``t`` offers the candidates ``ids[t]`` /
    ``dists[t]`` (``(T, w)``, same padding) to query ``rows[t]``. Every
    touched query's running row and its block rows are reduced to the
    k smallest under ``(distance, id)`` by one lexsort over
    ``(query, distance, id)``; untouched queries keep their rows.

    Padding sorts after every real candidate (``inf`` distance), so a
    query with fewer than k candidates stays padded. Distances are
    compared as float64, exact for the integer ADC distances, which
    stay far below 2**53. Folding blocks in any split or order gives
    the same result as one merge of all of them.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size == 0:
        return
    k = best_ids.shape[1]
    touched, local = np.unique(rows, return_inverse=True)
    nt = len(touched)
    ids = np.asarray(ids)
    cand_q = np.concatenate(
        [np.repeat(np.arange(nt), k), np.repeat(local, ids.shape[1])]
    )
    cand_i = np.concatenate([best_ids[touched].ravel(), ids.ravel()])
    cand_d = np.concatenate(
        [best_dists[touched].ravel(), np.asarray(dists, dtype=np.float64).ravel()]
    )
    order = np.lexsort((cand_i, cand_d, cand_q))
    # Each touched query owns k running slots, so its sorted run holds
    # at least k candidates: keep the first k of every run.
    starts = np.concatenate([[0], np.cumsum(np.bincount(cand_q, minlength=nt))])
    keep = (starts[:-1, None] + np.arange(k)).ravel()
    sel = order[keep]
    best_ids[touched] = cand_i[sel].reshape(nt, k)
    best_dists[touched] = cand_d[sel].reshape(nt, k)
