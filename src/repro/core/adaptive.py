"""Query-adaptive probing: exact distance bounds + nprobe budgets.

Fixed ``nprobe`` spends the same cycle budget on every query, but
per-query difficulty varies wildly: an easy query's true neighbours all
sit in its nearest cluster, a hard one's are scattered. This module
supplies the two host-side ingredients the engine's adaptive search
path composes (``SearchParams.adaptive``):

* **Distance-bound early termination** (``adaptive="bound"``). Every
  candidate the DC phase scores for cluster ``c`` is the exact integer
  ADC distance ``||r_q - recon_p||^2`` where ``r_q = q - centroid_c``
  and ``recon_p`` is the PQ reconstruction of the point's residual. By
  the triangle inequality,

      ||r_q - recon_p|| >= ||r_q|| - ||recon_p|| >= ||r_q|| - R_c

  with ``R_c = max_p ||recon_p||`` the cluster's *reconstruction
  radius* (computed at build time from the codes alone, persisted in
  the v2 index as the optional ``cluster_radii`` segment). Probing
  clusters nearest-centroid-first, the engine can stop a query as soon
  as its current k-th distance provably beats the lower bound of every
  remaining cluster. The bound is conservative (see
  :func:`lower_bounds` for the float-safety slack), so skipping is
  *exact*: ``adaptive="bound"`` returns results bit-identical to the
  exhaustive scan — only work is elided.

* **Gap-heuristic budgets** (``adaptive="budget"``). The sorted
  centroid-distance profile of an easy query shows a sharp jump — a
  gap — after the few clusters that matter. :func:`probe_budgets`
  cuts the probe list at the first gap exceeding ``adaptive_gap``
  times the mean gap, clamped to ``[nprobe_min, nprobe]``. This trades
  a bounded amount of recall for cycles; ``adaptive="full"`` combines
  it with the bound check.

The cycle ledger only ever charges clusters actually dispatched — the
honesty property the conformance suite (``tests/test_adaptive.py``)
pins by differential comparison against a fixed ``probes=`` run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.params import ADAPTIVE_MODES  # noqa: F401  (re-export)

#: Why a query stopped probing (labels of drimann_adaptive_stops_total).
STOP_REASONS = ("bound", "budget", "exhausted")


def codebook_norms_sq(codebooks: np.ndarray) -> np.ndarray:
    """Squared L2 norm of every codeword: ``(M, CB)`` int64.

    ``codebooks`` is the quantized ``(M, CB, dsub)`` int16 table; the
    squared norms are exact in int64.
    """
    cb = np.asarray(codebooks).astype(np.int64)
    return np.einsum("mcd,mcd->mc", cb, cb)


def reconstruction_norms_sq(
    norms_sq: np.ndarray, codes: np.ndarray
) -> np.ndarray:
    """``||recon_p||^2`` for each code row: ``(n,)`` int64.

    PQ subspaces are orthogonal coordinate blocks, so a reconstruction's
    squared norm is the sum of its codewords' squared norms — an exact
    table lookup, no decode needed.
    """
    codes = np.asarray(codes)
    m = norms_sq.shape[0]
    return norms_sq[np.arange(m), codes.astype(np.intp)].sum(axis=1)


def cluster_radii_sq(quantized) -> np.ndarray:
    """Per-cluster squared reconstruction radius: ``(nlist,)`` int64.

    ``R_c^2 = max_p ||recon_p||^2`` over the cluster's code rows (0 for
    empty clusters — their lower bound degenerates to the centroid
    distance itself, which is still valid). Tombstoned rows are *kept*:
    the radius must stay an upper bound for every resident row, and a
    stale-but-larger radius only costs work, never correctness.
    """
    norms = codebook_norms_sq(quantized.codebooks)
    out = np.zeros(quantized.nlist, dtype=np.int64)
    for cid in range(quantized.nlist):
        codes = quantized.cluster_codes[cid]
        if len(codes):
            out[cid] = int(reconstruction_norms_sq(norms, codes).max())
    return out


#: Absolute slack subtracted from every lower bound. The true quantity
#: ``(sqrt(rr) - sqrt(radius))^2`` is evaluated in float64; for int64
#: inputs below ~1e15 the compounded sqrt/multiply rounding error is
#: far below 1.0, and ADC distances are integers — so shifting the
#: bound down by a full unit makes ``d_k < bound`` decisions exact.
BOUND_SLACK = 1.0


def lower_bounds(
    centroid_dists_sq: np.ndarray, radii_sq: np.ndarray
) -> np.ndarray:
    """Conservative per-cluster lower bounds on any ADC distance.

    ``max(0, ||r_q|| - R_c)^2`` minus :data:`BOUND_SLACK`, as float64.
    Outside the radius (``rr > R^2``) the square is expanded as
    ``rr + R^2 - 2*sqrt(rr*R^2)``; inside it (``rr <= R^2``) the
    triangle inequality bounds nothing, so the bound is ``0 - slack``
    (the expansion would give ``(sqrt(R^2) - sqrt(rr))^2 > 0`` there,
    which skips clusters holding true neighbours). Entries where the
    centroid distance is negative (can't happen for real inputs; guards
    padded slots) come back ``-inf`` so they never trigger a stop.
    """
    rr = np.asarray(centroid_dists_sq, dtype=np.float64)
    r2 = np.asarray(radii_sq, dtype=np.float64)
    lb = rr + r2 - 2.0 * np.sqrt(np.maximum(rr * r2, 0.0))
    lb = np.where(rr > r2, lb, 0.0) - BOUND_SLACK
    return np.where(rr >= 0.0, lb, -np.inf)


def probe_budgets(
    centroid_dists_sq: np.ndarray,
    nprobe_min: int,
    gap_factor: float,
) -> np.ndarray:
    """Gap-heuristic probe budgets, one per query: ``(nq,)`` int64.

    ``centroid_dists_sq`` is the ``(nq, P)`` ascending centroid-distance
    matrix from the CL phase. For each query the budget is the position
    of the first inter-cluster gap larger than ``gap_factor`` times the
    query's mean gap, never below ``nprobe_min`` and never above ``P``.
    Flat profiles (mean gap 0) keep the full budget.
    """
    d = np.asarray(centroid_dists_sq, dtype=np.float64)
    nq, p = d.shape
    lo = min(max(1, nprobe_min), p)
    if p == 1:
        return np.ones(nq, dtype=np.int64)
    gaps = np.diff(d, axis=1)  # (nq, P-1); gaps[:, i] = d[i+1] - d[i]
    mean_gap = (d[:, -1] - d[:, 0]) / (p - 1)
    big = gaps > gap_factor * mean_gap[:, None]
    big[:, : lo - 1] = False  # a cut at gap i yields budget i+1 >= lo
    first = np.argmax(big, axis=1)  # 0 when no gap qualifies
    budgets = np.where(big.any(axis=1), first + 1, p)
    return np.maximum(budgets, lo).astype(np.int64)


@dataclass
class AdaptiveReport:
    """What the adaptive search actually did, per query.

    Attached to :class:`~repro.core.results.SearchOutcome` when
    ``adaptive != "off"``. ``executed[q]`` lists the cluster ids whose
    scans were charged to the ledger for query ``q`` (issued minus
    fault-uncovered) — the ground truth the ledger-honesty test replays
    through the fixed ``probes=`` path.
    """

    mode: str
    nprobe_max: int
    budgets: np.ndarray  # (nq,) int64: per-query probe limit applied
    probes_executed: np.ndarray  # (nq,) int64: clusters actually charged
    stop_reasons: List[str] = field(default_factory=list)  # per query
    executed: List[List[int]] = field(default_factory=list)  # per query

    def to_dict(self) -> dict:
        reasons = {
            r: int(sum(1 for s in self.stop_reasons if s == r))
            for r in STOP_REASONS
        }
        return {
            "mode": self.mode,
            "nprobe_max": int(self.nprobe_max),
            "mean_budget": float(np.mean(self.budgets)),
            "mean_probes_executed": float(np.mean(self.probes_executed)),
            "total_probes_executed": int(np.sum(self.probes_executed)),
            "stop_reasons": reasons,
        }


def kth_pool_distance(pools_d: List[np.ndarray], k: int) -> float:
    """Current k-th smallest distance of a query's candidate pool.

    ``inf`` while the pool holds fewer than ``k`` candidates — an
    overestimate of the final k-th distance either way, so bound checks
    against it can only be conservative (a stop decided on a partial
    pool would also be decided on the full one).
    """
    if not pools_d:
        return float("inf")
    d = np.concatenate(pools_d)
    if len(d) < k:
        return float("inf")
    return float(np.partition(d.astype(np.float64), k - 1)[k - 1])
