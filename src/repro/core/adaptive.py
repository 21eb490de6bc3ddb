"""Query-adaptive probing: exact distance bounds + nprobe budgets.

Fixed ``nprobe`` spends the same cycle budget on every query, but
per-query difficulty varies wildly: an easy query's true neighbours all
sit in its nearest cluster, a hard one's are scattered. This module
supplies the two host-side ingredients of adaptive search
(``SearchParams.adaptive``), plus :class:`_AdaptiveRounds`, the probe
policy that applies them round by round in the engine's search
driver. The ingredients:

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
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.params import ADAPTIVE_MODES  # noqa: F401  (re-export)
from repro.core.params import SearchParams

#: Why a query stopped probing (labels of drimann_adaptive_stops_total).
STOP_REASONS = ("bound", "budget", "exhausted")


def reconstruction_norms_sq(
    norms_sq: np.ndarray, codes: np.ndarray
) -> np.ndarray:
    """``||recon_p||^2`` for each code row: ``(n,)`` int64, from the
    ``(M, CB)`` int64 codeword norms (``quantized.codebook_terms.norms_sq``).

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
    norms = quantized.codebook_terms.norms_sq
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
    nprobe_min: Optional[int],
    gap_factor: float,
) -> np.ndarray:
    """Gap-heuristic probe budgets, one per query: ``(nq,)`` int64.

    ``centroid_dists_sq`` is the ``(nq, P)`` ascending centroid-distance
    matrix from the CL phase. For each query the budget is the position
    of the first inter-cluster gap larger than ``gap_factor`` times the
    query's mean gap, never below ``nprobe_min`` and never above ``P``.
    ``nprobe_min=None`` means ``max(1, P // 4)`` (the
    ``SearchParams.nprobe_min`` default). Flat profiles (mean gap 0)
    keep the full budget.
    """
    d = np.asarray(centroid_dists_sq, dtype=np.float64)
    nq, p = d.shape
    if nprobe_min is None:
        nprobe_min = max(1, p // 4)
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


class _AdaptiveRounds:
    """The adaptive probe policy of the engine's round driver.

    Each round issues one cluster per still-active query, nearest
    centroid first, so a query can stop the moment its k-th distance
    beats the suffix-minimum lower bound of its remaining clusters
    (``radii`` given), or when its gap-heuristic budget is spent
    (``budget_params`` given). The cycle ledger therefore contains
    *only* clusters actually dispatched (kernel costs are linear in
    group size, so per-round dispatch charges exactly what a single
    batch of the same tasks would — the ledger-honesty property the
    conformance suite replays through the fixed ``probes=`` path).

    Results under the bound alone are bit-identical to the exhaustive
    scan: the bound is conservative (see :func:`lower_bounds`), a
    running top-k's k-th distance only overestimates the final one, and
    a strict ``d_k < bound`` test means no remaining point can enter
    the top-k even on a (distance, id) tie.
    """

    def __init__(
        self,
        mode: str,
        nq: int,
        k: int,
        radii: Optional[np.ndarray],
        budget_params: Optional[SearchParams],
    ) -> None:
        self.mode = mode
        self.k = k
        self.radii = radii
        self.budget_params = budget_params
        self.budgets = np.zeros(nq, dtype=np.int64)
        self.reasons: List[str] = ["exhausted"] * nq
        self.executed: List[List[int]] = [[] for _ in range(nq)]

    def rounds(
        self,
        q0: int,
        batch_probes: np.ndarray,
        rr: np.ndarray,
        best_dists: np.ndarray,
    ) -> Iterator[List[Tuple[int, int]]]:
        """Yield one batch's rounds of new ``(query, cluster)`` tasks.

        ``best_dists`` is the engine's running ``(nq, k)`` top-k
        distances, ``inf``-padded. The caller folds each round into it
        before resuming the generator, so the stop checks after a
        ``yield`` read that round's results: column ``k - 1`` is a
        query's current k-th distance (``inf`` while it holds fewer
        than k candidates), which only overestimates the final one.
        """
        nb = len(batch_probes)
        radii, k = self.radii, self.k
        plists: List[np.ndarray] = []
        lb_sfx: List[Optional[np.ndarray]] = []
        for i in range(nb):
            row = np.asarray(batch_probes[i])
            valid = row >= 0
            plist = row[valid].astype(np.int64)
            plists.append(plist)
            if radii is not None and len(plist):
                lb = lower_bounds(rr[i][valid], radii[plist])
                lb_sfx.append(np.minimum.accumulate(lb[::-1])[::-1])
            else:
                lb_sfx.append(None)
        limits = np.array([len(p) for p in plists], dtype=np.int64)
        sp = self.budget_params
        if sp is not None:
            # Rows are full here: budgets only apply without probes=.
            limits = np.minimum(
                limits, probe_budgets(rr, sp.nprobe_min, sp.adaptive_gap)
            )
        self.budgets[q0 : q0 + nb] = limits

        ptr = np.zeros(nb, dtype=np.int64)
        active = [i for i in range(nb) if limits[i] > 0]
        while active:
            tasks = []
            for i in active:
                cid = int(plists[i][ptr[i]])
                tasks.append((q0 + i, cid))
                self.executed[q0 + i].append(cid)
                ptr[i] += 1
            yield tasks
            still = []
            for i in active:
                gq = q0 + i
                if (
                    radii is not None
                    and ptr[i] < limits[i]
                    and best_dists[gq, k - 1] < lb_sfx[i][ptr[i]]
                ):
                    self.reasons[gq] = "bound"
                elif ptr[i] >= limits[i]:
                    self.reasons[gq] = (
                        "budget" if limits[i] < len(plists[i]) else "exhausted"
                    )
                else:
                    still.append(i)
            active = still

    def report(
        self, uncovered: Iterable[Tuple[int, int]], nprobe_max: int
    ) -> AdaptiveReport:
        """What was probed, for :class:`AdaptiveReport`.

        The report (and the ledger-honesty contract) counts clusters
        whose scans were charged: issued minus fault-uncovered. Under
        partial shard loss the whole cluster is conservatively dropped
        from the executed list.
        """
        for qidx, cid in uncovered:
            lst = self.executed[qidx]
            if int(cid) in lst:
                lst.remove(int(cid))
        return AdaptiveReport(
            mode=self.mode,
            nprobe_max=nprobe_max,
            budgets=self.budgets,
            probes_executed=np.array(
                [len(e) for e in self.executed], dtype=np.int64
            ),
            stop_reasons=self.reasons,
            executed=self.executed,
        )
