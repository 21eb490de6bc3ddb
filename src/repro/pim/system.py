"""The PIM system: DPUs + host transfer channel + batch execution.

Execution semantics mirror UPMEM's host-synchronous model, the root of
the paper's load-balancing problem: the host launches a kernel on *all*
DPUs and must wait for the slowest one before it can gather results or
submit the next batch. Batch time is therefore

    t_batch = max_over_dpus(dpu_cycles) / f_dpu

plus any host<->PIM transfer time that is not overlapped.

:meth:`PimSystem.run_batch` takes per-DPU task lists (produced by the
runtime scheduler), executes the RC→LC→DC→TS kernel chain over each
DPU's resident cluster shards, and returns per-(query, shard) partial
top-k lists plus a :class:`BatchTiming` with the per-DPU, per-kernel
cycle ledger that Figs. 8/10/11/12 are built from.

Execution is batch-first: the numeric work for a round is vectorized
across the whole batch (RC+LC once per unique (query, centroid) pair,
DC+TS per shard group over all of its queries, optionally fanned out
to worker processes — see :mod:`repro.pim.parallel`), while cycle
charging replays the per-DPU shard-group order with the kernels'
closed-form costs, so ledgers, traces, and fault semantics are
identical to per-group execution and the results are bit-exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.square_lut import SquareLut
from repro.faults.plan import FaultPlan
from repro.pim.backend import (
    KernelBackend,
    resolve_backend,
)
from repro.pim.backend import (
    take_fallback_events as take_backend_fallback_events,
)
from repro.pim.config import PimSystemConfig
from repro.pim.dpu import Dpu
from repro.pim.kernels import (
    distance_scan_cost,
    lut_build_cost,
    residual_cost,
    run_cluster_locate,
    topk_sort_cost,
)
from repro.pim.parallel import (
    ExecutionPlanner,
    make_executor,
    scan_jobs_stacked,
    scan_shard_group,
)
from repro.pim.transfer import HostTransferModel


@dataclass
class ShardData:
    """One cluster shard resident on a DPU."""

    shard_key: str
    centroid: np.ndarray  # (D,) uint8
    ids: np.ndarray  # (n,) int64
    codes: np.ndarray  # (n, M) uint8/uint16


@dataclass
class BatchTiming:
    """Timing/provenance record for one PIM batch."""

    per_dpu_cycles: np.ndarray  # (num_dpus,)
    kernel_cycles: Dict[str, float]  # summed over DPUs
    pim_seconds: float  # max-DPU time (the batch's critical path)
    transfer_seconds: float  # host<->PIM traffic for this batch
    num_tasks: int
    # Fault provenance: tasks lost to dead DPUs (query index as passed
    # in `assignments`, shard key), and in-batch recovery counters.
    failed_tasks: List[Tuple[int, str]] = field(default_factory=list)
    transient_retries: int = 0
    transfer_timeouts: int = 0

    @property
    def busy_fraction(self) -> float:
        """Mean DPU utilization: avg cycles / max cycles (1 = balanced)."""
        mx = self.per_dpu_cycles.max() if len(self.per_dpu_cycles) else 0.0
        if mx <= 0:
            return 1.0
        return float(self.per_dpu_cycles.mean() / mx)


@dataclass
class PartialResult:
    """One (query, shard) task's local top-k."""

    query_index: int
    ids: np.ndarray
    distances: np.ndarray


class PimSystem:
    """A collection of simulated DPUs behind a host channel.

    Pass a :class:`~repro.pim.trace.Tracer` to record every kernel
    execution on a per-DPU cycle timeline (Fig. 5-style execution
    traces, exportable to Chrome trace JSON).
    """

    def __init__(
        self,
        config: PimSystemConfig,
        tracer=None,
        fault_plan: Optional[FaultPlan] = None,
        observer=None,
    ) -> None:
        self.config = config
        self.dpus: List[Dpu] = [
            Dpu(i, config.dpu) for i in range(config.num_dpus)
        ]
        self.transfer = HostTransferModel(config.transfer)
        self._shards: Dict[str, Tuple[int, ShardData]] = {}
        # Centroid identity registry: shards sharing centroid *content*
        # (replicas and parts of one cluster) share LUT construction in
        # the batched executor. Keyed by raw bytes so arbitrary shard
        # keys work; two clusters with identical centroids would also
        # share, which is exact (the LUT depends only on the centroid).
        self._cent_id_of: Dict[bytes, int] = {}
        self._centroid_by_id: List[np.ndarray] = []
        self._shard_cent: Dict[str, int] = {}
        # Opt-in worker pool for the functional shard scans, plus the
        # per-round serial/vectorized/pool strategy chooser. The
        # persistent pool attaches shard arrays lazily (first pool
        # round) via _ensure_pool_residency.
        self.executor = make_executor(
            config.shard_workers, kernel_backend=config.kernel_backend
        )
        self.planner = ExecutionPlanner()
        self._residency_dirty = True
        # Tombstone liveness: shard key → live row indices (None / absent
        # means every stored row is live). Stored rows keep streaming
        # through DC — only the candidate set shrinks — so the arena
        # residency stays valid across deletions; the live filter ships
        # per round instead.
        self._live_rows: Dict[str, Optional[np.ndarray]] = {}
        self._live_cache: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self.codebooks: Optional[np.ndarray] = None
        self.square_lut: Optional[SquareLut] = None
        self.tracer = tracer
        # Optional repro.obs.EngineObserver; None costs one check per site.
        self.observer = observer
        if fault_plan is not None and fault_plan.num_dpus != config.num_dpus:
            raise ValueError(
                f"fault plan covers {fault_plan.num_dpus} DPUs but the "
                f"system has {config.num_dpus}"
            )
        self.fault_plan = fault_plan
        self._batch_index = 0
        self._observed_dead: Set[int] = set()
        # Per-DPU effective clock: stragglers run derated for the run.
        if fault_plan is not None:
            self._eff_freq = config.dpu.frequency_hz * fault_plan.derates
        else:
            self._eff_freq = np.full(config.num_dpus, config.dpu.frequency_hz)

    def dead_dpus(self) -> Set[int]:
        """DPUs observed dead so far (fail-stopped in an executed batch)."""
        return set(self._observed_dead)

    def _max_seconds(self, per_dpu_cycles: np.ndarray) -> float:
        """Critical-path seconds over per-DPU cycle counts.

        With a fault plan, each DPU runs at its own (possibly derated)
        clock, so the batch ends with ``max_i(cycles_i / f_i)`` rather
        than ``max_i(cycles_i) / f``.
        """
        if len(per_dpu_cycles) == 0:
            return 0.0
        return float(np.max(per_dpu_cycles / self._eff_freq, initial=0.0))

    def _charge(self, dpu: Dpu, cost, detail: str = "") -> float:
        """Charge a kernel cost, recording a trace event if tracing."""
        start = dpu.total_cycles
        cycles = dpu.charge(cost)
        if self.tracer is not None:
            self.tracer.record(
                cost.kernel, dpu.dpu_id, start, start + cycles, detail
            )
        if self.observer is not None:
            self.observer.on_kernel(cost.kernel, dpu.dpu_id, cycles, cost.traffic)
        return cycles

    # ----- offline loading ------------------------------------------------
    def place_shard(self, dpu_id: int, shard: ShardData) -> None:
        """Store a shard's data in a DPU's MRAM (raises on overflow)."""
        if not 0 <= dpu_id < len(self.dpus):
            raise ValueError(f"dpu_id {dpu_id} out of range [0, {len(self.dpus)})")
        if shard.shard_key in self._shards:
            raise ValueError(f"shard {shard.shard_key!r} already placed")
        dpu = self.dpus[dpu_id]
        dpu.mram.store(f"codes:{shard.shard_key}", shard.codes)
        dpu.mram.store(f"ids:{shard.shard_key}", shard.ids)
        dpu.mram.store(f"centroid:{shard.shard_key}", shard.centroid)
        self._shards[shard.shard_key] = (dpu_id, shard)
        cent_key = np.ascontiguousarray(shard.centroid).tobytes()
        cent_id = self._cent_id_of.get(cent_key)
        if cent_id is None:
            cent_id = len(self._centroid_by_id)
            self._cent_id_of[cent_key] = cent_id
            self._centroid_by_id.append(np.asarray(shard.centroid))
        self._shard_cent[shard.shard_key] = cent_id
        # Placement changes invalidate the worker pool's zero-copy
        # residency; it is re-hosted on the next pool round.
        self._residency_dirty = True

    def update_shard(self, shard_key: str, ids: np.ndarray, codes: np.ndarray) -> None:
        """Replace an already-placed shard's rows (the add() grow path).

        Re-stores the MRAM objects (budget-checked), mutates the shard
        record in place so every holder of the :class:`ShardData` sees
        the new rows, and invalidates pool residency and liveness
        caches.
        """
        if shard_key not in self._shards:
            raise KeyError(f"shard {shard_key!r} not placed")
        if len(ids) != len(codes):
            raise ValueError(
                f"ids/codes row mismatch: {len(ids)} vs {len(codes)}"
            )
        dpu_id, shard = self._shards[shard_key]
        dpu = self.dpus[dpu_id]
        dpu.mram.store(f"codes:{shard_key}", codes)
        dpu.mram.store(f"ids:{shard_key}", ids)
        shard.ids = ids
        shard.codes = codes
        self._live_cache.pop(shard_key, None)
        self._residency_dirty = True

    def set_shard_liveness(
        self, shard_key: str, live_rows: Optional[np.ndarray]
    ) -> None:
        """Install (or clear, with ``None``) a shard's live-row filter.

        ``live_rows`` are indices into the shard's stored rows that
        survive tombstoning. The scan path drops the other rows before
        top-k; DC still streams every stored row and is charged for it.
        """
        if shard_key not in self._shards:
            raise KeyError(f"shard {shard_key!r} not placed")
        if live_rows is None:
            self._live_rows.pop(shard_key, None)
        else:
            self._live_rows[shard_key] = np.asarray(live_rows, dtype=np.intp)
        self._live_cache.pop(shard_key, None)

    def _scan_arrays(
        self, shard_key: str, shard: ShardData
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The (codes, ids) a scan sees: live rows only, cached."""
        live = self._live_rows.get(shard_key)
        if live is None:
            return shard.codes, shard.ids
        pair = self._live_cache.get(shard_key)
        if pair is None:
            pair = (shard.codes[live], shard.ids[live])
            self._live_cache[shard_key] = pair
        return pair

    def _live_count(self, shard_key: str, shard: ShardData) -> int:
        live = self._live_rows.get(shard_key)
        return len(shard.ids) if live is None else len(live)

    def shard_location(self, shard_key: str) -> int:
        return self._shards[shard_key][0]

    def get_shard(self, shard_key: str) -> ShardData:
        return self._shards[shard_key][1]

    def num_shards(self) -> int:
        return len(self._shards)

    def load_codebooks(self, codebooks: np.ndarray) -> float:
        """Broadcast the PQ codebooks into every DPU's MRAM.

        Returns modeled transfer seconds (offline cost).
        """
        codebooks = np.asarray(codebooks)
        for dpu in self.dpus:
            dpu.mram.store("codebooks", codebooks)
        self.codebooks = codebooks
        return self.transfer.broadcast(
            "codebooks", codebooks.nbytes, len(self.dpus)
        )

    def load_square_lut(self, lut: SquareLut) -> float:
        """Broadcast the square LUT's resident window into WRAM."""
        for dpu in self.dpus:
            dpu.wram.store("square_lut", lut.table[: 2 * lut.resident_max_abs + 1])
        self.square_lut = lut
        return self.transfer.broadcast(
            "square_lut", lut.resident_bytes, len(self.dpus)
        )

    def mram_usage(self) -> np.ndarray:
        """Per-DPU MRAM bytes in use."""
        return np.array([d.mram.used_bytes for d in self.dpus], dtype=np.int64)

    # ----- CL on PIM (cluster_locate_on="pim" placement) --------------------
    def load_centroid_slices(self, centroids: np.ndarray) -> float:
        """Distribute the centroid table across DPUs in contiguous slices.

        Enables :meth:`locate_on_pim`. Returns offline transfer seconds.
        """
        centroids = np.asarray(centroids)
        num = len(self.dpus)
        bounds = np.linspace(0, centroids.shape[0], num + 1).astype(int)
        self._centroid_bounds = bounds
        for i, dpu in enumerate(self.dpus):
            sl = centroids[bounds[i] : bounds[i + 1]]
            if len(sl):
                dpu.mram.store("centroid_slice", sl)
        return self.transfer.scatter("centroid_slices", centroids.nbytes)

    def locate_on_pim(self, queries: np.ndarray, nprobe: int):
        """CL phase executed on the DPUs over their centroid slices.

        Each DPU returns its slice-local top-nprobe per query; the host
        merges the partial lists (cheap: num_dpus*nprobe candidates per
        query) — the paper's alternative placement when CL's C2IO makes
        host execution the bottleneck. The candidate gather pays the
        narrow host channel, which is why CL defaults to the host.

        Returns ``(probes, cl_seconds, cl_kernel_cycles)``.
        """
        if not hasattr(self, "_centroid_bounds"):
            raise RuntimeError(
                "centroid slices not loaded; call load_centroid_slices first"
            )
        queries = np.asarray(queries)
        nq = queries.shape[0]
        cycles_before = np.array([d.total_cycles for d in self.dpus])
        cand_ids = []
        cand_dists = []
        gather_bytes = 0
        bounds = self._centroid_bounds
        for i, dpu in enumerate(self.dpus):
            if bounds[i + 1] <= bounds[i]:
                continue
            sl = dpu.mram.load("centroid_slice")
            (idx, vals), cost = run_cluster_locate(
                queries, sl, nprobe, self.square_lut
            )
            self._charge(dpu, cost, "centroid_slice")
            cand_ids.append(idx + bounds[i])
            cand_dists.append(vals)
            gather_bytes += idx.size * 12  # id + distance per candidate
        ids = np.concatenate(cand_ids, axis=1)
        dists = np.concatenate(cand_dists, axis=1)
        order = np.argsort(dists, axis=1, kind="stable")[:, :nprobe]
        probes = np.take_along_axis(ids, order, axis=1)

        cycles_after = np.array([d.total_cycles for d in self.dpus])
        delta = cycles_after - cycles_before
        cl_seconds = self._max_seconds(delta)
        cl_gather = self.transfer.gather("cl_candidates", gather_bytes)
        cl_seconds += cl_gather
        if self.observer is not None:
            self.observer.on_transfer("gather", cl_gather)
        return probes, cl_seconds, float(delta.sum())

    # ----- batch execution --------------------------------------------------
    def run_batch(
        self,
        assignments: Dict[int, Sequence[Tuple[int, str]]],
        queries: np.ndarray,
        k: int,
        *,
        multiplier_less: bool = True,
        batch_span: int = 1,
        plan: str = "auto",
        kernel_backend: Optional[str] = None,
    ) -> Tuple[List[PartialResult], BatchTiming]:
        """Execute one batch of (query, shard) tasks.

        Parameters
        ----------
        assignments: dpu_id → list of (query_index, shard_key) tasks.
            Every shard_key must be resident on that dpu.
        queries: ``(q, D)`` uint8 — the batch's queries (broadcast).
        k: local top-k each task returns.
        multiplier_less: use the square LUT in LC (must be loaded).
        plan: data-plane strategy for the functional scans ("auto" /
            "serial" / "vectorized" / "pool" — see
            :class:`~repro.pim.parallel.ExecutionPlanner`). Purely a
            wall-clock choice: results and cycle ledgers are identical
            in every mode.
        kernel_backend: per-call kernel-backend override ("auto" /
            "numpy" / "numba" — see :mod:`repro.pim.backend`); None
            takes :attr:`PimSystemConfig.kernel_backend`. Like
            ``plan``, purely a wall-clock choice — every backend is
            bit-identical and the cycle ledgers are charged from
            closed forms over shapes, never from the backend.
        batch_span: how many *logical* batches this round covers. Fault
            plans index events by logical batch (``batch_size`` query
            chunks); batched execution folds several logical batches
            into one physical round, so the round consumes the fault
            events of every logical batch it spans — a DPU whose crash
            batch falls inside the span is dead for the whole round,
            and each spanned transient/timeout hit fires once.

        Returns
        -------
        (partials, timing): all tasks' local top-k lists plus the batch
        timing record. Tasks assigned to a fail-stopped DPU are *not*
        executed; they come back in ``timing.failed_tasks`` for the
        caller to fail over (see :mod:`repro.faults`).
        """
        for dpu_id in assignments:
            if not 0 <= dpu_id < len(self.dpus):
                raise ValueError(
                    f"assignment dpu_id {dpu_id} out of range "
                    f"[0, {len(self.dpus)})"
                )
        if self.codebooks is None:
            raise RuntimeError("codebooks not loaded; call load_codebooks first")
        sq = None
        if multiplier_less:
            if self.square_lut is None:
                raise RuntimeError(
                    "multiplier_less requested but no square LUT loaded"
                )
            sq = self.square_lut

        if batch_span < 1:
            raise ValueError(f"batch_span must be >= 1, got {batch_span}")
        if plan not in ("auto", "serial", "vectorized", "pool"):
            raise ValueError(
                "plan must be one of ('auto', 'serial', 'vectorized', "
                f"'pool'), got {plan!r}"
            )
        backend_mode = (
            kernel_backend
            if kernel_backend is not None
            else self.config.kernel_backend
        )
        backend = resolve_backend(backend_mode)
        queries = np.asarray(queries)
        num_tasks = sum(len(t) for t in assignments.values())
        batch = self._batch_index
        self._batch_index += batch_span
        fplan = self.fault_plan
        if fplan is not None:
            self._observed_dead |= fplan.dead_at(batch + batch_span - 1)
        if self.tracer is not None:
            self.tracer.next_batch()
        obs = self.observer
        if obs is not None:
            obs.on_batch()
            obs.on_kernel_backend(backend.name)

        # Host->PIM: queries are broadcast, per-DPU task lists scattered.
        bcast = self.transfer.broadcast("queries", queries.nbytes, len(self.dpus))
        scat = self.transfer.scatter("task_lists", num_tasks * 8)
        xfer = bcast + scat
        if obs is not None:
            obs.on_transfer("broadcast", bcast)
            obs.on_transfer("scatter", scat)

        cycles_before = np.array([d.total_cycles for d in self.dpus])
        kernel_before: Dict[str, float] = {}
        for d in self.dpus:
            for kname, c in d.cycles_by_kernel.items():
                kernel_before[kname] = kernel_before.get(kname, 0.0) + c

        # ---- flatten assignments into the ordered shard-group list.
        # Group order is the legacy per-DPU traversal (assignment
        # iteration order, then first-appearance shard order within a
        # DPU): the charging pass below replays it exactly, so traces,
        # per-DPU ledgers, and fault semantics are unchanged.
        groups: List[Tuple[int, str, List[int]]] = []
        failed_tasks: List[Tuple[int, str]] = []
        for dpu_id, tasks in assignments.items():
            if not tasks:
                continue
            if dpu_id in self._observed_dead:
                # Fail-stop: the DPU never responds; its tasks are lost
                # and surface in timing.failed_tasks for failover.
                failed_tasks.extend(tasks)
                continue
            # Group this DPU's tasks by shard so RC/LC/DC batch across
            # the queries probing the same shard (as tasklets would
            # share the streamed cluster data).
            by_shard: Dict[str, List[int]] = {}
            for qidx, skey in tasks:
                owner, _ = self._shards[skey]
                if owner != dpu_id:
                    raise ValueError(
                        f"task references shard {skey!r} on DPU {owner}, "
                        f"assigned to DPU {dpu_id}"
                    )
                by_shard.setdefault(skey, []).append(qidx)
            for skey, qidxs in by_shard.items():
                groups.append((dpu_id, skey, qidxs))

        # ---- functional pass: vectorized RC+LC per centroid, DC+TS
        # per shard group via the planner-chosen path (serial loop,
        # stacked cross-DPU NumPy calls, or worker processes).
        group_rows, group_misses = self._run_groups_functional(
            groups,
            queries,
            k,
            sq,
            plan=plan,
            backend=backend,
        )

        # ---- charging pass: replay the per-DPU group order, charging
        # closed-form kernel costs identical to the per-group kernels'.
        partials: List[PartialResult] = []
        transient_retries = 0
        result_bytes = 0
        transient_done: Set[int] = set()
        for gi, (dpu_id, skey, qidxs) in enumerate(groups):
            dpu = self.dpus[dpu_id]
            shard = self._shards[skey][1]
            misses = group_misses[gi]
            live_n = self._live_count(skey, shard)
            self._charge_shard_group(
                dpu, shard, len(qidxs), k, sq, misses, skey, live_n=live_n
            )
            # One pre-drawn transient kernel fault per (DPU, logical
            # batch) at most: the first shard group's execution is
            # wasted and retried on the same DPU after a modeled
            # backoff. A round spanning several logical batches fires
            # each spanned hit once. The retry recomputes identical
            # rows, so only cycles differ.
            if fplan is not None and dpu_id not in transient_done:
                transient_done.add(dpu_id)
                hits = sum(
                    fplan.transient_at(dpu_id, b)
                    for b in range(batch, batch + batch_span)
                )
                for retry in range(hits):
                    transient_retries += 1
                    if obs is not None:
                        obs.on_transient_retry()
                    dpu.stall(
                        fplan.config.transient_backoff_s
                        * self.config.dpu.frequency_hz
                    )
                    # The retry event starts after the original attempt
                    # ends (the `repro lint` trace invariant).
                    self._charge_shard_group(
                        dpu, shard, len(qidxs), k, sq, misses,
                        f"{skey}#retry{retry + 1}", live_n=live_n,
                    )
            for qidx, (rids, rdists) in zip(qidxs, group_rows[gi]):
                partials.append(
                    PartialResult(
                        query_index=qidx, ids=rids, distances=rdists
                    )
                )
                result_bytes += len(rids) * 16  # id + distance

        # PIM->host: gather per-task top-k results. A pre-drawn timeout
        # charges the wasted attempt, then the gather is re-issued.
        transfer_timeouts = 0
        if fplan is not None:
            for b in range(batch, batch + batch_span):
                if fplan.transfer_timeout_at(b):
                    transfer_timeouts += 1
                    wasted = self.transfer.timeout(
                        "results", fplan.config.transfer_timeout_s
                    )
                    xfer += wasted
                    if obs is not None:
                        obs.on_transfer_timeout()
                        obs.on_transfer("timeout", wasted)
        gath = self.transfer.gather("results", result_bytes)
        xfer += gath
        if obs is not None:
            obs.on_transfer("gather", gath)
            if failed_tasks:
                obs.on_failed_tasks(len(failed_tasks))

        cycles_after = np.array([d.total_cycles for d in self.dpus])
        per_dpu = cycles_after - cycles_before
        kernel_after: Dict[str, float] = {}
        for d in self.dpus:
            for kname, c in d.cycles_by_kernel.items():
                kernel_after[kname] = kernel_after.get(kname, 0.0) + c
        kernel_cycles = {
            kname: kernel_after.get(kname, 0.0) - kernel_before.get(kname, 0.0)
            for kname in sorted(set(kernel_before) | set(kernel_after))
        }

        timing = BatchTiming(
            per_dpu_cycles=per_dpu,
            kernel_cycles=kernel_cycles,
            pim_seconds=self._max_seconds(per_dpu),
            transfer_seconds=xfer,
            num_tasks=num_tasks,
            failed_tasks=failed_tasks,
            transient_retries=transient_retries,
            transfer_timeouts=transfer_timeouts,
        )
        return partials, timing

    def _run_groups_functional(
        self,
        groups: List[Tuple[int, str, List[int]]],
        queries: np.ndarray,
        k: int,
        sq: Optional[SquareLut],
        *,
        plan: str = "auto",
        backend: Optional[KernelBackend] = None,
    ) -> Tuple[List[list], List[int]]:
        """Numeric results for every shard group, vectorized per centroid.

        RC and LC run once per unique (query, centroid) pair — parts
        and replicas of a cluster reuse the same LUT rows instead of
        rebuilding them per shard — and DC/TS run per shard group over
        all of its queries at once, on the data-plane path the planner
        picks for this round (serial per-group loop, stacked cross-DPU
        NumPy calls, or the worker pool). Integer math makes every path
        bit-identical to per-group recomputation.

        Returns per-group result rows and per-group square-LUT miss
        counts (for LC cost charging), indexed like ``groups``.
        """
        if backend is None:
            backend = resolve_backend(self.config.kernel_backend)
        # One strategy decision per round, from the round's measured
        # size; the per-centroid dispatch below then applies it while
        # keeping the centroid-major LUT memory bound.
        path = "serial"
        scan_points = 0
        if groups:
            num_jobs = 0
            scan_points = 0
            m = self.codebooks.shape[0]
            for _, skey, qidxs in groups:
                n = self._live_count(skey, self._shards[skey][1])
                if n:
                    num_jobs += 1
                    scan_points += len(qidxs) * n * m
            if plan in ("auto", "pool") and self.executor is not None:
                self._ensure_pool_residency()
            path = self.planner.choose(
                plan,
                num_jobs=num_jobs,
                scan_points=scan_points,
                executor=self.executor,
                backend=backend,
            )
            if self.observer is not None:
                self.observer.on_plan_decision(path)

        # Centroid-major consumption order bounds LUT memory to one
        # centroid's pairs at a time regardless of how its shard groups
        # interleave across DPUs.
        cent_groups: Dict[int, List[int]] = {}
        for gi, (_, skey, _) in enumerate(groups):
            cent_groups.setdefault(self._shard_cent[skey], []).append(gi)

        empty_row = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        group_rows: List[list] = [None] * len(groups)  # type: ignore[list-item]
        group_misses: List[int] = [0] * len(groups)
        scan_seconds = 0.0
        for cent_id, gis in cent_groups.items():
            # Unique queries probing this centroid, first-use order.
            row_of: Dict[int, int] = {}
            for gi in gis:
                for qidx in groups[gi][2]:
                    if qidx not in row_of:
                        row_of[qidx] = len(row_of)
            luts, pair_misses = self._build_cent_luts(
                list(row_of),
                self._centroid_by_id[cent_id],
                queries,
                sq,
                backend=backend,
            )
            jobs = []
            job_gis = []
            for gi in gis:
                qidxs = groups[gi][2]
                skey = groups[gi][1]
                shard = self._shards[skey][1]
                group_misses[gi] = int(
                    sum(pair_misses[row_of[q]] for q in qidxs)
                )
                codes_s, ids_s = self._scan_arrays(skey, shard)
                if len(ids_s):
                    luts_g = luts[[row_of[q] for q in qidxs]]
                    jobs.append((luts_g, codes_s, ids_s, k))
                    job_gis.append(gi)
                else:
                    group_rows[gi] = [empty_row] * len(qidxs)
            if jobs:
                t0 = time.perf_counter()
                if path == "pool" and self.executor is not None:
                    results = self.executor.scan_groups(
                        jobs,
                        [groups[gi][1] for gi in job_gis],
                        [self._live_rows.get(groups[gi][1]) for gi in job_gis],
                        backend,
                    )
                elif path in ("vectorized", "compiled"):
                    results = scan_jobs_stacked(jobs, backend=backend)
                else:
                    results = [
                        scan_shard_group(*job, backend=backend)
                        for job in jobs
                    ]
                scan_seconds += time.perf_counter() - t0
                for gi, rows in zip(job_gis, results):
                    group_rows[gi] = rows

        # Measured rate feedback: plan="auto" arbitrates pool vs the
        # in-process (possibly compiled) path empirically once both
        # have been observed. Purely advisory — never touches results.
        self.planner.note_round(path, scan_points, scan_seconds)

        # Surface every pool degradation (instead of swallowing it):
        # drained here so events land even when the observer was
        # attached after construction.
        if self.executor is not None:
            events = self.executor.take_fallback_events()
            if self.observer is not None:
                for reason in events:
                    self.observer.on_pool_fallback(reason)
        # Same for kernel-backend degradations (numba missing, JIT
        # failure mid-flight): drained every round so the module-level
        # buffer never grows unbounded, reported when observed.
        for reason in take_backend_fallback_events():
            if self.observer is not None:
                self.observer.on_kernel_fallback(reason)
        return group_rows, group_misses

    def _ensure_pool_residency(self) -> None:
        """Host every shard's codes/ids in the persistent pool's arena.

        Lazy (first pool-eligible round) and re-run after any
        :meth:`place_shard`, which invalidates previous residency.
        """
        ex = self.executor
        if ex is None:
            return
        if not self._residency_dirty and ex.attached:
            return
        ex.host_shards(
            {
                key: (shard.codes, shard.ids)
                for key, (_, shard) in self._shards.items()
            }
        )
        self._residency_dirty = False

    def _build_cent_luts(
        self,
        qidxs: List[int],
        centroid: np.ndarray,
        queries: np.ndarray,
        sq: Optional[SquareLut],
        backend: KernelBackend,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched RC+LC: LUTs for every (query, centroid) pair.

        RC is ``run_residual``'s int32 subtraction; LC always goes
        through the kernel backend's
        :meth:`~repro.pim.backend.KernelBackend.build_luts`, the same
        exact integers ``run_lut_build`` produces. The multiplier-less
        conversion (§III-A) changes which DPU instructions compute a
        square, not its value (``SquareLut.table[v] == v*v``), so it
        moves only the modeled LC cost. That cost needs the square-LUT
        miss count, which is nonzero only for a *partial* table; only
        then is the difference tensor formed, to count the lookups
        outside the resident window. Returns ``(g, M, CB)`` int64 LUTs
        and per-pair miss counts.
        """
        residuals = queries[qidxs].astype(np.int32) - centroid.astype(np.int32)
        luts = backend.build_luts(residuals, self.codebooks)
        g = len(qidxs)
        if sq is None or sq.resident_max_abs >= sq.max_abs:
            return luts, np.zeros(g, dtype=np.int64)
        m, _, dsub = self.codebooks.shape
        diff = residuals.astype(np.int64).reshape(g, m, 1, dsub) - self.codebooks
        return luts, np.count_nonzero(
            np.abs(diff) > sq.resident_max_abs, axis=(1, 2, 3)
        ).astype(np.int64)

    def _charge_shard_group(
        self,
        dpu: Dpu,
        shard: ShardData,
        g: int,
        k: int,
        sq: Optional[SquareLut],
        misses: int,
        detail: str,
        live_n: Optional[int] = None,
    ) -> None:
        """Charge the RC→LC→DC→TS chain for one shard group.

        Costs come from the kernels' closed forms over shapes alone, so
        they are identical whether the numeric work ran per group, was
        deduplicated across shards, or executed in a worker process.
        Tombstones are charged honestly: DC streams and scans every
        *stored* row (deleted codes still occupy MRAM and flow through
        the kernel — the filter happens during the scan), while TS sorts
        only the *live* candidates that survive it.
        """
        d = int(np.asarray(shard.centroid).shape[0])
        m, cb, _ = self.codebooks.shape
        self._charge(dpu, residual_cost(g, d, shard.centroid.nbytes), detail)
        self._charge(
            dpu,
            lut_build_cost(
                g, d, m, cb, self.codebooks.nbytes,
                multiplier_less=sq is not None,
                misses=misses,
            ),
            detail,
        )
        n = len(shard.ids)
        live = n if live_n is None else live_n
        if n:
            self._charge(
                dpu, distance_scan_cost(g, n, m, shard.codes.nbytes), detail
            )
            if live:
                self._charge(dpu, topk_sort_cost(g, live, k), detail)

    def reset_ledgers(self) -> None:
        for d in self.dpus:
            d.reset_ledger()
        self.transfer.reset()

    def close(self) -> None:
        """Tear down the optional shard-executor worker pool."""
        if self.executor is not None:
            self.executor.close()
