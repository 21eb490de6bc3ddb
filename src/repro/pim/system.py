"""The PIM system: DPUs + host transfer channel + batch execution.

Execution semantics mirror UPMEM's host-synchronous model, the root of
the paper's load-balancing problem: the host launches a kernel on *all*
DPUs and must wait for the slowest one before it can gather results or
submit the next batch. Batch time is therefore

    t_batch = max_over_dpus(dpu_cycles) / f_dpu

plus any host<->PIM transfer time that is not overlapped.

:meth:`PimSystem.run_batch` takes per-DPU task lists (produced by the
runtime scheduler) and *charges* one round: the RC→LC→DC→TS kernel
chain over each DPU's resident cluster shards, booked on a
:class:`BatchTiming` with the per-DPU, per-kernel cycle ledger that
Figs. 8/10/11/12 are built from, plus the tasks that ran. Charging
replays the per-DPU shard-group order: a group's four RC/LC/DC/TS
cycle counts come from the kernels' closed forms, computed once per
distinct group shape and added to each DPU's ledger with plain ``+=``
in that order, so ledgers, traces, and fault semantics are those of
per-group execution. A round computes nothing.

:meth:`PimSystem.compute_tasks` *computes*: the top-k of a set of
tasks, typically every task one search ran, whatever its round count.
A task's ids and distances depend only on its query and its data
shard, never on the round, DPU or replica that ran it, so the compute
plane scans each data shard once per call, from term tables built once
per unique query and per-point terms resident next to each shard's
scan offsets (see :meth:`~PimSystem.compute_tasks`). The host does not
build the per-task LUTs that LC models; the ledger still charges LC
per task.

A batch's cycles are differences of a *search ledger* that
:meth:`PimSystem.begin_search` zeroes, not of the DPUs' lifetime
ledgers, so a search's timing does not depend on how many searches the
system ran before it. On a fresh system the two ledgers coincide.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.square_lut import SquareLut
from repro.faults.plan import FaultPlan
from repro.pim import parallel
from repro.pim.backend import resolve_backend
from repro.pim.backend.numpy_backend import CodebookTerms, gather_offsets, slab_rows
from repro.pim.config import PimSystemConfig
from repro.pim.dpu import Dpu, KernelCost
from repro.pim.kernels import (
    distance_scan_cost,
    lut_build_cost,
    residual_cost,
    run_cluster_locate,
    topk_sort_cost,
)
from repro.pim.parallel import ExecutionPlanner, make_executor, scan_jobs_stacked
# Not called here: benchmarks/suite/tracing.py wraps this attribute.
from repro.pim.parallel import scan_shard_group  # noqa: F401
from repro.pim.transfer import HostTransferModel
from repro.utils import check_count, check_operands


#: Distinct shard-group shapes whose kernel charges one system keeps;
#: the memo restarts when full (it only saves recomputation).
CHARGE_MEMO_ENTRIES = 4096

#: Query-term table bytes (at 8 B per entry) one query slab of
#: :meth:`PimSystem.compute_tasks` holds, a row per task: a call past it
#: takes its queries in slabs, which bounds a whole-matrix search's
#: transient memory without changing a result.
ROUND_LUT_BYTES = 64 * 1024 * 1024

#: One kernel charge: the closed-form cost and the cycles it takes.
Charge = Tuple[KernelCost, float]


@dataclass
class ShardData:
    """One cluster shard resident on a DPU."""

    shard_key: str
    centroid: np.ndarray  # (D,) uint8
    ids: np.ndarray  # (n,) int64
    codes: np.ndarray  # (n, M) uint8/uint16
    # Shards sharing a data key hold identical rows and liveness (the
    # replicas of one cluster part); None: the shard's own key.
    data_key: Optional[object] = None


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
    # The (query index, shard key) tasks that ran, for compute_tasks.
    tasks: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def busy_fraction(self) -> float:
        """Mean DPU utilization: avg cycles / max cycles (1 = balanced)."""
        mx = self.per_dpu_cycles.max() if len(self.per_dpu_cycles) else 0.0
        if mx <= 0:
            return 1.0
        return float(self.per_dpu_cycles.mean() / mx)


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
        # (replicas and parts of one cluster) share one centroid id,
        # which names their row of the stacked centroid table that the
        # compute plane's row terms, the pool's build_luts and the
        # square-LUT miss counts read. Keyed by raw bytes so arbitrary
        # shard keys work; two clusters with identical centroids would
        # also share, which is exact (every use depends only on the
        # centroid's values).
        self._cent_id_of: Dict[bytes, int] = {}
        self._centroid_by_id: List[np.ndarray] = []
        # The registry stacked (C, D), the LC's centroid operand; rebuilt
        # after place_shard registers a new centroid.
        self._centroid_table: Optional[np.ndarray] = None
        self._shard_cent: Dict[str, int] = {}
        # Data identity: shard key -> data id, and each data id's
        # canonical (first placed) shard key, the one compute_tasks scans.
        self._data_of: Dict[object, int] = {}
        self._data_id: Dict[str, int] = {}
        self._data_keys: List[str] = []
        # Opt-in worker pool for the functional shard scans, plus the
        # per-round vectorized/pool chooser. The persistent pool
        # attaches shard arrays lazily (first round, or warm_pool) via
        # _ensure_pool_residency.
        self.executor = make_executor(config.shard_workers)
        self.planner = ExecutionPlanner()
        # The host kernels the compute plane runs on.
        self.backend = resolve_backend()
        self._residency_dirty = True
        # Tombstone liveness: shard key → live row indices (None / absent
        # means every stored row is live). Stored rows keep streaming
        # through DC — only the candidate set shrinks — so the arena
        # residency stays valid across deletions; the live filter ships
        # per round instead.
        self._live_rows: Dict[str, Optional[np.ndarray]] = {}
        # Resident scan operands: shard key → ((M, n) intp gather
        # offsets, (n,) ids, (n,) point terms) over the live rows,
        # built and range-checked on a shard's first scan, dropped when
        # its rows or liveness change (see _scan_operands).
        self._live_cache: Dict[str, Tuple[np.ndarray, ...]] = {}
        self.codebooks: Optional[np.ndarray] = None
        # The codebooks' derived operands, built once per load_codebooks.
        self.codebook_terms: Optional[CodebookTerms] = None
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
        # Search ledger: per DPU, kernel -> cycles and stall cycles since
        # begin_search(). Batch timings difference it (see module doc).
        self._search_kernels: List[Dict[str, float]] = []
        self._search_stall: List[float] = []
        self.begin_search()
        # Shard-group shape -> its RC/LC/DC/TS charges. Every DPU shares
        # config.dpu, so the cycles hold on any DPU.
        self._charge_memo: Dict[tuple, Tuple[Charge, ...]] = {}
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

    def begin_search(self) -> None:
        """Zero the search ledger that batch timings are differenced on."""
        num = len(self.dpus)
        self._search_kernels = [{} for _ in range(num)]
        self._search_stall = [0.0] * num

    def _ledger_total(self, dpu_id: int) -> float:
        """A DPU's search-ledger cycles, summed like ``Dpu.total_cycles``."""
        return (
            sum(self._search_kernels[dpu_id].values())
            + self._search_stall[dpu_id]
        )

    def _kernel_totals(self) -> Dict[str, float]:
        """Search-ledger cycles per kernel, summed over DPUs in order."""
        out: Dict[str, float] = {}
        for ledger in self._search_kernels:
            for kname, c in ledger.items():
                out[kname] = out.get(kname, 0.0) + c
        return out

    def _book(self, dpu: Dpu, charges: Sequence[Charge], detail: str) -> None:
        """Add kernel charges to a DPU's lifetime and search ledgers.

        Reads ``dpu.total_cycles`` only for the tracer's timeline.
        """
        ledger = self._search_kernels[dpu.dpu_id]
        tracer = self.tracer
        obs = self.observer
        for cost, cycles in charges:
            kname = cost.kernel
            if tracer is not None:
                start = dpu.total_cycles
                tracer.record(kname, dpu.dpu_id, start, start + cycles, detail)
            dpu.add_cycles(kname, cycles)
            ledger[kname] = ledger.get(kname, 0.0) + cycles
            if obs is not None:
                obs.on_kernel(kname, dpu.dpu_id, cycles, cost.traffic)

    def _charge(self, dpu: Dpu, cost: KernelCost, detail: str = "") -> float:
        """Charge one kernel cost, recording a trace event if tracing."""
        cycles = dpu.cost_cycles(cost)
        self._book(dpu, ((cost, cycles),), detail)
        return cycles

    def _stall(self, dpu: Dpu, cycles: float) -> None:
        """Stall a DPU, on its lifetime and search ledgers."""
        dpu.stall(cycles)
        self._search_stall[dpu.dpu_id] += cycles

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
            self._centroid_table = None
        self._shard_cent[shard.shard_key] = cent_id
        data_key = shard.shard_key if shard.data_key is None else shard.data_key
        data_id = self._data_of.setdefault(data_key, len(self._data_keys))
        if data_id == len(self._data_keys):
            self._data_keys.append(shard.shard_key)
        self._data_id[shard.shard_key] = data_id
        # Placement changes invalidate the worker pool's zero-copy
        # residency; it is re-hosted on the next pool round.
        self._residency_dirty = True

    def update_shard(self, shard_key: str, ids: np.ndarray, codes: np.ndarray) -> None:
        """Replace an already-placed shard's rows (the add() grow path).

        Re-stores the MRAM objects (budget-checked), mutates the shard
        record in place so every holder of the :class:`ShardData` sees
        the new rows, and invalidates pool residency and the shard's
        resident scan operands.
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

    def _live_arrays(
        self, shard_key: str, shard: ShardData
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The (codes, ids) a scan sees: live rows only."""
        live = self._live_rows.get(shard_key)
        if live is None:
            return shard.codes, shard.ids
        return shard.codes[live], shard.ids[live]

    def _scan_operands(
        self, shard_key: str, shard: ShardData
    ) -> Tuple[np.ndarray, ...]:
        """A shard's resident ``(offsets (M, n), ids (n,), point terms
        (n,))`` over its live rows.

        Built once, like the codes' MRAM layout: the first scan of a
        shard range-checks its codes (``IndexError`` for a code outside
        ``[0, CB)``, before any offset reaches the gather) and keeps the
        offsets and the int64 point terms
        (:meth:`~repro.pim.backend.NumpyBackend.point_terms`), at ``8 *
        M + 8`` bytes per live row, until :meth:`update_shard`,
        :meth:`set_shard_liveness` or :meth:`load_codebooks` drops them.
        """
        ops = self._live_cache.get(shard_key)
        if ops is None:
            codes, ids = self._live_arrays(shard_key, shard)
            off = gather_offsets(codes, self.codebooks.shape[1])
            pts = self.backend.point_terms(
                shard.centroid, off, self.codebook_terms
            )
            ops = (off, ids, pts)
            self._live_cache[shard_key] = ops
        return ops

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
        self.codebook_terms = CodebookTerms(codebooks)
        self._charge_memo.clear()
        self._live_cache.clear()  # offsets are relative to CB
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
        cycles_before = np.array(
            [self._ledger_total(i) for i in range(len(self.dpus))]
        )
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

        cycles_after = np.array(
            [self._ledger_total(i) for i in range(len(self.dpus))]
        )
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
    ) -> BatchTiming:
        """Charge one PIM round of (query, shard) tasks.

        Fault plans index their events by round: each call consumes
        one batch index of the plan.

        Parameters
        ----------
        assignments: dpu_id → list of (query_index, shard_key) tasks.
            Every shard_key must be resident on that dpu, and every
            query_index in ``[0, q)`` (else ``ValueError`` naming
            ``assignments``).
        queries: ``(q, D)`` — the batch's queries (broadcast), with
            integral values in ``[0, 255]`` and ``D`` the codebooks'
            ``M * dsub``; anything else raises ``ValueError`` naming
            ``queries`` (never a silent truncation).
        k: local top-k each task returns, an int >= 1
            (:func:`~repro.utils.check_count`).
        multiplier_less: use the square LUT in LC (must be loaded).

        Returns
        -------
        The batch timing record. Its ``tasks`` are the ``(query index,
        shard key)`` tasks that ran, in the per-DPU shard-group order;
        :meth:`compute_tasks` computes their top-k. Tasks assigned to
        a fail-stopped DPU do *not* run; they come back in
        ``failed_tasks`` for the caller to fail over (see
        :mod:`repro.faults`).
        """
        check_count(k, "k")
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

        # The round charges (and broadcasts) uint8 queries, whatever
        # integral dtype the caller passed.
        queries = self._check_queries(queries)
        num_tasks = sum(len(t) for t in assignments.values())
        batch = self._batch_index
        self._batch_index += 1
        fplan = self.fault_plan
        if fplan is not None:
            self._observed_dead |= fplan.dead_at(batch)
        if self.tracer is not None:
            self.tracer.next_batch()
        obs = self.observer
        if obs is not None:
            obs.on_batch()

        # Host->PIM: queries are broadcast, per-DPU task lists scattered.
        bcast = self.transfer.broadcast("queries", queries.nbytes, len(self.dpus))
        scat = self.transfer.scatter("task_lists", num_tasks * 8)
        xfer = bcast + scat
        if obs is not None:
            obs.on_transfer("broadcast", bcast)
            obs.on_transfer("scatter", scat)

        kernel_before = self._kernel_totals()

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
                if not 0 <= qidx < len(queries):
                    raise ValueError(
                        f"assignments name query {qidx}, outside "
                        f"[0, {len(queries)})"
                    )
                owner, _ = self._shards[skey]
                if owner != dpu_id:
                    raise ValueError(
                        f"task references shard {skey!r} on DPU {owner}, "
                        f"assigned to DPU {dpu_id}"
                    )
                by_shard.setdefault(skey, []).append(qidx)
            for skey, qidxs in by_shard.items():
                groups.append((dpu_id, skey, qidxs))
        # Only DPUs with groups are charged; every other DPU's batch
        # cycles are exactly 0.
        cycles_before = {
            dpu_id: self._ledger_total(dpu_id) for dpu_id, _, _ in groups
        }
        lives = [
            self._live_count(skey, self._shards[skey][1]) for _, skey, _ in groups
        ]
        group_misses = self._group_misses(queries, groups, sq)

        # ---- charging pass: replay the per-DPU group order, charging
        # closed-form kernel costs identical to the per-group kernels'.
        transient_retries = 0
        result_bytes = 0
        transient_done: Set[int] = set()
        for gi, (dpu_id, skey, qidxs) in enumerate(groups):
            dpu = self.dpus[dpu_id]
            shard = self._shards[skey][1]
            charges = self._group_charges(
                dpu, shard, len(qidxs), k, sq, group_misses[gi], lives[gi]
            )
            self._book(dpu, charges, skey)
            # One pre-drawn transient kernel fault per (DPU, round) at
            # most: the first shard group's execution is wasted and
            # retried on the same DPU after a modeled backoff. The
            # retry recomputes identical rows, so only cycles differ.
            if fplan is not None and dpu_id not in transient_done:
                transient_done.add(dpu_id)
                if fplan.transient_at(dpu_id, batch):
                    transient_retries += 1
                    if obs is not None:
                        obs.on_transient_retry()
                    self._stall(
                        dpu,
                        fplan.config.transient_backoff_s
                        * self.config.dpu.frequency_hz,
                    )
                    # The retry event starts after the original attempt
                    # ends (the `repro lint` trace invariant).
                    self._book(dpu, charges, f"{skey}#retry1")
            # A task's slot holds min(k, live) (id, distance) pairs.
            result_bytes += len(qidxs) * min(k, lives[gi]) * 16

        # PIM->host: gather per-task top-k results. A pre-drawn timeout
        # charges the wasted attempt, then the gather is re-issued.
        transfer_timeouts = 0
        if fplan is not None and fplan.transfer_timeout_at(batch):
            transfer_timeouts = 1
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

        per_dpu = np.zeros(len(self.dpus))
        for dpu_id, before in cycles_before.items():
            per_dpu[dpu_id] = self._ledger_total(dpu_id) - before
        kernel_after = self._kernel_totals()
        kernel_cycles = {
            kname: kernel_after.get(kname, 0.0) - kernel_before.get(kname, 0.0)
            for kname in sorted(set(kernel_before) | set(kernel_after))
        }

        return BatchTiming(
            per_dpu_cycles=per_dpu,
            kernel_cycles=kernel_cycles,
            pim_seconds=self._max_seconds(per_dpu),
            transfer_seconds=xfer,
            num_tasks=num_tasks,
            failed_tasks=failed_tasks,
            transient_retries=transient_retries,
            transfer_timeouts=transfer_timeouts,
            tasks=[(qidx, skey) for _, skey, qidxs in groups for qidx in qidxs],
        )

    def _check_queries(self, queries: np.ndarray) -> np.ndarray:
        """``(q, M * dsub)`` uint8 queries, else ``ValueError`` naming
        ``queries``."""
        queries = check_operands(queries, np.uint8, "queries").astype(
            np.uint8, copy=False
        )
        m, _, dsub = self.codebooks.shape
        if queries.ndim != 2 or queries.shape[1] != m * dsub:
            raise ValueError(
                f"queries must be (q, {m * dsub}) for the loaded "
                f"codebooks, got {queries.shape}"
            )
        return queries

    # ----- the compute plane ------------------------------------------------
    def compute_tasks(
        self, queries: np.ndarray, tasks: Sequence[Tuple[int, str]], k: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The top-k of ``(query index, shard key)`` tasks, the one
        numeric entry point; a search calls it once over every task its
        rounds ran (``BatchTiming.tasks``).

        ``queries`` and ``k`` are checked like :meth:`run_batch`'s. Returns
        ``(rows, ids, distances)``, a row per task sorted by data shard,
        then query: ``(T,)`` query indices and ``(T, k)`` top-k by
        ``(distance, id)``, padded with ``-1`` / ``inf`` (exact int64
        and float64).

        A data shard (``ShardData.data_key``) is scanned once, from its
        canonical replica, whichever replicas ran its tasks. By the
        IVF-PQ identity the distance to a point with codes ``j`` is
        ``||q - c||^2 + sum_m (||b_mj||^2 - 2 q.b_mj) + sum_m 2 c.b_mj``:
        one int64 per task, a scan of the query's term table
        (:meth:`~repro.pim.backend.NumpyBackend.query_terms`) and the
        point's resident term, so no per-task LUT is built; only the
        ledger charges LC per task. Queries come in slabs whose table
        rows fit :data:`ROUND_LUT_BYTES`, each one
        :func:`scan_jobs_stacked` call, or LUT jobs for a warm pool.
        """
        if self.codebooks is None:
            raise RuntimeError("codebooks not loaded; call load_codebooks first")
        check_count(k, "k")
        queries = self._check_queries(queries)
        t = len(tasks)
        if not t:
            return np.empty(0, np.int64), np.empty((0, k), np.int64), np.empty((0, k))
        qrows = np.fromiter((q for q, _ in tasks), dtype=np.int64, count=t)
        if qrows.min() < 0 or qrows.max() >= len(queries):
            raise IndexError(f"task query indices must lie in [0, {len(queries)})")
        drows = np.fromiter(
            (self._data_id[key] for _, key in tasks), dtype=np.int64, count=t
        )
        m, cb, _ = self.codebooks.shape
        # A query slab starts once the term-table rows of the tasks
        # before it fill the budget; tasks sort by slab, data, query.
        counts = np.bincount(qrows, minlength=len(queries))
        slab_of = (np.cumsum(counts) - counts) * (m * cb * 8) // ROUND_LUT_BYTES
        order = np.lexsort((qrows, drows, slab_of[qrows]))
        qrows, drows = qrows[order], drows[order]
        slab = slab_of[qrows]
        # A job is one data shard's run of tasks within a slab.
        edges = np.flatnonzero((np.diff(drows) != 0) | (np.diff(slab) != 0)) + 1
        starts = np.concatenate([[0], edges])
        ends = np.append(edges, t)
        keys = [self._data_keys[d] for d in drows[starts].tolist()]
        lives = [self._live_count(key, self._shards[key][1]) for key in keys]
        crows = np.repeat([self._shard_cent[key] for key in keys], ends - starts)

        # One strategy decision per call, from its measured size.
        scan_points = int(np.dot(ends - starts, lives)) * m
        self._ensure_pool_residency()
        path = self.planner.choose(
            num_jobs=sum(1 for n in lives if n),
            scan_points=scan_points,
            executor=self.executor,
        )
        if self.observer is not None:
            self.observer.on_plan_decision(path)
        pool = path == "pool" and self.executor is not None

        jobs = list(zip(keys, lives, starts.tolist(), ends.tolist()))
        scan = self._pool_slab if pool else self._scan_slab
        blocks = []
        t0 = time.perf_counter()
        slab_edges = (np.flatnonzero(np.diff(slab)) + 1).tolist()
        for s0, s1 in zip([0] + slab_edges, slab_edges + [t]):
            j0, j1 = np.searchsorted(starts, [s0, s1])
            slab_jobs = [(key, n, a - s0, b - s0) for key, n, a, b in jobs[j0:j1]]
            blocks.append(scan(queries, qrows[s0:s1], crows[s0:s1], slab_jobs, k))
        # Measured rate feedback: purely advisory, never touches results.
        self.planner.note_round(path, scan_points, time.perf_counter() - t0)
        if self.executor is not None:
            # Surface every pool degradation instead of swallowing it.
            events = self.executor.take_fallback_events()
            if self.observer is not None:
                for reason in events:
                    self.observer.on_pool_fallback(reason)
        if len(blocks) == 1:
            return (qrows,) + blocks[0]
        # Slabs came in query order: restore (data, query) row order.
        perm = np.lexsort((qrows, drows))
        return (
            qrows[perm],
            np.concatenate([b[0] for b in blocks])[perm],
            np.concatenate([b[1] for b in blocks])[perm],
        )

    def _scan_slab(
        self,
        queries: np.ndarray,
        qrows: np.ndarray,
        crows: np.ndarray,
        jobs: List[Tuple[str, int, int, int]],
        k: int,
    ) -> parallel.JobTopk:
        """A query slab's top-k block, rows in task order, by
        :func:`scan_jobs_stacked`. ``jobs`` are ``(shard key, live rows,
        first task, end task)``; ``crows`` name each task's centroid."""
        uq, local = np.unique(qrows, return_inverse=True)
        tables = self.backend.query_terms(queries[uq], self.codebook_terms)
        res = queries[qrows].astype(np.int64) - self._centroids()[crows]
        row_terms = np.einsum("td,td->t", res, res)
        scan_jobs = []
        for key, _, a, b in jobs:
            off, ids, pts = self._scan_operands(key, self._shards[key][1])
            scan_jobs.append(
                (tables[local[a:b]], off.T, ids, k, pts, row_terms[a:b])
            )
        return scan_jobs_stacked(scan_jobs, backend=self.backend)

    def _pool_slab(
        self,
        queries: np.ndarray,
        qrows: np.ndarray,
        crows: np.ndarray,
        jobs: List[Tuple[str, int, int, int]],
        k: int,
    ) -> parallel.JobTopk:
        """:meth:`_scan_slab`'s block from the worker pool's LUT jobs
        over live rows; an empty shard's rows stay padding."""
        luts = self.backend.build_luts(
            queries, self._centroids(), qrows, crows, self.codebook_terms
        )
        live = [(key, a, b) for key, n, a, b in jobs if n]
        tops = self.executor.scan_groups(
            [
                (luts[a:b], *self._live_arrays(key, self._shards[key][1]), k)
                for key, a, b in live
            ],
            [key for key, _, _ in live],
            [self._live_rows.get(key) for key, _, _ in live],
            self.backend,
        )
        ids = np.full((len(qrows), k), -1, dtype=np.int64)
        dists = np.full((len(qrows), k), np.inf)
        for (_, a, _), (top_ids, top_dists) in zip(live, tops):
            rows, width = top_ids.shape
            ids[a : a + rows, :width] = top_ids
            dists[a : a + rows, :width] = top_dists
        return ids, dists

    def _centroids(self) -> np.ndarray:
        """The ``(C, D)`` centroid registry, indexed by centroid id."""
        if self._centroid_table is None:
            d = self.codebooks.shape[0] * self.codebooks.shape[2]
            self._centroid_table = (
                np.stack(self._centroid_by_id)
                if self._centroid_by_id
                else np.empty((0, d), dtype=np.uint8)
            )
        return self._centroid_table

    def _group_misses(
        self,
        queries: np.ndarray,
        groups: List[Tuple[int, str, List[int]]],
        sq: Optional[SquareLut],
    ) -> List[int]:
        """Per-group square-LUT miss counts for LC cost charging.

        The multiplier-less conversion (§III-A) changes which DPU
        instructions compute a square, not its value
        (``SquareLut.table[v] == v*v``), so it moves only the modeled
        LC cost. That cost needs the lookups outside the resident
        window, nonzero only for a *partial* table: only then are the
        task rows' differences formed (:func:`square_misses`) and
        summed per group.
        """
        if sq is None or sq.resident_max_abs >= sq.max_abs or not groups:
            return [0] * len(groups)
        sizes = [len(qidxs) for _, _, qidxs in groups]
        qrows = np.array([q for _, _, qidxs in groups for q in qidxs])
        crows = np.repeat([self._shard_cent[skey] for _, skey, _ in groups], sizes)
        residuals = queries[qrows].astype(np.int32) - self._centroids()[
            crows
        ].astype(np.int32)
        per_task = square_misses(
            residuals, self.codebook_terms, sq.resident_max_abs
        )
        starts = np.cumsum([0] + sizes[:-1])
        return [int(c) for c in np.add.reduceat(per_task, starts)]

    def warm_pool(self) -> bool:
        """Host shard residency in the worker pool and wait until it is warm.

        Rounds never block on worker spawn: a cold pool warms in the
        background while rounds run in process. Call this first when
        the pool must be ready for the next round. Returns whether the
        pool is warm (False without a pool or when it cannot start).
        """
        if self.executor is None:
            return False
        self._ensure_pool_residency()
        return self.executor.wait_warm()

    def _ensure_pool_residency(self) -> None:
        """Host every shard's codes/ids in the persistent pool's arena.

        Lazy (first round, or :meth:`warm_pool`) and re-run after any
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

    def _group_charges(
        self,
        dpu: Dpu,
        shard: ShardData,
        g: int,
        k: int,
        sq: Optional[SquareLut],
        misses: int,
        live: int,
    ) -> Tuple[Charge, ...]:
        """The RC→LC→DC→TS charges for one shard group, memoized by shape.

        Costs come from the kernels' closed forms over shapes alone, so
        they are identical whether the numeric work ran per group, was
        deduplicated across shards, or executed in a worker process.
        Tombstones are charged honestly: DC streams and scans every
        *stored* row (deleted codes still occupy MRAM and flow through
        the kernel — the filter happens during the scan), while TS sorts
        only the ``live`` candidates that survive it.
        """
        n = len(shard.ids)
        d = int(np.asarray(shard.centroid).shape[0])
        key = (
            g, n, live, misses, k, sq is not None, d,
            shard.centroid.nbytes, shard.codes.nbytes,
        )
        memo = self._charge_memo
        charges = memo.get(key)
        if charges is not None:
            return charges
        m, cb, _ = self.codebooks.shape
        costs = [
            residual_cost(g, d, shard.centroid.nbytes),
            lut_build_cost(
                g, d, m, cb, self.codebooks.nbytes,
                multiplier_less=sq is not None,
                misses=misses,
            ),
        ]
        if n:
            costs.append(distance_scan_cost(g, n, m, shard.codes.nbytes))
            if live:
                costs.append(topk_sort_cost(g, live, k))
        charges = tuple((cost, dpu.cost_cycles(cost)) for cost in costs)
        if len(memo) >= CHARGE_MEMO_ENTRIES:
            memo.clear()
        memo[key] = charges
        return charges

    def reset_ledgers(self) -> None:
        for d in self.dpus:
            d.reset_ledger()
        self.begin_search()
        self.transfer.reset()

    def close(self) -> None:
        """Tear down the optional shard-executor worker pool."""
        if self.executor is not None:
            self.executor.close()


def square_misses(
    residuals: np.ndarray, terms: CodebookTerms, window: int
) -> np.ndarray:
    """Per task row, the square-LUT lookups ``|r - b|`` past a resident
    ``window`` over every ``(M, CB, dsub)`` codeword entry of the
    codebook ``terms``: ``(T,)`` int64, from ``(T, D)`` int residuals,
    in row slabs of bounded transient size."""
    books = terms.books
    m, cb, dsub = books.shape
    out = np.empty(len(residuals), dtype=np.int64)
    step = slab_rows(m * cb * dsub * 8)
    for s0 in range(0, len(out), step):
        r = residuals[s0 : s0 + step].astype(np.int64)
        diff = r.reshape(len(r), m, 1, dsub) - books
        out[s0 : s0 + step] = np.count_nonzero(
            np.abs(diff) > window, axis=(1, 2, 3)
        )
    return out
