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
plane scans each data shard once per call, as one exact BLAS product
of the tasks' queries with the shard's decoded residuals, resident next
to per-point terms (see :meth:`~PimSystem.compute_tasks`), whether a
job runs in process or in the opt-in worker pool. The host builds
neither the per-task LUTs that LC models nor the lookups DC models; the
ledger still charges both per task from closed forms.

A batch's cycles are differences of a *search ledger* that
:meth:`PimSystem.begin_search` zeroes, not of the DPUs' lifetime
ledgers, so a search's timing does not depend on how many searches the
system ran before it. On a fresh system the two ledgers coincide.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.square_lut import SquareLut
from repro.faults.plan import FaultPlan
from repro.pim import parallel
from repro.pim.backend import resolve_backend
from repro.pim.backend.numpy_backend import (
    CodebookTerms,
    decode_table,
    gather_offsets,
    slab_rows,
)
from repro.pim.config import PimSystemConfig
from repro.pim.dpu import Dpu, KernelCost
from repro.pim.memory import Mram
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

#: Query operand bytes one query slab of :meth:`PimSystem.compute_tasks`
#: holds: per task, its query row in the product dtype and its int64
#: residual row, ``D * (itemsize + 8)``. A call past it takes its
#: queries in slabs, which bounds a whole-matrix search's transient
#: memory without changing a result.
QUERY_SLAB_BYTES = 64 * 1024 * 1024

#: Largest query entry: queries are checked uint8, which bounds the DC
#: products' dtype (:func:`~repro.pim.backend.numpy_backend.decode_table`).
QUERY_MAX = int(np.iinfo(np.uint8).max)

#: One kernel charge: the closed-form cost and the cycles it takes.
Charge = Tuple[KernelCost, float]


@dataclass
class ShardData:
    """One cluster shard placed on a DPU; shards sharing a ``data_key``
    are placements of one data shard (:meth:`PimSystem.place_shard`)."""

    shard_key: str
    centroid: np.ndarray  # (D,) uint8
    ids: np.ndarray  # (n,) int64
    codes: np.ndarray  # (n, M) uint8/uint16
    data_key: Optional[object] = None  # None: the shard's own key


class ScanOperands(NamedTuple):
    """A data shard's resident scan operands over its stored rows, dead
    ones included: a function of its codes and the codebooks.

    The first ``rows`` rows of each buffer are the operands; the rest is
    spare capacity for appended rows (:meth:`PimSystem._make_resident`).
    """

    # (capacity, D) decoded residuals B, each row its codewords
    # concatenated, in the codebooks' product dtype (float32 while exact).
    decoded: np.ndarray
    pts: np.ndarray  # (capacity,) int64 point terms ||B||^2 + 2c.B
    rows: int  # stored rows covered; appended rows join at the next scan


@dataclass
class _DataShard:
    """A data shard's one record, whichever replica names it."""

    shard: ShardData  # the first placed; its rows are the data shard's
    index: int  # placement order, compute_tasks' sort key
    placements: List[Tuple[str, int]] = field(default_factory=list)  # (key, DPU)
    # Ascending dead rows (None: none): stored, with their scan operands;
    # DC streams them and the scan masks them before top-k.
    dead: Optional[np.ndarray] = None
    # Decoded residuals and point terms, made resident by the first
    # compute_tasks call that scans the shard (PimSystem._make_resident).
    ops: Optional[ScanOperands] = None

    @property
    def num_live(self) -> int:
        return len(self.shard.ids) - (0 if self.dead is None else len(self.dead))


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
        # Shard key -> (its DPU, its data shard's record); data key -> record.
        self._shards: Dict[str, Tuple[int, _DataShard]] = {}
        self._data: Dict[object, _DataShard] = {}
        # Opt-in worker pool for the product jobs, plus the per-round
        # vectorized/pool chooser. The persistent pool attaches the data
        # shards' residents lazily (first round, or warm_pool) via
        # _ensure_pool_residency.
        self.executor = make_executor(config.shard_workers)
        self.planner = ExecutionPlanner()
        # The host kernels the compute plane runs on.
        self.backend = resolve_backend()
        self._residency_dirty = True
        self.codebooks: Optional[np.ndarray] = None
        # The codebooks' derived operands, built once per load_codebooks.
        self.codebook_terms: Optional[CodebookTerms] = None
        # The (M * CB, dsub) codewords the residents are decoded from,
        # in the dtype of exact DC products against uint8 queries.
        self._decode_table: Optional[np.ndarray] = None
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
        """Store a shard's codes, ids and centroid in a DPU's MRAM, all
        or none (``CapacityError`` when they do not fit together).

        A shard whose ``data_key`` is placed is one more placement of
        that data shard's record: it needs the record's ids and centroid,
        and codes of its shape and dtype (not read, so an mmap-backed
        index stays paged out), else ``ValueError`` naming the shard.
        """
        if not 0 <= dpu_id < len(self.dpus):
            raise ValueError(f"dpu_id {dpu_id} out of range [0, {len(self.dpus)})")
        key = shard.shard_key
        if key in self._shards:
            raise ValueError(f"shard {key!r} already placed")
        data_key = key if shard.data_key is None else shard.data_key
        rec = self._data.get(data_key)
        if rec is not None:
            first = rec.shard
            for name, same in (
                ("ids", np.array_equal(shard.ids, first.ids)),
                ("centroid", np.array_equal(shard.centroid, first.centroid)),
                ("codes", shard.codes.shape == first.codes.shape
                 and shard.codes.dtype == first.codes.dtype),
            ):
                if not same:
                    raise ValueError(f"shard {key!r} shares data key {data_key!r} "
                                     f"with {first.shard_key!r} but not its {name}")
        self.dpus[dpu_id].mram.store_all({
            f"codes:{key}": shard.codes,
            f"ids:{key}": shard.ids,
            f"centroid:{key}": shard.centroid,
        })
        if rec is None:
            rec = self._data[data_key] = _DataShard(shard, len(self._data))
        rec.placements.append((key, dpu_id))
        self._shards[key] = (dpu_id, rec)
        # Placement changes invalidate the worker pool's zero-copy
        # residency; it is re-hosted on the next round.
        self._residency_dirty = True

    def _record(self, shard_key: str) -> _DataShard:
        placed = self._shards.get(shard_key)
        if placed is None:
            raise KeyError(f"shard {shard_key!r} not placed")
        return placed[1]

    def _store_rows(self, rec: _DataShard, ids: np.ndarray, codes: np.ndarray) -> None:
        """Re-store rows on a record and every placement's MRAM: every
        placement's budget is checked before any is re-stored."""
        if len(ids) != len(codes):
            raise ValueError(
                f"ids/codes row mismatch: {len(ids)} vs {len(codes)}"
            )
        stores: Dict[Mram, Dict[str, np.ndarray]] = {}
        for key, dpu_id in rec.placements:
            stores.setdefault(self.dpus[dpu_id].mram, {}).update(
                {f"codes:{key}": codes, f"ids:{key}": ids}
            )
        for mram, objects in stores.items():
            mram.check_fit(objects)
        for mram, objects in stores.items():
            mram.store_all(objects)
        rec.shard.ids = ids
        rec.shard.codes = codes
        self._residency_dirty = True

    def update_shard(self, shard_key: str, ids: np.ndarray, codes: np.ndarray) -> None:
        """Replace a placed data shard's rows with a new code block.

        ``shard_key`` may name any replica: the data shard's record is
        mutated in place and every placement's MRAM objects re-stored
        (all budget-checked first). The dead rows stay dead and rows
        past the old end are live, like appended ones; a shorter block
        while dead rows are installed (they may name rows past the new
        end) raises ``ValueError`` naming the filter, before anything is
        stored. Pool residency and the resident scan operands are
        dropped: the next scan rebuilds them from the new codes,
        range-checking every one. A grown shard whose old rows are
        unchanged takes :meth:`append_shard` instead.
        """
        rec = self._record(shard_key)
        if rec.dead is not None and len(ids) < len(rec.shard.ids):
            raise ValueError(f"update_shard on {shard_key!r}: the dead-row filter "
                             f"may name rows past the new block's {len(ids)}")
        self._store_rows(rec, ids, codes)
        rec.ops = None

    def append_shard(self, shard_key: str, ids: np.ndarray, codes: np.ndarray) -> None:
        """Grow a placed data shard by appended rows (the ``add()`` path).

        ``ids`` and ``codes`` are the whole new rows; the first ``n``
        ids must be the shard's ``n`` old ones (else ``ValueError``),
        and their codes are taken as unchanged. Stores them like
        :meth:`update_shard`, through any replica's key, but the
        appended rows are live (the dead rows are unchanged), and
        resident scan operands stay: the next scan decodes and
        range-checks the appended rows only.
        """
        rec = self._record(shard_key)
        n_old = len(rec.shard.ids)
        if len(ids) < n_old or (ids[:n_old] != rec.shard.ids).any():
            raise ValueError(
                f"append_shard on {shard_key!r}: the first {n_old} ids must "
                "be the shard's own"
            )
        self._store_rows(rec, ids, codes)

    def set_shard_liveness(
        self, shard_key: str, dead_rows: Optional[np.ndarray]
    ) -> None:
        """Install (or clear, with ``None``) a data shard's dead rows.

        ``dead_rows`` are the strictly ascending indices into the
        shard's ``n`` stored rows that are tombstoned: a 1-D integer
        array in ``[0, n)``, else ``TypeError``/``ValueError`` naming
        ``dead_rows``; an empty one clears the filter like ``None``. Any
        replica's key sets the one filter of its data shard. The scan
        masks the dead rows before top-k; DC still streams every stored
        row and is charged for it. The resident scan operands are left
        as they are.
        """
        rec = self._record(shard_key)
        if dead_rows is None:
            rec.dead = None
            return
        n, dead_rows = len(rec.shard.ids), np.asarray(dead_rows)
        if dead_rows.dtype.kind not in "iu":
            raise TypeError(f"dead_rows must be integer rows, got {dead_rows.dtype}")
        if dead_rows.ndim != 1 or len(dead_rows) and (
            dead_rows[0] < 0 or dead_rows[-1] >= n
            or np.count_nonzero(dead_rows[1:] <= dead_rows[:-1])
        ):
            raise ValueError(f"dead_rows must be strictly ascending 1-D rows in [0, {n})")
        rec.dead = dead_rows.astype(np.intp) if len(dead_rows) else None

    def _make_resident(self, recs: Sequence[_DataShard]) -> None:
        """Bring each data shard's :class:`ScanOperands` up to its stored
        rows, in one pass over every missing row of them all.

        A shard's missing rows are all of its stored rows before its
        first scan, and its appended rows (:meth:`append_shard`) after
        that. Their codes are concatenated and range-checked once by
        :func:`~repro.pim.backend.numpy_backend.gather_offsets`
        (``IndexError`` for a code outside ``[0, CB)``, before any is
        decoded), decoded by one take
        (:meth:`~repro.pim.backend.NumpyBackend.decode`), and given
        their point terms ``||B||^2 + 2c.B`` in one more pass
        (:meth:`~repro.pim.backend.NumpyBackend.residual_terms`). A
        shard's first operands are its slices of the pass's arrays;
        rows appended later are written into its buffers, which grow
        by half again whenever they are full, so appends cost amortised
        time per row and never re-concatenate a shard. Liveness never
        touches the operands (the scan masks dead rows and reads the
        record's stored ids); :meth:`update_shard` and
        :meth:`load_codebooks` drop them. They cost ``itemsize * D + 8``
        bytes per stored row, 520 at D 128 in float32, plus a grown
        shard's spare capacity.
        """
        seen: Set[int] = set()
        pending: List[Tuple[_DataShard, int]] = []
        for rec in recs:
            start = 0 if rec.ops is None else rec.ops.rows
            if id(rec) not in seen and (rec.ops is None or start < len(rec.shard.ids)):
                seen.add(id(rec))
                pending.append((rec, start))
        if not pending:
            return
        counts = [len(rec.shard.ids) - start for rec, start in pending]
        off = gather_offsets(
            np.concatenate([rec.shard.codes[start:] for rec, start in pending]),
            self.codebooks.shape[1],
        )
        decoded = self.backend.decode(off, self._decode_table)
        pts = self.backend.residual_terms(
            np.stack([rec.shard.centroid for rec, _ in pending]),
            np.repeat(np.arange(len(pending)), counts),
            off,
            decoded,
            self.codebook_terms,
        )
        a = 0
        for (rec, start), count in zip(pending, counts):
            b, n, ops = a + count, start + count, rec.ops
            if ops is None:
                rec.ops = ScanOperands(decoded[a:b], pts[a:b], n)
            else:
                dec, pt = ops.decoded, ops.pts
                if n > len(pt):  # full: grow by half again
                    cap = max(n, len(pt) * 3 // 2)
                    dec = np.empty((cap, decoded.shape[1]), dtype=decoded.dtype)
                    pt = np.empty(cap, dtype=np.int64)
                    dec[:start], pt[:start] = ops.decoded[:start], ops.pts[:start]
                dec[start:n], pt[start:n] = decoded[a:b], pts[a:b]
                rec.ops = ScanOperands(dec, pt, n)
            a = b

    def shard_location(self, shard_key: str) -> int:
        return self._shards[shard_key][0]

    def get_shard(self, shard_key: str) -> ShardData:
        """The first-placed :class:`ShardData` of the key's data shard."""
        return self._shards[shard_key][1].shard

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
        self._decode_table = decode_table(self.codebook_terms, QUERY_MAX)
        self._charge_memo.clear()
        for rec in self._data.values():
            rec.ops = None  # decoded from the old codewords
        self._residency_dirty = True  # so are the pool's residents
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
            Every shard_key must be placed and resident on that dpu,
            and every query_index in ``[0, q)``, a fail-stopped DPU's
            tasks included; else ``ValueError`` naming ``assignments``,
            raised before the round books anything.
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
        # Check every task and group each DPU's tasks by shard before
        # the round books anything, so RC/LC/DC batch across the queries
        # probing the same shard (as tasklets would share the streamed
        # cluster data).
        by_dpu: List[Tuple[int, Sequence[Tuple[int, str]], Dict[str, List[int]]]] = []
        for dpu_id, tasks in assignments.items():
            if not tasks:
                continue
            by_shard: Dict[str, List[int]] = {}
            for qidx, skey in tasks:
                if not 0 <= qidx < len(queries):
                    raise ValueError(
                        f"assignments name query {qidx}, outside "
                        f"[0, {len(queries)})"
                    )
                placed = self._shards.get(skey)
                if placed is None:
                    raise ValueError(f"assignments name shard {skey!r}, not placed")
                if placed[0] != dpu_id:
                    raise ValueError(
                        f"assignments name shard {skey!r} on DPU {placed[0]}, "
                        f"assigned to DPU {dpu_id}"
                    )
                by_shard.setdefault(skey, []).append(qidx)
            by_dpu.append((dpu_id, tasks, by_shard))
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
        for dpu_id, tasks, by_shard in by_dpu:
            if dpu_id in self._observed_dead:
                # Fail-stop: the DPU never responds; its tasks are lost
                # and surface in timing.failed_tasks for failover.
                failed_tasks.extend(tasks)
                continue
            for skey, qidxs in by_shard.items():
                groups.append((dpu_id, skey, qidxs))
        # Only DPUs with groups are charged; every other DPU's batch
        # cycles are exactly 0.
        cycles_before = {
            dpu_id: self._ledger_total(dpu_id) for dpu_id, _, _ in groups
        }
        lives = [self._shards[skey][1].num_live for _, skey, _ in groups]
        group_misses = self._group_misses(queries, groups, sq)

        # ---- charging pass: replay the per-DPU group order, charging
        # closed-form kernel costs identical to the per-group kernels'.
        transient_retries = 0
        result_bytes = 0
        transient_done: Set[int] = set()
        for gi, (dpu_id, skey, qidxs) in enumerate(groups):
            dpu = self.dpus[dpu_id]
            shard = self._shards[skey][1].shard
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

        ``queries`` and ``k`` are checked like :meth:`run_batch`'s; a task
        naming a query outside ``[0, len(queries))`` or an unplaced shard
        raises ``ValueError`` naming ``tasks``. Returns
        ``(rows, ids, distances)``, a row per task sorted by data shard,
        then query: ``(T,)`` query indices and ``(T, k)`` top-k by
        ``(distance, id)``, padded with ``-1`` / ``inf`` (exact int64
        and float64).

        A data shard (``ShardData.data_key``) is scanned once, from its
        one record, whichever replicas ran its tasks. With ``B`` a
        point's decoded residual (its codewords concatenated, ``D``
        integers) the distance is ``||q - c - B||^2 = ||q - c||^2 +
        (||B||^2 + 2c.B) - 2 q.B``: one int64 per task, one resident
        int64 per point, and the job's ``Q_job @ B.T``, one BLAS product
        in the smallest dtype that is exact for it
        (:meth:`~repro.pim.backend.NumpyBackend.product_scan_into`;
        float32 while ``D * 255 * max|b| < 2**24``). No per-task LUT is
        built and no LUT is gathered; the ledger charges LC and DC per
        task from closed forms. The shards the call scans first get
        their missing residents in one pass (:meth:`_make_resident`).
        Queries come in slabs whose query operands fit
        :data:`QUERY_SLAB_BYTES`, each slab's product jobs one
        :func:`scan_jobs_stacked` call, or one
        :meth:`~repro.pim.parallel.PersistentShardPool.scan_groups` call
        when the planner picks a warm pool: the same jobs, run in its
        workers.
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
            bad = qrows[(qrows < 0) | (qrows >= len(queries))][0]
            raise ValueError(
                f"tasks name query {bad}, outside [0, {len(queries)})"
            )
        try:
            drows = np.fromiter(
                (self._shards[key][1].index for _, key in tasks), np.int64, count=t
            )
        except KeyError as exc:
            raise ValueError(f"tasks name shard {exc.args[0]!r}, not placed") from None
        m = self.codebooks.shape[0]
        # A query slab starts once the query operands of the tasks before
        # it fill the budget; tasks sort by slab, data, query.
        task_bytes = queries.shape[1] * (self._decode_table.itemsize + 8)
        counts = np.bincount(qrows, minlength=len(queries))
        slab_of = (np.cumsum(counts) - counts) * task_bytes // QUERY_SLAB_BYTES
        order = np.lexsort((qrows, drows, slab_of[qrows]))
        qrows, drows = qrows[order], drows[order]
        slab = slab_of[qrows]
        # A job is one data shard's run of tasks within a slab.
        edges = np.flatnonzero((np.diff(drows) != 0) | (np.diff(slab) != 0)) + 1
        starts = np.concatenate([[0], edges])
        ends = np.append(edges, t)
        recs = [self._shards[tasks[i][1]][1] for i in order[starts].tolist()]
        lives = [rec.num_live for rec in recs]
        # Each job's centroid, and each task's row of them.
        cents = np.stack([rec.shard.centroid for rec in recs])
        crows = np.repeat(np.arange(len(recs)), ends - starts)

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

        self._make_resident(recs)
        jobs = list(zip(recs, starts.tolist(), ends.tolist()))
        blocks = []
        t0 = time.perf_counter()
        slab_edges = (np.flatnonzero(np.diff(slab)) + 1).tolist()
        for s0, s1 in zip([0] + slab_edges, slab_edges + [t]):
            j0, j1 = np.searchsorted(starts, [s0, s1])
            slab_jobs = [(rec, a - s0, b - s0) for rec, a, b in jobs[j0:j1]]
            blocks.append(self._scan_slab(
                queries, cents, qrows[s0:s1], crows[s0:s1], slab_jobs, k, pool
            ))
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
        cents: np.ndarray,
        qrows: np.ndarray,
        crows: np.ndarray,
        jobs: List[Tuple[_DataShard, int, int]],
        k: int,
        pool: bool,
    ) -> parallel.JobTopk:
        """A query slab's top-k block, rows in task order: a product job
        per ``(data shard, first task, end task)`` of ``jobs`` over the
        shard's resident operands, its dead rows masked, run by one
        :func:`scan_jobs_stacked` call or, with ``pool``, by the worker
        pool. ``crows`` name each task's row of the ``cents``
        centroids."""
        x = queries.astype(self._decode_table.dtype)
        res = queries[qrows].astype(np.int64) - cents[crows]
        row_terms = np.einsum("td,td->t", res, res)
        scan_jobs = []
        for rec, a, b in jobs:
            ops = rec.ops
            scan_jobs.append((
                x[qrows[a:b]], ops.decoded[: ops.rows], rec.shard.ids, k,
                ops.pts[: ops.rows], row_terms[a:b], rec.dead,
            ))
        if not pool:
            return scan_jobs_stacked(scan_jobs, backend=self.backend)
        tops = self.executor.scan_groups(
            scan_jobs, [rec.shard.shard_key for rec, _, _ in jobs], self.backend
        )
        return (
            np.concatenate([top[0] for top in tops]),
            np.concatenate([top[1] for top in tops]),
        )

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
        cents = np.stack([self._shards[skey][1].shard.centroid for _, skey, _ in groups])
        residuals = queries[qrows].astype(np.int32) - np.repeat(
            cents.astype(np.int32), sizes, axis=0
        )
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
        """Host each data shard's resident scan operands (decoded
        residuals, point terms) and ids once in the persistent pool's
        arena, under its first placement's key: every data shard is
        made resident first (:meth:`_make_resident`).

        Lazy (first round, or :meth:`warm_pool`) and re-run after any
        :meth:`place_shard`, stored rows or :meth:`load_codebooks`, each
        of which invalidates previous residency. They cost ``itemsize *
        D + 16`` bytes per stored row, 528 at D 128 in float32.
        """
        ex = self.executor
        if ex is None or self.codebooks is None:
            return
        if not self._residency_dirty and ex.attached:
            return
        recs = list(self._data.values())
        self._make_resident(recs)
        ex.host_shards({
            rec.shard.shard_key: (
                rec.ops.decoded[: rec.ops.rows], rec.ops.pts[: rec.ops.rows],
                rec.shard.ids,
            )
            for rec in recs
        })
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
