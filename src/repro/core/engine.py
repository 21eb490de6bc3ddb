"""The DRIM-ANN engine (§IV-A): end-to-end build + batched search.

Build pipeline (offline):

1. train a float IVF-PQ index on the corpus (optionally OPQ-rotated);
2. quantize it to the integer form DPUs require;
3. estimate cluster heat from a sample query set (Eq. 15 weights);
4. generate the load-balanced layout (split / duplicate / allocate);
5. instantiate the simulated PIM system, broadcast codebooks and the
   square LUT, and place every shard into its DPU's MRAM.

Search pipeline (online, per batch):

1. CL on the host (overlapped with DPU execution of the previous
   batch; its time is modeled with the CPU profile);
2. map located (query, cluster) pairs — plus tasks the filter deferred
   from the previous batch — to per-DPU (query, shard) tasks via the
   runtime scheduler;
3. charge RC→LC→DC→TS on the DPUs (cycle-counted) and collect the
   tasks that ran;
4. compute the collected tasks' top-k (once per search, or before an
   adaptive policy reads the running top-k) and fold it into the
   per-query top-k.

The engine's numeric output is invariant to layout and scheduling: for
any configuration it must equal
:meth:`~repro.core.quantized.QuantizedIndexData.reference_search`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.ann.ivfpq import IVFPQIndex, SearchResult
from repro.core import adaptive as adaptive_probing
from repro.core.adaptive import _AdaptiveRounds
from repro.core.breakdown import TimingBreakdown
from repro.core.config import EngineConfig
from repro.core.layout import (
    LayoutPlan,
    estimate_cluster_heat,
    generate_layout,
    task_cost_weights,
)
from repro.core.opq_preprocess import OpqPreprocessor
from repro.core.params import (
    ADAPTIVE_MODES,
    WRAM_RESERVE_BYTES,
    IndexParams,
    SearchParams,
)
from repro.core.perf_model import HardwareProfile, host_cl_seconds
from repro.core.persist import load_index_bundle, save_index
from repro.core.quantized import QuantizedIndexData, build_quantized_index
from repro.core.results import SearchOutcome
from repro.core.scheduler import RuntimeScheduler
from repro.core.square_lut import SquareLut
from repro.faults.plan import FaultPlan
from repro.faults.report import FaultStats
from repro.obs.observer import EngineObserver
from repro.pim.system import PimSystem, ShardData
from repro.utils import (
    check_2d,
    check_finite,
    check_operands,
    ensure_rng,
    merge_topk_pools,
)


@dataclass
class EngineReport:
    """Build-time provenance of an engine instance."""

    params: IndexParams
    layout_heat_per_dpu: np.ndarray
    mram_used_per_dpu: np.ndarray
    num_shards: int
    offline_transfer_seconds: float
    replica_counts: Dict[int, int]


def _rows_slice(rows: np.ndarray) -> Union[slice, np.ndarray]:
    """A basic slice equivalent to contiguous ascending row indices.

    Layout parts are ``np.array_split`` ranges, so this almost always
    returns a slice — indexing with it yields a zero-copy view (fancy
    indexing would copy), which keeps mmap-loaded clusters unmaterialized
    all the way into shard placement and the shared-memory arena.
    """
    rows = np.asarray(rows)
    if rows.size and int(rows[-1]) - int(rows[0]) + 1 == rows.size:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


class DrimAnnEngine:
    """DRIM-ANN: cluster-based ANN search on a (simulated) DRAM-PIM."""

    def __init__(
        self,
        quantized: QuantizedIndexData,
        params: IndexParams,
        search_params: SearchParams,
        system: PimSystem,
        plan: LayoutPlan,
        scheduler: RuntimeScheduler,
        report: EngineReport,
        cpu_profile: Optional[HardwareProfile] = None,
        preprocessor: Optional[OpqPreprocessor] = None,
        observer: Optional[EngineObserver] = None,
    ) -> None:
        self.quantized = quantized
        self.params = params
        self.search_params = search_params
        self.system = system
        self.plan = plan
        self.scheduler = scheduler
        self.report = report
        self.cpu_profile = cpu_profile or HardwareProfile.for_cpu()
        self.preprocessor = preprocessor
        self.observer = observer
        self.scheduler.observer = observer
        self.system.observer = observer
        # Lifecycle state (populated by from_quantized / load / save).
        self._config: Optional[EngineConfig] = None
        self.cluster_heat: Optional[np.ndarray] = None
        self.index_path: Optional[str] = None
        self._unloaded = False
        # Adaptive-probing state: per-cluster reconstruction radii
        # (lazy; persisted as the optional v2 "cluster_radii" segment).
        self._radii_sq: Optional[np.ndarray] = None
        self._radii_disabled = False

    @property
    def fault_plan(self) -> Optional[FaultPlan]:
        return self.system.fault_plan

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the data plane: worker pool + shared-memory arena.

        Idempotent; after close the engine still answers searches (a
        later pool-eligible round transparently re-hosts the arena and
        respawns workers — close again when done). Use the engine as a
        context manager to make teardown automatic —
        :func:`repro.pim.parallel.assert_no_leaked_segments` can then
        verify nothing leaked.
        """
        if self.system is not None:
            self.system.close()

    def __enter__(self) -> "DrimAnnEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_loaded(self) -> None:
        if self._unloaded:
            raise RuntimeError(
                "engine is unloaded; re-open it with DrimAnnEngine.load(path)"
            )

    def save(self, path: str) -> None:
        """Persist the index (v2 format) for :meth:`load`, atomically.

        Writes the quantized index plus the cluster-heat vector the
        layout was generated from (so a reload reproduces the exact
        shard layout and cycle ledgers) and the OPQ preprocessor if one
        is attached. Tombstones are stored as-is; run :meth:`compact`
        first to reclaim them.
        """
        self._check_loaded()
        radii = self._radii_sq
        if radii is None:
            # Compute fresh radii so the file always carries the
            # adaptive segment — re-saving an old (radii-less) file
            # upgrades it, and re-enables bound checks on this engine.
            radii = adaptive_probing.cluster_radii_sq(self.quantized)
            self._radii_sq = radii
            self._radii_disabled = False
        save_index(
            self.quantized,
            path,
            cluster_heat=self.cluster_heat,
            preprocessor=self.preprocessor,
            cluster_radii=radii,
        )
        self.index_path = path

    @classmethod
    def load(
        cls,
        path: str,
        config: Optional[EngineConfig] = None,
        *,
        heat_queries: Optional[np.ndarray] = None,
        mmap: bool = True,
        cpu_profile: Optional[HardwareProfile] = None,
        tracer=None,
        seed=None,
    ) -> "DrimAnnEngine":
        """Cold-start an engine from an index file — a load, not a rebuild.

        v2 files open as :func:`numpy.memmap` views (``mmap=False``
        materializes them); shard placement slices those views, so the
        only copy on the cold-start path is the arena publish. With
        ``config=None`` the index parameters are derived from the file
        (nprobe defaults to ``min(8, nlist)``, k to 10); an explicit
        config must agree with the file's nlist/M/CB. Search behaviour
        is bit-exact vs. the engine that saved the file: the stored
        cluster-heat vector reproduces the layout (pass ``heat_queries``
        to re-estimate instead). Timings land on the observer as
        ``drimann_index_load_seconds{phase="open"|"assemble"}`` — they
        are observability data, never part of search results
        (drimsan: allow wallclock-in-result).
        """
        t0 = time.perf_counter()
        bundle = load_index_bundle(path, mmap=mmap)
        open_seconds = time.perf_counter() - t0
        quantized = bundle.index
        if config is None:
            config = EngineConfig(
                index=IndexParams(
                    nlist=quantized.nlist,
                    nprobe=min(8, quantized.nlist),
                    k=10,
                    num_subspaces=quantized.num_subspaces,
                    codebook_size=quantized.codebook_size,
                )
            )
        else:
            if config.use_opq:
                raise ValueError(
                    "use_opq trains on a raw corpus; load() restores any "
                    "OPQ transform from the index file itself"
                )
            p = config.index
            for name, got, want in (
                ("nlist", p.nlist, quantized.nlist),
                ("num_subspaces", p.num_subspaces, quantized.num_subspaces),
                ("codebook_size", p.codebook_size, quantized.codebook_size),
            ):
                if got != want:
                    raise ValueError(
                        f"config.index.{name}={got} does not match the "
                        f"index file {path!r} ({name}={want})"
                    )
        t1 = time.perf_counter()
        engine = cls.from_quantized(
            quantized,
            config,
            heat_queries=heat_queries,
            cluster_heat=bundle.cluster_heat if heat_queries is None else None,
            cpu_profile=cpu_profile,
            tracer=tracer,
            preprocessor=bundle.preprocessor,
            seed=seed,
            index_path=path,
            cluster_radii=bundle.cluster_radii,
        )
        # Older files have no radii segment: adaptive bound checks
        # gracefully disable instead of recomputing behind the caller's
        # back from a possibly-mmapped code store (save() upgrades).
        engine._radii_disabled = bundle.cluster_radii is None
        assemble_seconds = time.perf_counter() - t1
        obs = engine.observer
        if obs is not None:
            obs.on_index_load("open", open_seconds)
            obs.on_index_load("assemble", assemble_seconds)
            obs.on_tombstones(quantized.tombstone_ratio)
        return engine

    def unload(self) -> None:
        """Release every search resource; the engine becomes inert.

        Tears down the worker pool and shared-memory arena and drops the
        index arrays (for an mmap-backed index this releases the
        mapping). Any subsequent search/save/mutation raises
        ``RuntimeError`` — re-open with :meth:`load`. Idempotent.
        """
        if self._unloaded:
            return
        self.close()
        self.quantized = None  # type: ignore[assignment]
        self.system = None  # type: ignore[assignment]
        self.plan = None  # type: ignore[assignment]
        self.scheduler = None  # type: ignore[assignment]
        self._radii_sq = None
        self._unloaded = True

    # ------------------------------------------------------------- mutation
    def _sync_liveness(self, clusters: Optional[np.ndarray] = None) -> None:
        """Push each cluster part's dead rows into the PIM system.

        ``clusters`` limits the resync to those clusters' parts (the
        ones a mutation touched); every other part keeps its filter and
        its resident scan operands. ``None`` resyncs every part. A
        part's dead rows are the set positions of its slice of the
        tombstone mask, in one
        :meth:`~repro.pim.system.PimSystem.set_shard_liveness` call per
        ``(cluster, part)``: its replicas are placements of one data
        shard.
        """
        masks = self.quantized.tombstone_masks()
        groups = self.plan.replica_groups
        cids = groups if clusters is None else clusters.tolist()
        for cid in cids:
            for key in groups[cid][0]:
                dead = None
                if masks is not None:
                    rows = _rows_slice(self.plan.shards[key].point_rows)
                    dead = np.flatnonzero(masks[cid][rows])
                self.system.set_shard_liveness(key, dead if dead is not None
                                               and len(dead) else None)

    def add(
        self, vectors: np.ndarray, ids: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Encode and append new vectors to the serving engine.

        Vectors run through the OPQ transform (if any), are assigned and
        PQ-encoded with the trained index
        (:meth:`~repro.core.quantized.QuantizedIndexData.encode`), and
        land in the *last part* of every replica of their cluster — the
        one whose row range ends at the cluster's old size, so every
        shard stays a contiguous (zero-copy-able) row range. The
        appended rows' host→PIM transfer is charged, and the
        scheduler's group costs of the touched clusters are refreshed
        so load balancing sees the new sizes. Returns the assigned
        point ids.

        Raises ``ValueError`` naming ``vectors`` when they hold NaN or
        infinite values, fractions, or values outside the index's
        operand range (``[0, 255]`` for the uint8 pipeline); nothing is
        appended then. ``ids`` are checked the same way and must be 1-D
        and non-negative (``-1`` pads results); strings and bools raise
        ``TypeError``. Each grown ``(cluster, part)`` is told of the
        append once (:meth:`~repro.pim.system.PimSystem.append_shard`,
        which reaches every replica), so its resident scan operands are
        extended, not rebuilt, and the appended rows are live.
        """
        self._check_loaded()
        vectors = check_2d(vectors, "vectors")
        if self.preprocessor is not None:
            vectors = self.preprocessor.transform(check_finite(vectors, "vectors"))
        # The integer pipeline starts here: reject what a cast would
        # change, then hand the encoder the index's operand dtype.
        dtype = self.quantized.centroids.dtype
        vectors = check_operands(vectors, dtype, "vectors").astype(dtype, copy=False)
        old_sizes = self.quantized.cluster_sizes()
        new_ids, assign = self.quantized.add(vectors, ids)
        if len(new_ids) == 0:
            return new_ids
        quantized = self.quantized
        touched = np.unique(assign)
        added_bytes = 0.0
        for cid in touched.tolist():
            n_old = int(old_sizes[cid])
            n_new = len(quantized.cluster_ids[cid])
            codes = quantized.cluster_codes[cid]
            row_bytes = codes.dtype.itemsize * quantized.num_subspaces + 8
            # The last part, whose row range ends at n_old, grows.
            groups = self.plan.replica_groups[cid]
            rows = self.plan.shards[groups[0][-1]].point_rows
            start = int(rows[0]) if len(rows) else n_old
            for group in groups:
                self.plan.shards[group[-1]].point_rows = np.arange(
                    start, n_new, dtype=np.int64
                )
            added_bytes += len(groups) * (n_new - n_old) * row_bytes
            # Rows are only appended, and live: the system extends the
            # part's resident scan operands over them.
            self.system.append_shard(
                groups[0][-1], quantized.cluster_ids[cid][start:n_new], codes[start:n_new]
            )
            # Keep cached reconstruction radii an upper bound: max-update
            # from the appended rows only (a radius can only grow on
            # append; delete() keeps it valid conservatively).
            if self._radii_sq is not None and n_new > n_old:
                r = adaptive_probing.reconstruction_norms_sq(
                    quantized.codebook_terms.norms_sq, codes[n_old:]
                ).max()
                self._radii_sq[cid] = max(int(r), self._radii_sq[cid])
        self.report.offline_transfer_seconds += self.system.transfer.scatter(
            "shards", added_bytes
        )
        self.report.mram_used_per_dpu = self.system.mram_usage()
        # The scheduler precomputes per-group latency from shard sizes.
        self.scheduler.refresh_clusters(touched.tolist())
        return new_ids

    def delete(self, ids: np.ndarray) -> int:
        """Tombstone points by id; returns how many were newly deleted.

        Deleted rows stay resident (DC still streams and is charged for
        them — the ledger stays honest) but are masked in every scan
        before top-k, so they can never appear in results.
        :meth:`compact` reclaims the space. ``ids`` are validated like
        :meth:`add`'s; the call does one id lookup and resyncs the
        live-row filters of the touched clusters' shards only.
        """
        self._check_loaded()
        count, touched = self.quantized._tombstone(ids)
        if count:
            self._sync_liveness(touched)
        if self.observer is not None:
            self.observer.on_tombstones(self.quantized.tombstone_ratio)
        return count

    def compact(
        self,
        *,
        heat_queries: Optional[np.ndarray] = None,
        save_to: Optional[str] = None,
        seed=None,
    ) -> Dict[str, object]:
        """Re-encode survivors, rebalance the layout, replace the file.

        Builds a fresh fully-materialized index holding only live rows,
        regenerates the DPU layout from current cluster heat (estimated
        from ``heat_queries`` when given, else live sizes), writes the
        new segments atomically over ``save_to`` (default: the path the
        engine was loaded from / last saved to — skipped if neither), and
        only then swaps the in-memory state. A crash mid-write leaves
        both the old file and the running engine fully usable.
        """
        self._check_loaded()
        removed = self.quantized.num_tombstones
        new_quantized = self.quantized.compact()
        config = self._config
        if config is None:
            config = EngineConfig(
                index=self.params,
                search=self.search_params,
                system=self.system.config,
            )
        fresh = DrimAnnEngine.from_quantized(
            new_quantized,
            config,
            heat_queries=heat_queries,
            cpu_profile=self.cpu_profile,
            preprocessor=self.preprocessor,
            seed=seed,
            index_path=self.index_path,
        )
        new_radii = adaptive_probing.cluster_radii_sq(new_quantized)
        target = save_to if save_to is not None else self.index_path
        if target is not None:
            try:
                save_index(
                    new_quantized,
                    target,
                    cluster_heat=fresh.cluster_heat,
                    preprocessor=self.preprocessor,
                    cluster_radii=new_radii,
                )
            except BaseException:
                # Crash-safe: the staged temp file is already cleaned up
                # by the writer; drop the half-built replacement system
                # and leave this engine (and the old file) untouched.
                fresh.close()
                raise
        self.close()
        self.quantized = fresh.quantized
        self.system = fresh.system
        self.plan = fresh.plan
        self.scheduler = fresh.scheduler
        self.report = fresh.report
        self.cluster_heat = fresh.cluster_heat
        self._radii_sq = new_radii
        self._radii_disabled = False
        self.index_path = target if target is not None else self.index_path
        # Keep the original observer wiring (fresh carried its own).
        self.system.observer = self.observer
        self.scheduler.observer = self.observer
        if self.observer is not None:
            self.observer.on_tombstones(0.0)
        return {
            "removed_tombstones": removed,
            "num_points": new_quantized.num_points,
            "path": target,
        }

    # ------------------------------------------------------------------ build
    @classmethod
    def from_config(
        cls,
        dataset: np.ndarray,
        config: EngineConfig,
        *,
        heat_queries: Optional[np.ndarray] = None,
        prebuilt_index: Optional[IVFPQIndex] = None,
        prebuilt_quantized: Optional[QuantizedIndexData] = None,
        cpu_profile: Optional[HardwareProfile] = None,
        tracer=None,
        seed=None,
    ) -> "DrimAnnEngine":
        """Train, quantize, lay out, and load the engine.

        ``heat_queries`` is the sample query set used to estimate
        cluster access frequency (paper: "the accessing frequency of
        each cluster is estimated by a sample query set"); when absent,
        heat falls back to cluster sizes (size correlates with access
        frequency, §IV-C). ``prebuilt_index`` / ``prebuilt_quantized``
        skip training when sweeping layout/scheduling knobs on a fixed
        index.

        ``config.faults`` (see :mod:`repro.faults`) injects
        deterministic DPU crashes, stragglers, transient kernel faults,
        and transfer timeouts; :meth:`search` recovers via replica
        failover and reports degradation in ``breakdown.faults``.
        ``config.obs`` switches on the :mod:`repro.obs` metrics layer.
        """
        params = config.index
        use_opq = config.use_opq
        base = check_2d(dataset, "base")
        params.validate_for(base.shape[1])
        rng = ensure_rng(seed)

        # OPQ as a host-side preprocessing transform: the FPU-less DPUs
        # need uint8 data, so the rotation is folded into a rotate +
        # requantize step applied to the corpus now and to every query
        # at search time (see repro.core.opq_preprocess).
        preprocessor = None
        if use_opq:
            if prebuilt_quantized is not None or prebuilt_index is not None:
                raise ValueError(
                    "use_opq must train from the raw corpus; do not pass "
                    "prebuilt indexes with it"
                )
            preprocessor = OpqPreprocessor.train(
                base, params.num_subspaces, seed=rng
            )
            base = preprocessor.transform(base)
            if heat_queries is not None:
                heat_queries = preprocessor.transform(heat_queries)

        if prebuilt_quantized is not None:
            quantized = prebuilt_quantized
        else:
            index = prebuilt_index
            if index is None:
                index = IVFPQIndex.build(
                    base,
                    nlist=params.nlist,
                    num_subspaces=params.num_subspaces,
                    codebook_size=params.codebook_size,
                    seed=rng,
                )
            quantized = build_quantized_index(index)

        return cls.from_quantized(
            quantized,
            config,
            heat_queries=heat_queries,
            cpu_profile=cpu_profile,
            tracer=tracer,
            preprocessor=preprocessor,
            seed=rng,
        )

    @classmethod
    def from_quantized(
        cls,
        quantized: QuantizedIndexData,
        config: EngineConfig,
        *,
        heat_queries: Optional[np.ndarray] = None,
        cluster_heat: Optional[np.ndarray] = None,
        cpu_profile: Optional[HardwareProfile] = None,
        tracer=None,
        preprocessor: Optional[OpqPreprocessor] = None,
        seed=None,
        index_path: Optional[str] = None,
        cluster_radii: Optional[np.ndarray] = None,
    ) -> "DrimAnnEngine":
        """Assemble an engine around an existing quantized index.

        The training-free half of :meth:`from_config`: layout, PIM
        system bring-up, and shard placement — and the core of
        :meth:`load`. Heat precedence: an explicit ``cluster_heat``
        vector (e.g. the one stored in a v2 index file, which makes the
        reloaded layout — and therefore the cycle ledgers — bit-exact),
        else an estimate from ``heat_queries``, else the live-size
        fallback. ``preprocessor`` attaches an already-trained OPQ
        transform (``heat_queries`` must already be in its domain).
        """
        params = config.index
        search_params = config.search
        system_config = config.system
        layout_config = config.layout
        fault_plan = config.faults
        params.validate_for(quantized.dim)
        rng = ensure_rng(seed)

        if quantized.nlist != params.nlist:
            raise ValueError(
                f"index nlist {quantized.nlist} != params.nlist {params.nlist}"
            )

        # --- WRAM budget check: per-task ADC LUT + square LUT + reserve.
        square_lut = SquareLut.for_bit_width(8, levels=3)
        wram_needed = (
            search_params.adc_lut_bytes(params)
            + (square_lut.resident_bytes if search_params.multiplier_less else 0)
            + WRAM_RESERVE_BYTES
        )
        if wram_needed > system_config.dpu.wram_bytes:
            raise ValueError(
                f"configuration needs {wram_needed} B of WRAM "
                f"(ADC LUT {search_params.adc_lut_bytes(params)} B + square LUT) "
                f"but DPUs have {system_config.dpu.wram_bytes} B; "
                "reduce num_subspaces x codebook_size"
            )

        # --- Eq. 15 task costs and cluster heat (generate_layout checks
        # a given heat vector's shape).
        lut_weight, point_weight = task_cost_weights(
            quantized.dim, params.num_subspaces, params.codebook_size
        )
        if cluster_heat is None:
            cluster_heat = estimate_cluster_heat(
                quantized,
                heat_queries,
                params.nprobe,
                lut_weight=lut_weight,
                point_weight=point_weight,
            )
        heat = np.asarray(cluster_heat, dtype=np.float64)
        plan = generate_layout(
            quantized, system_config.num_dpus, heat, layout_config, seed=rng
        )
        # (Fault plan vs. system cross-checks live in EngineConfig.)

        # --- observability (None when config.obs is disabled).
        observer = config.obs.create(
            tracer=tracer, frequency_hz=system_config.dpu.frequency_hz
        )
        if observer is not None:
            observer.on_wram_peak(wram_needed)

        # --- load the PIM system.
        system = PimSystem(
            system_config,
            tracer=tracer,
            fault_plan=fault_plan,
            observer=observer,
        )
        offline_xfer = system.load_codebooks(quantized.codebooks)
        offline_xfer += system.load_square_lut(square_lut)
        if search_params.cluster_locate_on == "pim":
            offline_xfer += system.load_centroid_slices(quantized.centroids)
        for key, shard in plan.shards.items():
            cid = shard.cluster_id
            # Contiguous row ranges become basic slices: the ShardData
            # then holds zero-copy views into the cluster arrays — for
            # an mmap-loaded index, placement (and the arena publish
            # that copies these into shared memory) never materializes
            # an intermediate per-shard copy.
            rows = _rows_slice(shard.point_rows)
            system.place_shard(
                plan.placement[key],
                ShardData(
                    shard_key=key,
                    centroid=quantized.centroids[cid],
                    ids=quantized.cluster_ids[cid][rows],
                    codes=quantized.cluster_codes[cid][rows],
                    data_key=(cid, shard.part_id),  # same rows per replica
                ),
            )
        # Shard payloads also traverse the host channel once, offline
        # (byte count from shapes alone — no array materialization).
        code_row_bytes = (
            quantized.codebooks.shape[0]
            * (1 if quantized.codebook_size <= 256 else 2)
            if quantized.nlist == 0
            else quantized.cluster_codes[0].dtype.itemsize
            * quantized.num_subspaces
        )
        total_bytes = float(
            sum(
                s.num_points * (code_row_bytes + 8) + quantized.dim
                for s in plan.shards.values()
            )
        )
        offline_xfer += system.transfer.scatter("shards", total_bytes)

        scheduler = RuntimeScheduler(
            plan, config.scheduler, lut_weight, point_weight
        )
        if fault_plan is not None:
            # Stragglers are assumed profiled (UpANNS measures per-DPU
            # frequency once at boot): the predictor is re-weighted by
            # each DPU's derated clock from the start. Fail-stops are
            # *not* pre-blacklisted — the engine discovers them when
            # tasks fail and blacklists reactively.
            scheduler.set_speed_factors(fault_plan.derates)
        report = EngineReport(
            params=params,
            layout_heat_per_dpu=plan.heat_per_dpu(),
            mram_used_per_dpu=system.mram_usage(),
            num_shards=len(plan.shards),
            offline_transfer_seconds=offline_xfer,
            replica_counts={c: len(g) for c, g in plan.replica_groups.items()},
        )
        engine = cls(
            quantized=quantized,
            params=params,
            search_params=search_params,
            system=system,
            plan=plan,
            scheduler=scheduler,
            report=report,
            cpu_profile=cpu_profile,
            preprocessor=preprocessor,
            observer=observer,
        )
        engine._config = config
        engine.cluster_heat = heat
        engine.index_path = index_path
        if cluster_radii is not None:
            radii = np.array(cluster_radii, dtype=np.int64)
            if radii.shape != (quantized.nlist,):
                raise ValueError(
                    f"cluster_radii must have shape ({quantized.nlist},), "
                    f"got {radii.shape}"
                )
            engine._radii_sq = radii
        if quantized.has_tombstones:
            engine._sync_liveness()
        return engine

    # ------------------------------------------------------------------ search
    def cluster_radii_sq(self) -> Optional[np.ndarray]:
        """Per-cluster squared reconstruction radii (lazily computed).

        The statistic behind adaptive distance-bound termination (see
        :mod:`repro.core.adaptive`). Engines loaded from index files
        without the optional ``cluster_radii`` segment return ``None``
        — bound checks gracefully disable rather than recompute from a
        possibly-mmapped code store behind the caller's back; a
        :meth:`save` computes fresh radii and upgrades the file.
        """
        self._check_loaded()
        if self._radii_sq is None and not self._radii_disabled:
            self._radii_sq = adaptive_probing.cluster_radii_sq(self.quantized)
        return self._radii_sq

    def _centroid_distances(
        self, queries: np.ndarray, probes: np.ndarray
    ) -> np.ndarray:
        """Exact int64 squared distances to each query's probe centroids.

        Same integer math as :meth:`QuantizedIndexData.locate`; invalid
        (``-1``) probe slots produce values for centroid 0 — callers
        mask them out. Used when the probe set arrives externally (the
        frontend's ``probes=`` path or CL-on-PIM) and the adaptive path
        still needs the distance statistics.
        """
        q = queries.astype(np.int64)
        qq = np.einsum("ij,ij->i", q, q)
        safe = np.maximum(np.asarray(probes), 0)
        c = self.quantized.centroids_i64[safe]  # (nb, p, d)
        qc = np.einsum("bd,bpd->bp", q, c)
        return qq[:, None] + self.quantized.centroid_norms_sq[0][safe] - 2 * qc

    def search(
        self,
        queries: np.ndarray,
        *,
        with_scheduler: bool = True,
        probes: Optional[np.ndarray] = None,
        adaptive: Optional[str] = None,
    ) -> SearchOutcome:
        """Batched top-k search.

        Returns a :class:`~repro.core.results.SearchOutcome` carrying
        the results, timing breakdown, fault stats, and (when
        observability is on) a metrics snapshot. The outcome unpacks
        like the historical two-tuple:
        ``results, breakdown = engine.search(queries)``.

        One round driver runs every search. The query matrix is cut
        into batches of ``search_params.batch_size`` queries (``None``:
        one batch, the paper's bulk dispatch). Each batch is located
        once (CL), then dispatched in *rounds*: the runtime scheduler
        maps a round's (query, cluster) tasks — plus tasks the filter
        deferred from earlier rounds — to DPUs, the DPUs run
        RC→LC→DC→TS, and tasks lost to dead DPUs fail over. A *probe
        policy* decides what each round issues. The exhaustive policy
        (``adaptive="off"``) issues every probe of the batch in one
        round; the adaptive policy issues one probe per still-active
        query per round (see ``adaptive`` below). Host CL time is
        charged on a batch's first round. Deferred tasks left after the
        last batch run in one filter-off drain round. Rounds only
        charge: the tasks they ran are computed in one
        :meth:`~repro.pim.system.PimSystem.compute_tasks` call and
        folded into the ``(nq, k)`` top-k at the end of the search, or
        before each stop check of an adaptive policy.

        Every batch size produces bit-identical results — the fold
        keeps a canonical (distance, id) top-k — and
        identical aggregate kernel-cycle totals; only round structure,
        transfer aggregation, and host wall-clock differ.

        ``with_scheduler=False`` forces the static policy (replica 0,
        no filter) — the ablation arm of Fig. 11. Every round of every
        arm runs on the engine's one scheduler, so DPU deaths found in
        any search stay blacklisted for the next.

        ``probes`` skips cluster location entirely and probes the given
        per-query cluster ids instead: an ``(nq, p)`` integer array of
        cluster ids local to this engine's index, padded with ``-1``
        for queries that probe fewer than ``p`` clusters here. This is
        the cluster frontend's routing path — the rack-level frontend
        locates against the *global* coarse index once and hands each
        shard only the probes it owns, so no per-shard CL host time is
        charged (the frontend accounts for the global CL itself).
        Non-integer arrays and ids outside ``[-1, nlist)`` raise
        ``ValueError`` naming ``probes``.

        ``adaptive`` overrides ``search_params.adaptive`` for this
        call (``"off"`` / ``"bound"`` / ``"budget"`` / ``"full"`` — see
        :mod:`repro.core.adaptive`). ``"bound"`` stops each query as
        soon as its k-th distance provably beats every remaining
        cluster's lower bound — results stay bit-identical to
        ``"off"``, only work (and therefore charged cycles) shrinks.
        ``"budget"`` picks a per-query probe budget from the
        centroid-distance gap profile; ``"full"`` combines both. With
        an explicit ``probes=`` matrix the budget heuristic is skipped
        (the caller already chose the probe set — the rack frontend
        applies global budgets before scattering) but bound-based
        termination still applies. The outcome's ``adaptive`` field
        reports what was actually probed; it is ``None`` when the
        exhaustive policy ran (including ``"bound"`` on an index
        without cluster radii).

        Under a fault plan, tasks lost to fail-stopped DPUs are
        re-dispatched to surviving replicas with exponential backoff
        charged to the run; dead DPUs are blacklisted in the scheduler.
        Tasks with no surviving replica are dropped: the affected
        queries return the partial top-k that could be computed, and
        ``breakdown.faults`` carries per-query coverage plus the
        ``degraded`` flag (the engine never raises on a fault).

        Malformed queries raise ``ValueError`` naming ``queries``: NaN
        or infinite values, fractions, and values outside the index's
        operand range (``[0, 255]`` for the uint8 pipeline) are
        rejected, never truncated or wrapped.
        """
        self._check_loaded()
        queries = check_2d(queries, "queries")
        if queries.shape[1] != self.quantized.dim:
            raise ValueError(
                f"query dim {queries.shape[1]} != index dim {self.quantized.dim}"
            )
        if self.preprocessor is not None:
            queries = self.preprocessor.transform(check_finite(queries, "queries"))
        # The integer pipeline starts here: NaNs, fractions and values
        # outside the index's operand range are rejected, never
        # truncated or wrapped by the cast to the operand dtype.
        dtype = self.quantized.centroids.dtype
        queries = check_operands(queries, dtype, "queries").astype(dtype, copy=False)
        k = self.params.k
        nprobe = self.params.nprobe
        nq = queries.shape[0]
        if probes is not None:
            probes = np.asarray(probes)
            if probes.ndim != 2 or probes.shape[0] != nq:
                raise ValueError(
                    f"probes must be (num_queries, p), got {probes.shape}"
                )
            if probes.dtype.kind not in "iu":
                raise ValueError(
                    f"probes must be an integer array, got dtype {probes.dtype}"
                )
            if probes.size and int(probes.min()) < -1:
                raise ValueError(
                    f"probes holds cluster id {int(probes.min())}; "
                    "only -1 may pad a row"
                )
            if probes.size and int(probes.max()) >= self.quantized.nlist:
                raise ValueError(
                    f"probe cluster id {int(probes.max())} out of range "
                    f"[0, {self.quantized.nlist})"
                )
        bs = self.search_params.batch_size or max(nq, 1)
        amode = adaptive if adaptive is not None else self.search_params.adaptive
        if amode not in ADAPTIVE_MODES:
            raise ValueError(
                f"adaptive must be one of {ADAPTIVE_MODES}, got {amode!r}"
            )
        # The probe policy: None is exhaustive (every probe of a batch
        # in one round). A degenerate adaptive mode — "bound" on a
        # radii-less index, "budget" on explicit probes — is exhaustive.
        policy: Optional[_AdaptiveRounds] = None
        if amode != "off" and nq:
            radii = self.cluster_radii_sq() if amode in ("bound", "full") else None
            use_budget = amode in ("budget", "full") and probes is None
            if radii is not None or use_budget:
                policy = _AdaptiveRounds(
                    amode, nq, k, radii,
                    self.search_params if use_budget else None,
                )
        obs = self.observer
        if obs is not None:
            obs.on_search_start(nq)
        self.system.begin_search()

        stats = FaultStats()
        if self.fault_plan is not None:
            stats.straggler_dpus = set(self.fault_plan.straggler_dpus)

        # The canonical top-k, and the tasks run since its last fold.
        best = (
            np.full((nq, k), -1, dtype=np.int64),
            np.full((nq, k), np.inf),
        )
        ran: List[Tuple[int, str]] = []
        breakdown = TimingBreakdown()
        breakdown.faults = stats

        def flush() -> None:
            if ran:
                rows, ids, dists = self.system.compute_tasks(queries, ran, k)
                merge_topk_pools(best[0], best[1], rows, ids, dists)
                ran.clear()

        def run_round(
            tasks: List[Tuple[int, int]],
            charge: Tuple[int, float, float, float] = (0, 0.0, 0.0, 0.0),
            defer: bool = with_scheduler,
        ) -> List[Tuple[int, int]]:
            """Schedule, execute and fail over one round; returns the
            tasks the filter deferred. ``charge`` is the CL to book:
            (new queries, host CL seconds, CL-on-PIM seconds, cycles).
            The ablation arm and the drain round never defer."""
            new_queries, host_s, cl_sec, cl_cycles = charge
            outcome = self.scheduler.schedule_batch(
                tasks, static=not with_scheduler, defer=defer
            )
            stats.uncovered.update(outcome.uncovered)
            failed = self._execute(
                outcome.assignments, queries, k, ran, breakdown,
                host_seconds=host_s,
                num_new_queries=new_queries,
                extra_pim_seconds=cl_sec,
                extra_cl_cycles=cl_cycles,
            )
            self._recover(failed, queries, k, ran, breakdown)
            return outcome.deferred

        carried: List[Tuple[int, int]] = []
        cl_on_pim = self.search_params.cluster_locate_on == "pim"
        for q0 in range(0, nq, bs):
            q1 = min(q0 + bs, nq)
            nb = q1 - q0
            batch = queries[q0:q1]
            rr = None
            host_s, cl_sec, cl_cycles = 0.0, 0.0, 0.0
            if probes is not None:
                batch_probes = probes[q0:q1]
            elif cl_on_pim:
                batch_probes, cl_sec, cl_cycles = self.system.locate_on_pim(
                    batch, nprobe
                )
            else:
                batch_probes, rr = self.quantized.locate_with_distances(
                    batch, nprobe
                )
                host_s = host_cl_seconds(self.params, self.quantized, nb, self.cpu_profile)
            if policy is None:
                # Every probe of the batch in one vectorized round.
                tasks: List[Tuple[int, int]] = []
                for i, row in enumerate(batch_probes.tolist()):
                    tasks.extend((q0 + i, c) for c in row if c >= 0)
                rounds: Iterable[List[Tuple[int, int]]] = [tasks]
            else:
                if rr is None:
                    rr = self._centroid_distances(batch, batch_probes)
                rounds = policy.rounds(q0, batch_probes, rr, best[1])
            charge = (nb, host_s, cl_sec, cl_cycles)
            for new in rounds:
                carried = run_round(carried + new, charge)
                # CL is charged on the batch's first round only.
                charge = (0, 0.0, 0.0, 0.0)
                if policy is not None:
                    flush()  # the policy's stop checks read best[1]

        if carried:
            # The drain: one filter-off round, which defers nothing.
            run_round(carried, defer=False)
        flush()

        stats.finalize(num_queries=nq, nprobe=nprobe)
        if obs is not None:
            obs.on_faults(stats)
        report = None
        if policy is not None:
            report = policy.report(stats.uncovered, nprobe)
            if obs is not None:
                for q in range(nq):
                    obs.on_probes_executed(int(report.probes_executed[q]))
                    obs.on_adaptive_stop(report.stop_reasons[q])

        return SearchOutcome(
            results=SearchResult(ids=best[0], distances=best[1]),
            breakdown=breakdown,
            metrics=obs.snapshot() if obs is not None else None,
            adaptive=report,
        )

    def _execute(
        self,
        assignments: Dict[int, List[Tuple[int, str]]],
        queries: np.ndarray,
        k: int,
        ran: List[Tuple[int, str]],
        breakdown: TimingBreakdown,
        *,
        host_seconds: float,
        num_new_queries: int,
        extra_pim_seconds: float = 0.0,
        extra_cl_cycles: float = 0.0,
    ) -> List[Tuple[int, str]]:
        """Charge one PIM batch: its timing goes into ``breakdown`` and
        the (global query index, shard key) tasks that ran into ``ran``.

        ``extra_pim_seconds`` / ``extra_cl_cycles`` account a preceding
        CL-on-PIM launch (it cannot overlap with the task batch: its
        output drives the schedule).

        Returns the (global query index, shard key) tasks lost to dead
        DPUs, for the caller to fail over.
        """
        failed: List[Tuple[int, str]] = []
        # An empty round is never run: it would consume a fault-plan batch.
        if any(assignments.values()):
            timing = self.system.run_batch(
                assignments,
                queries,
                k,
                multiplier_less=self.search_params.multiplier_less,
            )
            ran.extend(timing.tasks)
            if extra_pim_seconds or extra_cl_cycles:
                timing.pim_seconds += extra_pim_seconds
                timing.kernel_cycles["CL"] = (
                    timing.kernel_cycles.get("CL", 0.0) + extra_cl_cycles
                )
            breakdown.add_batch(timing, host_seconds, num_new_queries)
            obs = self.observer
            if obs is not None:
                cl_seconds = host_seconds + extra_pim_seconds
                if cl_seconds:
                    obs.on_phase("CL", cl_seconds)
                freq = self.system.config.dpu.frequency_hz
                for kname in ("RC", "LC", "DC", "TS"):
                    cyc = timing.kernel_cycles.get(kname, 0.0)
                    if cyc:
                        obs.on_phase(kname, cyc / freq)
            failed = timing.failed_tasks
            if breakdown.faults is not None:
                breakdown.faults.transient_faults += timing.transient_retries
                breakdown.faults.transfer_timeouts += timing.transfer_timeouts
        return failed

    def _recover(
        self,
        failed: List[Tuple[int, str]],
        queries: np.ndarray,
        k: int,
        ran: List[Tuple[int, str]],
        breakdown: TimingBreakdown,
    ) -> None:
        """Fail over tasks lost to dead DPUs (the tasks that ran go
        into ``ran``).

        Each round blacklists the newly-observed dead DPUs, waits out
        an exponential backoff (charged to the run's wall-clock), and
        re-dispatches the failed (query, shard) tasks to surviving
        replicas of the same part. Tasks still failing after
        ``max_redispatch_attempts`` rounds — or with no live replica —
        are recorded as uncovered; the affected queries degrade to
        partial coverage instead of raising.
        """
        stats = breakdown.faults
        scheduler = self.scheduler
        fplan = self.fault_plan
        retries = (
            None if fplan is None else fplan.config.backoff_policy().sequence()
        )
        attempt = 0
        while failed:
            observed = self.system.dead_dpus()
            stats.dead_dpus |= observed
            newly = observed - scheduler.dead_dpus
            if newly:
                scheduler.mark_dead(newly)
            if fplan is None or attempt >= fplan.config.max_redispatch_attempts:
                for qidx, key in failed:
                    stats.uncovered.add(
                        (qidx, self.plan.shards[key].cluster_id)
                    )
                break
            backoff = retries.next_delay()
            breakdown.add_stall(backoff)
            stats.backoff_seconds += backoff
            stats.redispatch_rounds += 1
            assignments, uncovered = scheduler.failover_assignments(failed)
            stats.uncovered.update(uncovered)
            stats.task_retries += sum(len(t) for t in assignments.values())
            failed = self._execute(
                assignments, queries, k, ran, breakdown,
                host_seconds=0.0, num_new_queries=0,
            )
            attempt += 1

    # ---------------------------------------------------------------- helpers
    def reference_search(self, queries: np.ndarray) -> SearchResult:
        """Host gold standard with identical integer math."""
        self._check_loaded()
        if self.preprocessor is not None:
            queries = self.preprocessor.transform(queries)
        return self.quantized.reference_search(
            queries, self.params.k, self.params.nprobe
        )
