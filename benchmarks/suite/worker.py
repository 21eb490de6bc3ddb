"""One workload, one seed, one run: the benchmark's child process.

``python -m benchmarks.suite run`` starts one of these per workload.
It loads the workload's corpus (generated once, by a child of its own,
into ``.work/corpus/``), draws the query pool from ``--seed``, sets
the system up twice, then times a closed loop of public API calls (one
client, no think time) until ``--seconds`` of op wall time have
passed. Every output is checked against the repository's own oracles
outside the timed calls. The record goes to ``--result`` as JSON.
"""

from __future__ import annotations

import os

# One program thread: BLAS pools would compete with it for the two
# cores this benchmark is sized for. Must precede the NumPy import.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Dict, List, Optional, Tuple  # noqa: E402

import numpy as np  # noqa: E402

import repro.data  # noqa: E402
from benchmarks.suite import tracing  # noqa: E402
from repro import (  # noqa: E402
    DrimAnnEngine,
    EngineConfig,
    IndexParams,
    load_dataset,
    recall_at_k,
)
from repro.cluster import ClusterConfig, ClusterFrontend, build_cluster_index  # noqa: E402
from repro.data.ground_truth import exact_topk  # noqa: E402
from repro.pim.backend import resolve_backend  # noqa: E402
from repro.pim.config import PimSystemConfig  # noqa: E402

K = 10
POOL_SIZE = 1000
SETUP_REPS = 2
CACHE_DIR = Path(__file__).resolve().parent / ".work" / "corpus"
#: The corpus and the index training are part of a workload's
#: definition, fixed across seeds; ``--seed`` draws the query pool
#: from QUERY_SOURCE queries of the corpus (and mutate-persist's
#: deletions). With per-seed corpora the exact metrics swung by up to
#: 2x between seeds (k-means on a different draw), hiding any change.
BUILD_SEED = 0
QUERY_SOURCE = 8000


def engine_config(nlist: int, nprobe: int, num_dpus: int) -> EngineConfig:
    """M 32, CB 128, default SearchParams (multiplier-less), no pool."""
    return EngineConfig(
        index=IndexParams(
            nlist=nlist, nprobe=nprobe, k=K, num_subspaces=32, codebook_size=128
        ),
        system=PimSystemConfig(num_dpus=num_dpus, shard_workers=0),
    )


@dataclass
class Op:
    """One timed public call and what the checks made of it."""

    step: int
    kind: str
    wall: float
    traced: bool
    error: Optional[str] = None
    nq: int = 0
    modeled_s: float = 0.0
    pool_slice: int = -1
    ids: Optional[np.ndarray] = None
    dists: Optional[np.ndarray] = None
    tombstones: float = 0.0
    ref: float = 0.0  # wall time in ref seconds (see CAL_REF_S)


def compare_rows(
    ids: np.ndarray,
    dists: np.ndarray,
    ref_ids: np.ndarray,
    ref_dists: np.ndarray,
    live: Optional[np.ndarray] = None,
) -> Tuple[Optional[str], int]:
    """Check one result block against the int64 oracle.

    Returns ``(failure, tie_rows)``. A row fails when its distances
    differ from the oracle's, it repeats an id, or it returns a deleted
    id (``live`` given). A row whose ids differ only among points at
    the row's boundary distance is a tie artifact, counted, not failed.
    """
    if ids.shape != ref_ids.shape or not np.array_equal(dists, ref_dists):
        return "distances differ from the oracle", 0
    ties = 0
    for row, ref, d in zip(ids, ref_ids, dists):
        got = row[row >= 0]
        if len(np.unique(got)) != len(got):
            return "duplicate id in a result row", 0
        if live is not None and not live[got].all():
            return "deleted id returned", 0
        if np.array_equal(row, ref):
            continue
        finite = d[np.isfinite(d)]
        inner = d < (finite.max() if len(finite) else np.inf)
        if set(row[inner].tolist()) != set(ref[inner].tolist()):
            return "ids differ from the oracle off a distance tie", 0
        ties += 1
    return None, ties


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

Step = List[Tuple[str, Callable[[], object], Callable[[object, Op], None]]]


class PoolSearch:
    """A static index searched in fixed batches cycling a query pool.

    Used by ``lut-heavy``, ``scan-heavy`` (one engine) and
    ``rack-frontend`` (a sharded rack behind the asyncio frontend). The
    first pass over the pool is the prefix the exact metrics come
    from; after the loop its outputs are checked against the oracle,
    and every later pass must repeat them byte for byte.
    """

    max_steps = 1 << 30
    row_bytes = ()  # no index files

    def __init__(
        self,
        inputs: Tuple[np.ndarray, np.ndarray],
        *,
        nlist: int,
        nprobe: int,
        num_dpus: int,
        batch: int,
        prefix_steps: int,
        shards: int = 0,
    ) -> None:
        self.base, self.pool = inputs
        self.config = engine_config(nlist, nprobe, num_dpus)
        self.batch = batch
        self.prefix_steps = prefix_steps
        self.shards = shards
        self.engine: Optional[DrimAnnEngine] = None
        self.cluster = None
        self.frontend: Optional[ClusterFrontend] = None
        self.tie_rows = 0

    def _queries(self, pool_slice: int) -> np.ndarray:
        q0 = pool_slice * self.batch
        return self.pool[q0 : q0 + self.batch]

    def _search(self, queries: np.ndarray):
        if self.frontend is not None:
            return self.frontend.search(queries)
        return self.engine.search(queries)

    def setup(self) -> None:
        if self.shards:
            self.cluster = build_cluster_index(
                self.base,
                self.config,
                ClusterConfig(num_shards=self.shards, replication=1),
                seed=BUILD_SEED,
            )
            self.frontend = ClusterFrontend(self.cluster, seed=BUILD_SEED)
        else:
            self.engine = DrimAnnEngine.from_config(
                self.base, self.config, seed=BUILD_SEED
            )
        self._search(self._queries(0))  # the warm-up op

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
        if self.engine is not None:
            self.engine.close()
        self.engine = self.cluster = self.frontend = None

    def step(self, i: int) -> Step:
        pool_slice = i % (len(self.pool) // self.batch)
        queries = self._queries(pool_slice)

        def record(out, op: Op) -> None:
            res, timing = out
            op.nq = len(queries)
            op.pool_slice = pool_slice
            op.modeled_s = timing.e2e_seconds
            op.ids, op.dists = res.ids, res.distances

        return [("search", lambda: self._search(queries), record)]

    def replay_search(self, i: int) -> Callable[[], object]:
        return lambda: self._search(self._queries(i % (len(self.pool) // self.batch)))

    def _oracle(self, queries: np.ndarray):
        if self.cluster is not None:
            return self.cluster.oracle_search(queries)
        return self.engine.reference_search(queries)

    def verify(self, ops: List[Op]) -> None:
        refs: Dict[int, object] = {}
        first: Dict[int, Op] = {}
        for op in ops:
            if op.kind != "search" or op.error is not None:
                continue
            s = op.pool_slice
            if s not in refs:
                refs[s] = self._oracle(self._queries(s))
                first[s] = op
            op.error, ties = compare_rows(
                op.ids, op.dists, refs[s].ids, refs[s].distances
            )
            if op.error is None and not np.array_equal(op.ids, first[s].ids):
                op.error = "a repeated batch returned different ids"
            if op.step < self.prefix_steps:
                self.tie_rows += ties

    def recall(self, ops: List[Op]) -> float:
        prefix = [o for o in ops if o.kind == "search" and o.step < self.prefix_steps]
        queries = np.concatenate([self._queries(o.pool_slice) for o in prefix])
        gt = exact_topk(self.base, queries, K, block_q=128)
        return recall_at_k(np.concatenate([o.ids for o in prefix]), gt, K)


class MutatePersist:
    """Writes beside reads on a durable index.

    Trained on rows [0, 20k) of sift-like-100k; step ``i`` adds the
    next 200 streamed rows (their row numbers as ids), searches 8 pool
    queries, deletes 200 random live ids and searches 8 more; every
    ``maint_every``-th step then runs ``compact(save_to=...)``,
    ``unload()`` and ``DrimAnnEngine.load``. Each search is checked
    against ``reference_search`` on the live state right after it; its
    recall is scored after the loop against exact search over the rows
    that were live when it ran.
    """

    TRAIN_ROWS = 20_000
    ADD = 200
    DELETE = 200
    BATCH = 8

    def __init__(
        self,
        seed: int,
        inputs: Tuple[np.ndarray, np.ndarray],
        workdir: str,
        *,
        prefix_steps: int,
        maint_every: int,
    ) -> None:
        self.seed = seed
        self.base, self.pool = inputs
        self.config = engine_config(128, 8, 32)
        self.path = os.path.join(workdir, "index.drim")
        self.prefix_steps = prefix_steps
        self.maint_every = maint_every
        self.max_steps = (len(self.base) - self.TRAIN_ROWS) // self.ADD
        self.engine: Optional[DrimAnnEngine] = None
        self.tie_rows = 0
        #: (queries, ids, live rows) of each prefix search, for recall.
        self.scored: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.row_bytes: List[float] = []

    def setup(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        self.live = np.zeros(len(self.base), dtype=bool)
        self.live[: self.TRAIN_ROWS] = True
        self.engine = DrimAnnEngine.from_config(
            self.base[: self.TRAIN_ROWS], self.config, seed=BUILD_SEED
        )
        self.engine.search(self.pool[: self.BATCH])  # the warm-up op

    def close(self) -> None:
        if self.engine is not None:
            self.engine.unload()
        self.engine = None

    def step(self, i: int) -> Step:
        r0 = self.TRAIN_ROWS + i * self.ADD
        rows = np.arange(r0, r0 + self.ADD, dtype=np.int64)
        doomed = self.rng.choice(
            np.flatnonzero(self.live), self.DELETE, replace=False
        )
        in_prefix = i < self.prefix_steps

        def added(new_ids, op: Op) -> None:
            if not np.array_equal(new_ids, rows):
                op.error = "add() returned other ids than requested"
            self.live[rows] = True

        def deleted(count, op: Op) -> None:
            if count != self.DELETE:
                op.error = f"delete() removed {count} of {self.DELETE} live ids"
            self.live[doomed] = False

        def search(j: int):
            slices = len(self.pool) // self.BATCH
            q0 = (2 * i + j) % slices * self.BATCH
            queries = self.pool[q0 : q0 + self.BATCH]

            def searched(out, op: Op) -> None:
                res, timing = out
                op.nq = len(queries)
                op.modeled_s = timing.e2e_seconds
                op.ids, op.dists = res.ids, res.distances
                op.tombstones = self.engine.quantized.tombstone_ratio
                ref = self.engine.reference_search(queries)
                op.error, ties = compare_rows(
                    res.ids, res.distances, ref.ids, ref.distances, self.live
                )
                if in_prefix:
                    self.tie_rows += ties
                    live_rows = np.flatnonzero(self.live)
                    self.scored.append((queries, res.ids, live_rows))

            return ("search", lambda: self.engine.search(queries), searched)

        ops: Step = [
            ("add", lambda: self.engine.add(self.base[rows], rows), added),
            search(0),
            ("delete", lambda: self.engine.delete(doomed), deleted),
            search(1),
        ]
        if (i + 1) % self.maint_every:
            return ops

        def compacted(info, op: Op) -> None:
            live_n = int(self.live.sum())
            if info["num_points"] != live_n:
                op.error = f"compact kept {info['num_points']} of {live_n} rows"
            if in_prefix:
                self.row_bytes.append(os.path.getsize(self.path) / live_n)

        def loaded(engine, op: Op) -> None:
            self.engine = engine
            if engine.quantized.num_live_points != int(self.live.sum()):
                op.error = "load() lost or gained rows"

        return ops + [
            (
                "compact",
                lambda: self.engine.compact(save_to=self.path, seed=BUILD_SEED),
                compacted,
            ),
            ("unload", lambda: self.engine.unload(), lambda _, op: None),
            (
                "load",
                lambda: DrimAnnEngine.load(
                    self.path, self.config, seed=BUILD_SEED
                ),
                loaded,
            ),
        ]

    def replay_search(self, i: int) -> Callable[[], object]:
        return lambda: self.engine.search(self.pool[i * self.BATCH : (i + 1) * self.BATCH])

    def verify(self, ops: List[Op]) -> None:
        """Searches were verified as they ran (the state moves on)."""

    def recall(self, ops: List[Op]) -> float:
        hits = 0.0
        for queries, ids, live_rows in self.scored:
            gt = live_rows[exact_topk(self.base[live_rows], queries, K)]
            hits += recall_at_k(ids, gt, K) * len(queries)
        return hits / sum(len(q) for q, _, _ in self.scored)


PRESETS = {
    "lut-heavy": "sift-like-20k",
    "scan-heavy": "sift-like-20k",
    "rack-frontend": "sift-like-20k-skewed",
    "mutate-persist": "sift-like-100k",
}


def corpus_path(name: str) -> Path:
    """Where a workload's generated corpus is cached, keyed by the
    generator's source so that a change to it regenerates."""
    h = hashlib.sha256(f"{PRESETS[name]} {BUILD_SEED} {QUERY_SOURCE}".encode())
    for src in sorted(Path(repro.data.__file__).parent.glob("*.py")):
        h.update(src.read_bytes())
    return CACHE_DIR / f"{PRESETS[name]}-{h.hexdigest()[:16]}.npz"


def write_corpus(name: str) -> None:
    ds = load_dataset(PRESETS[name], seed=BUILD_SEED, num_queries=QUERY_SOURCE)
    path = corpus_path(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp.npz")
    np.savez(tmp, base=ds.base, queries=ds.queries)
    os.replace(tmp, path)


def load_inputs(name: str, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """The corpus and the seed's query pool. A missing corpus is made
    by a process of its own, so that the generator's memory stays out
    of the measured ``peak_rss_mb``."""
    path = corpus_path(name)
    if not path.exists():
        subprocess.run(
            [sys.executable, "-m", "benchmarks.suite.worker",
             "--workload", name, "--corpus-only"],
            check=True,
            timeout=120,
        )
    with np.load(path) as f:
        base, source = f["base"], f["queries"]
    pick = np.random.default_rng(seed).choice(len(source), POOL_SIZE, replace=False)
    return base, source[pick]


def make_workload(name: str, seed: int, quick: bool, workdir: str):
    inputs = load_inputs(name, seed)

    def one_pass(batch: int, quick_steps: int) -> int:
        return quick_steps if quick else POOL_SIZE // batch

    if name == "lut-heavy":
        return PoolSearch(
            inputs, nlist=128, nprobe=8, num_dpus=32, batch=25,
            prefix_steps=one_pass(25, 4),
        )
    if name == "scan-heavy":
        return PoolSearch(
            inputs, nlist=8, nprobe=4, num_dpus=32, batch=25,
            prefix_steps=one_pass(25, 4),
        )
    if name == "rack-frontend":
        return PoolSearch(
            inputs, nlist=128, nprobe=8, num_dpus=8, batch=8,
            prefix_steps=one_pass(8, 8), shards=4,
        )
    return MutatePersist(
        seed, inputs, workdir,
        prefix_steps=2 if quick else 20,
        maint_every=2 if quick else 10,
    )


# ---------------------------------------------------------------------------
# The timed loop and the metrics
# ---------------------------------------------------------------------------


#: Reference time of one calibration unit. On a shared 2-vCPU VM the
#: effective CPU speed was seen to drift by up to 1.6x within seconds
#: (other tenants), which swamped any code change in raw wall time.
#: Each op's time is therefore reported in *ref* units: its wall time
#: scaled by CAL_REF_S over the unit's time measured right around the
#: op, i.e. the op's time on a host that runs the unit in 0.8 ms (that
#: VM when quiet).
CAL_REF_S = 0.8e-3

#: Search calls a full run makes at least, so that at least ten
#: samples lie beyond the reported p90.
MIN_SEARCHES = 100


class Calibration:
    """A fixed work unit timed between ops: small-table gathers, dict
    updates in the interpreter and small BLAS products, in the time
    shares that tracked engine speed best on that VM."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.table = rng.integers(0, 1 << 20, size=1 << 10)
        self.rows = rng.integers(0, 1 << 10, size=(32, 4096))
        self.mat = rng.standard_normal((64, 64))
        self.samples: List[float] = []

    def time_unit(self) -> float:
        t0 = time.perf_counter()
        for r in self.rows:
            int(self.table[r].sum())
        d: Dict[int, int] = {}
        for i in range(2000):
            d[i & 1023] = d.get(i & 1023, 0) + i
        for _ in range(36):
            self.mat @ self.mat
        return time.perf_counter() - t0

    def sample(self) -> None:
        self.samples.append(self.time_unit())

    def scale(self, j: int) -> float:
        """Wall-to-ref factor for op ``j``, from the samples just before
        (``j``) and just after (``j + 1``) it."""
        return 2 * CAL_REF_S / (self.samples[j] + self.samples[j + 1])


def run(
    wl, seconds: float, trace: bool, setup_reps: int, min_searches: int
) -> dict:
    cal = Calibration()
    build_tracer = tracing.Tracer()
    setup_wall, setup_s = [], []
    for _ in range(setup_reps):
        wl.close()
        around = [cal.time_unit() for _ in range(3)]
        if trace:
            tracing.install(build_tracer)
        try:
            t0 = time.perf_counter()
            wl.setup()
            setup_wall.append(time.perf_counter() - t0)
        finally:
            build_tracer.restore()
        around += [cal.time_unit() for _ in range(3)]
        setup_s.append(setup_wall[-1] * CAL_REF_S / statistics.median(around))

    tracer = tracing.Tracer()
    prefix_counts: Optional[Dict[str, float]] = None
    restored = True
    ops: List[Op] = []
    op_wall = 0.0
    searches = 0
    step = 0
    loop_t0 = time.perf_counter()
    cal.sample()
    while step < wl.max_steps and (
        step < wl.prefix_steps or op_wall < seconds or searches < min_searches
    ):
        if step == wl.prefix_steps:
            prefix_counts = dict(tracer.counts)
        traced = trace and step % 2 == 1
        for kind, call, check in wl.step(step):
            if traced:
                tracing.install(tracer)
            try:
                t0 = time.perf_counter()
                result = call()
                op = Op(step, kind, time.perf_counter() - t0, traced)
            except Exception as exc:  # a failed op is recorded, not fatal
                op = Op(step, kind, time.perf_counter() - t0, traced)
                op.error = f"{type(exc).__name__}: {exc}"
            finally:
                if traced:
                    sites = tracer.restore()
                    restored &= all(vars(o)[a] is raw for o, a, raw in sites)
            if op.error is None:
                check(result, op)
            ops.append(op)
            op_wall += op.wall
            searches += kind == "search"
            cal.sample()
        step += 1
    if prefix_counts is None:
        prefix_counts = dict(tracer.counts)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_t0 = time.perf_counter()
    for j, op in enumerate(ops):
        op.ref = op.wall * cal.scale(j)

    wl.verify(ops)
    record = {
        "steps": step,
        "attempted": len(ops),
        "failed": sum(op.error is not None for op in ops),
        "failures": sorted({op.error for op in ops if op.error})[:5],
        "trace_restored": restored,
        "digest": _digest(ops, wl.prefix_steps),
        "op_ref_ms": _latency_table(ops),
        "calibration_ms": dict(
            zip(("p10", "p50", "p90"), np.percentile(cal.samples, [10, 50, 90]) * 1e3)
        ),
    }
    if record["failed"]:
        record["metrics"] = {}
    elif trace:
        record["metrics"] = layer_metrics(
            wl, ops, tracer, prefix_counts, build_tracer,
            sum(setup_s) / sum(setup_wall) / setup_reps,
        )
        record["metrics"]["trace_overhead_frac"] = trace_overhead(wl)
    else:
        record["metrics"] = end_to_end_metrics(wl, ops, setup_s, peak_rss_mb)
    record["phase_s"] = {
        "setup": sum(setup_wall),
        "loop": check_t0 - loop_t0,
        "checks": time.perf_counter() - check_t0,
    }
    return record


def trace_overhead(wl, pairs: int = 16) -> float:
    """1 - untraced/traced time of the same search run back to back,
    in alternating order: paired, so load drift and per-batch work
    cancel out of the estimate."""
    tracer = tracing.Tracer()
    ratios = []
    for i in range(pairs):
        call = wl.replay_search(i)
        t = {}
        for traced in (True, False) if i % 2 else (False, True):
            if traced:
                tracing.install(tracer)
            try:
                t0 = time.perf_counter()
                call()
                t[traced] = time.perf_counter() - t0
            finally:
                tracer.restore()
        ratios.append(t[False] / t[True])
    return 1.0 - statistics.median(ratios)


def _digest(ops: List[Op], prefix_steps: int) -> str:
    h = hashlib.sha256()
    for op in ops:
        if op.kind == "search" and op.step < prefix_steps and op.ids is not None:
            h.update(op.ids.tobytes())
            h.update(op.dists.tobytes())
    return h.hexdigest()


def _latency_table(ops: List[Op]) -> Dict[str, dict]:
    """Untraced ref-ms percentiles per op kind (add, compact, ...)."""
    table = {}
    for kind in sorted({op.kind for op in ops}):
        times = [op.ref * 1e3 for op in ops if op.kind == kind and not op.traced]
        if times:
            p50, p90 = np.percentile(times, [50, 90])
            table[kind] = {"count": len(times), "p50": p50, "p90": p90}
    return table


def end_to_end_metrics(wl, ops: List[Op], setup_s: List[float], rss: float) -> dict:
    searches = [op for op in ops if op.kind == "search"]
    prefix = [op for op in searches if op.step < wl.prefix_steps]
    p50, p90 = np.percentile([op.ref for op in searches], [50, 90])
    return {
        "setup_s": statistics.median(setup_s),
        "search_p50_ms": p50 * 1e3,
        "search_p90_ms": p90 * 1e3,
        "host_qps": sum(op.nq for op in searches) / sum(op.ref for op in searches),
        "ops_per_s": len(ops) / sum(op.ref for op in ops),
        "modeled_qps": sum(op.nq for op in prefix)
        / sum(op.modeled_s for op in prefix),
        "recall_at_10": wl.recall(ops),
        "peak_rss_mb": rss,
    }


def layer_metrics(wl, ops, tracer, counts, build_tracer, per_setup) -> dict:
    """Per-layer metrics of a traced run; ``per_setup`` turns the set-up
    spans' summed wall seconds into ref seconds per set-up."""
    unknown = set(tracer.self_s) - set(tracing.OP_SPAN_METRICS)
    if unknown:
        raise RuntimeError(f"spans booked outside the op metrics: {unknown}")
    traced = [op for op in ops if op.traced]
    traced_wall = sum(op.wall for op in traced)
    traced_ref = sum(op.ref for op in traced)
    m = {
        f"{name}_frac": tracer.self_s.get(name, 0.0) / traced_wall
        for name in tracing.OP_SPAN_METRICS
    }
    m["trace.unattributed_frac"] = 1.0 - tracer.top_s / traced_wall
    m["trace.op_ms"] = traced_ref / len(traced) * 1e3

    # Exact per-layer counts: traced searches of the prefix.
    calls = [
        op for op in traced if op.kind == "search" and op.step < wl.prefix_steps
    ]
    nq = sum(op.nq for op in calls)
    m["core.square_lut.cells"] = counts.get("cells", 0.0) / nq
    m["pim.backend.scan_rows"] = counts.get("scan_rows", 0.0) / nq
    for path in ("serial", "vectorized", "compiled", "pool"):
        m[f"pim.parallel.plan_{path}"] = counts.get("plan_" + path, 0.0) / len(calls)
    m["core.scheduler.rounds"] = counts.get("schedule_rounds", 0.0) / len(calls)
    m["core.scheduler.tasks"] = counts.get("schedule_tasks", 0.0) / nq
    fronts = counts.get("frontend_searches", 0.0)
    m["cluster.frontend.node_calls"] = (
        counts["engine_searches"] / fronts if fronts else 0.0
    )
    for kernel in ("RC", "LC", "DC", "TS"):
        m[f"modeled.{kernel.lower()}_mcycles"] = counts["cycles_" + kernel] / nq / 1e6
    m["modeled.transfer_ms"] = counts["transfer_s"] / nq * 1e3
    m["modeled.host_cl_ms"] = counts["host_cl_s"] / nq * 1e3
    m["modeled.busy_frac"] = counts["busy_sum"] / counts["batches"]
    m["core.quantized.tombstone_ratio"] = statistics.fmean(
        op.tombstones for op in calls
    )
    rows = wl.row_bytes
    m["core.persist.bytes_per_live_row"] = statistics.fmean(rows) if rows else 0.0
    m["verify.tie_divergent_rows"] = float(wl.tie_rows)

    # Host-time rates over every traced op, in ref units.
    scan_ref_s = tracer.self_s.get("pim.backend.scan", 0.0) * traced_ref / traced_wall
    m["pim.backend.scan_ns_per_row"] = scan_ref_s / tracer.counts["scan_rows"] * 1e9
    plain = [op for op in ops if op.kind == "search" and not op.traced]
    m["wall_per_modeled"] = sum(op.ref for op in plain) / sum(
        op.modeled_s for op in plain
    )
    m["ann.build_s"] = build_tracer.self_s["ann.build"] * per_setup
    m["core.quantized.build_s"] = build_tracer.self_s["core.quantized.build"] * per_setup
    return m


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "kernel_backend": resolve_backend("auto").name,
        "shard_workers": 0,
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m benchmarks.suite.worker")
    ap.add_argument("--workload", choices=sorted(PRESETS), required=True)
    ap.add_argument("--corpus-only", action="store_true")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--workdir")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--result")
    args = ap.parse_args(argv)
    if args.corpus_only:
        write_corpus(args.workload)
        return 0
    wl = make_workload(args.workload, args.seed, args.quick, args.workdir)
    try:
        record = run(
            wl,
            0.0 if args.quick else args.seconds,
            bool(args.trace),
            setup_reps=1 if args.quick else SETUP_REPS,
            min_searches=0 if args.quick else MIN_SEARCHES,
        )
    finally:
        wl.close()
    record.update(
        workload=args.workload,
        trace=bool(args.trace),
        quick=args.quick,
        env=environment(args.seed),
    )
    with open(args.result, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
