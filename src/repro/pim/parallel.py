"""The parallel data plane: persistent zero-copy workers for shard scans.

The batched executor in :mod:`repro.pim.system` spends almost all of
its functional wall-clock in the DC/TS phase: gathering LUT entries
over every resident shard's code block and reducing to per-query
top-k. That work is embarrassingly parallel across shard groups (each
group touches one shard's codes and its own LUT rows), so large fleets
can fan it out over worker processes — mirroring how a real host would
drive independent PIM ranks from multiple threads.

The scan paths, the one worker pool, and a planner live here:

* :func:`scan_shard_group` — the single functional scan path. The
  serial loop, the vectorized fast path's per-group fallback, the pool
  workers and the pool's in-process fallback all funnel through the
  same kernel backend
  (:mod:`repro.pim.backend` — every backend is bit-identical to the
  reference :func:`~repro.pim.kernels.scan_distances` /
  :func:`~repro.pim.kernels.topk_rows` pair), which is what makes
  every execution strategy bit-exact by construction.
* :class:`PersistentShardPool` — the worker pool. Workers are spawned
  once, attach every shard's codes/ids through one
  :mod:`multiprocessing.shared_memory` segment (the arena), and keep
  them resident across rounds: the steady state ships only per-round
  task descriptors ``(shard_key, luts, k, live)`` down the pipe and
  result rows back. Nothing MRAM-resident is ever re-pickled.
* :class:`ExecutionPlanner` — picks serial / vectorized / pool per
  round from the round's measured size and the pool's warmup state
  (see :attr:`~repro.core.params.SearchParams.plan`).

Every pool failure (creation, worker death, missing residency) degrades
to the serial path — results are identical either way — and is recorded
as a fallback event that :class:`~repro.pim.system.PimSystem` drains
into the ``drimann_pim_pool_fallbacks_total`` metric instead of being
swallowed silently.

Shared-memory hygiene: every segment this process creates is tracked in
a module registry and unlinked by :meth:`SharedShardArena.close`, by
:meth:`PersistentShardPool.close` (reached from ``engine.close()`` /
``PimSystem.close``), and — as a last resort, e.g. after a crashed
parent — by an ``atexit`` sweep. :func:`assert_no_leaked_segments`
makes the guarantee checkable from tests.
"""

from __future__ import annotations

import atexit
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.pim.backend import (
    SCAN_TOPK_N_CHUNK,
    KernelBackend,
    resolve_backend,
)
from repro.pim.kernels import topk_rows

#: Rows of LUTs scanned per functional DC call; bounds the transient
#: ``(rows, n, M)`` gather tensor without changing results (the scan
#: and top-k are row-independent).
ROW_CHUNK = 256

#: One shard-group scan job: (luts (g, M, CB), codes (n, M), ids (n,), k).
ScanJob = Tuple[np.ndarray, np.ndarray, np.ndarray, int]
#: Per-row output of a job: [(ids_k, dists_k)] in LUT row order.
ScanRows = List[Tuple[np.ndarray, np.ndarray]]

#: Planner thresholds: minimum LUT-entry gathers in a round before the
#: pool's IPC overhead pays for itself, and minimum same-round jobs
#: before the stacked fast path beats the per-group loop.
POOL_MIN_POINTS = 1 << 16
VECTOR_MIN_JOBS = 2

#: Seconds a blocking warm-up wait (explicit ``plan="pool"``) allows
#: before degrading to the serial path.
WARMUP_TIMEOUT_S = 10.0


def scan_shard_group(
    luts: np.ndarray,
    codes: np.ndarray,
    ids: np.ndarray,
    k: int,
    row_chunk: int = ROW_CHUNK,
    backend: Optional[KernelBackend] = None,
) -> ScanRows:
    """DC + TS over one shard group, chunked over LUT rows.

    The single functional scan path: the serial executor, the worker
    processes, and :meth:`PimSystem.run_batch` all funnel through this
    function — and through the same
    :meth:`~repro.pim.backend.KernelBackend.scan_topk` selection rule —
    which is what makes parallel execution bit-exact by construction.
    ``backend=None`` resolves the process default (``auto``).
    """
    if backend is None:
        backend = resolve_backend("auto")
    rows: ScanRows = []
    for c0 in range(0, len(luts), row_chunk):
        rows.extend(backend.scan_topk(luts[c0 : c0 + row_chunk], codes, ids, k))
    return rows


#: Byte budget for one stacked DC gather tensor ``(J, g, n, M)`` in the
#: vectorized fast path; bounds transient memory without affecting
#: results (jobs are independent).
_STACK_CHUNK_BYTES = 64 * 1024 * 1024


def scan_jobs_stacked(
    jobs: Sequence[ScanJob],
    backend: Optional[KernelBackend] = None,
) -> List[ScanRows]:
    """Cross-DPU vectorized scan: same-shape jobs in single kernel calls.

    Jobs are bucketed by ``(lut shape, code shape, dtypes, k)``; each
    bucket's LUTs and codes are stacked and scanned with one
    :meth:`~repro.pim.backend.KernelBackend.scan_stacked` dispatch
    instead of J separate kernel calls — the host-side analogue of
    launching one kernel across every DPU at once. Per-job results are
    bit-identical to :func:`scan_shard_group` (the stacked gather and
    reduction are elementwise/row-independent, and clusters large
    enough for the chunked top-k path are excluded from stacking so
    every path applies the same selection rule), so this is purely a
    wall-clock strategy. Odd-shaped or oversized jobs fall back to the
    per-group scan; results come back in submission order.
    """
    if backend is None:
        backend = resolve_backend("auto")
    results: List[ScanRows] = [None] * len(jobs)  # type: ignore[list-item]
    buckets: Dict[tuple, List[int]] = {}
    for ji, (luts, codes, _ids, k) in enumerate(jobs):
        key = (luts.shape, codes.shape, luts.dtype.str, codes.dtype.str, k)
        buckets.setdefault(key, []).append(ji)
    for (lshape, cshape, _, _, k), idxs in buckets.items():
        g = lshape[0]
        n, m = cshape
        per_job = g * n * m * 8
        if (
            len(idxs) < 2
            or per_job > _STACK_CHUNK_BYTES
            or n > SCAN_TOPK_N_CHUNK
        ):
            for ji in idxs:
                luts_j, codes_j, ids_j, k_j = jobs[ji]
                results[ji] = scan_shard_group(
                    luts_j, codes_j, ids_j, k_j, backend=backend
                )
            continue
        step = max(1, _STACK_CHUNK_BYTES // max(per_job, 1))
        for c0 in range(0, len(idxs), step):
            sel = idxs[c0 : c0 + step]
            luts_s = np.stack([jobs[ji][0] for ji in sel])
            codes_s = np.stack([jobs[ji][1] for ji in sel])
            dists = backend.scan_stacked(luts_s, codes_s)
            for off, ji in enumerate(sel):
                results[ji] = topk_rows(dists[off], jobs[ji][2], k)
    return results


# ---------------------------------------------------------------------------
# Shared-memory arena + leak tracking
# ---------------------------------------------------------------------------

#: Segment names created (and thus owned) by this process, still live.
_TRACKED_SEGMENTS: set = set()
_SWEEP_REGISTERED = False


def _track_segment(name: str) -> None:
    global _SWEEP_REGISTERED
    _TRACKED_SEGMENTS.add(name)
    if not _SWEEP_REGISTERED:
        atexit.register(_sweep_segments)
        _SWEEP_REGISTERED = True


def _untrack_segment(name: str) -> None:
    _TRACKED_SEGMENTS.discard(name)


def _sweep_segments() -> None:
    """atexit last resort: unlink any segment close() never reached."""
    from multiprocessing import shared_memory

    for name in sorted(_TRACKED_SEGMENTS):
        try:
            seg = shared_memory.SharedMemory(name=name)
            seg.close()
            seg.unlink()
        except FileNotFoundError:
            pass
        except Exception:
            pass
        _untrack_segment(name)


def leaked_segment_names() -> Tuple[str, ...]:
    """Shared-memory segments this process created and has not unlinked."""
    return tuple(sorted(_TRACKED_SEGMENTS))


def assert_no_leaked_segments() -> None:
    """Raise if any arena segment created here is still linked.

    Usable from tests after ``engine.close()`` / ``pool.close()`` to
    prove the unlink guarantee holds.
    """
    leaked = leaked_segment_names()
    if leaked:
        raise AssertionError(
            f"leaked shared-memory segments: {', '.join(leaked)}"
        )


def _san_record(kind: str, segment: str, key: Optional[str] = None) -> None:
    """Report an arena lifecycle event to the drimsan recorder.

    A no-op unless :func:`repro.analysis.sanitizer.enable` armed the
    recorder in this process (the import is lazy, so the data plane
    never pays for the analysis package on un-sanitized runs).
    """
    from repro.analysis import sanitizer

    if sanitizer.active():
        sanitizer.record_event(kind, segment, key)


def _san_clock():
    """Vector-clock snapshot to piggyback on a pipe message (or None)."""
    from repro.analysis import sanitizer

    return sanitizer.clock_snapshot() if sanitizer.active() else None


def _san_merge(clock) -> None:
    """Fold a received message's clock slot into ours (None = inactive)."""
    if clock is None:
        return
    from repro.analysis import sanitizer

    sanitizer.merge_clock(clock)


def _san_spool():
    """Spool directory for worker-side events (None when disarmed)."""
    from repro.analysis import sanitizer

    return sanitizer.spool_dir() if sanitizer.active() else None


def _detach_from_resource_tracker(shm) -> None:
    """Stop a *worker-side* attach from being torn down by the tracker.

    CPython's resource tracker unlinks every shared-memory segment a
    process registered when that process exits (bpo-38119) — correct
    for owners, destructive for *spawned* workers that merely attached
    to the parent's arena (a spawned child gets its own tracker).
    Unregistering the attach leaves lifetime management to the owning
    parent (plus the atexit sweep). Forked workers share the parent's
    tracker, where the attach-side register is an idempotent no-op and
    unregistering here would instead erase the parent's own
    registration — so callers skip this under fork.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


class SharedShardArena:
    """One shared-memory segment packing every shard's codes and ids.

    Layout: arrays are copied back-to-back at 16-byte-aligned offsets;
    the manifest maps ``array key -> (offset, shape, dtype str)`` and is
    the only thing workers need (beyond the segment name) to rebuild
    zero-copy NumPy views. The creating process owns the segment and is
    responsible for :meth:`close` (which unlinks); workers attach with
    :meth:`attach` and close without unlinking.
    """

    _ALIGN = 16

    def __init__(self, shm, manifest: Dict[str, tuple], owner: bool) -> None:
        self._shm = shm
        self.manifest = manifest
        self.owner = owner
        self._closed = False

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def nbytes(self) -> int:
        return self._shm.size

    @classmethod
    def create(cls, arrays: Dict[str, np.ndarray]) -> "SharedShardArena":
        from multiprocessing import shared_memory

        manifest: Dict[str, tuple] = {}
        offset = 0
        prepared: Dict[str, np.ndarray] = {}
        for key, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            prepared[key] = arr
            manifest[key] = (offset, arr.shape, arr.dtype.str)
            offset += arr.nbytes
            offset += (-offset) % cls._ALIGN
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        _track_segment(shm.name)
        _san_record("create", shm.name)
        for key, arr in prepared.items():
            off, shape, dtype = manifest[key]
            if arr.nbytes:
                dst = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
                dst[...] = arr
                del dst
            _san_record("write", shm.name, key)
        return cls(shm, manifest, owner=True)

    @classmethod
    def attach(
        cls, name: str, manifest: Dict[str, tuple], untrack: bool = True
    ) -> "SharedShardArena":
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        try:
            if untrack:
                _detach_from_resource_tracker(shm)
            _san_record("attach", shm.name)
            return cls(shm, dict(manifest), owner=False)
        except BaseException:
            shm.close()
            raise

    def view(self, key: str) -> np.ndarray:
        """Zero-copy read-only view of one array in the segment."""
        # Recorded before any validity check so the sanitizer observes
        # even (especially) views taken against a dead mapping.
        _san_record("view", self._shm.name, key)
        off, shape, dtype = self.manifest[key]
        arr = np.ndarray(shape, dtype=dtype, buffer=self._shm.buf, offset=off)
        arr.flags.writeable = False
        return arr

    def close(self) -> None:
        """Release the local mapping; the owner also unlinks.

        Views from :meth:`view` must be dropped first — the mapping
        goes away with the close, so a surviving view dereferences
        unmapped memory (the worker loop clears its view cache before
        closing for exactly this reason). A leaked view never blocks
        the unlink, so the no-leak guarantee holds regardless.
        """
        if self._closed:
            return
        self._closed = True
        _san_record("close", self._shm.name)
        try:
            self._shm.close()
        except BufferError:
            # Some CPython versions refuse to close a mapping with
            # exported buffers; the unlink below still detaches the
            # name so nothing leaks past process exit.
            pass
        if self.owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
            _san_record("unlink", self._shm.name)
            _untrack_segment(self._shm.name)

    def __enter__(self) -> "SharedShardArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Worker loop
# ---------------------------------------------------------------------------

def _pool_worker(
    conn,
    arena_name: str,
    manifest: Dict[str, tuple],
    untrack: bool,
    san_spool: Optional[str] = None,
    san_clock=None,
    backend_mode: str = "auto",
) -> None:
    """Persistent worker: attach the arena once, scan until told to stop.

    Every pipe message in both directions carries a trailing
    vector-clock slot (None on un-sanitized runs); ``san_spool`` /
    ``san_clock`` arm the drimsan recorder in this process, seeded with
    the owner's clock at spawn so the arena ``publish`` is ordered
    before our ``attach``.

    The kernel backend is chosen per process from ``backend_mode`` and
    warmed (JIT compilation for compiled backends) before the warmup
    ping is answered, so the pool's ``ready()`` already implies
    compiled kernels — first queries never eat compile time. Results
    are bit-identical across backends, so a per-round override in the
    parent never needs to reach the workers.
    """
    if san_spool is not None:
        from repro.analysis import sanitizer

        sanitizer.worker_init(san_spool, san_clock)
    backend = resolve_backend(backend_mode)
    backend.warmup()
    arena = None
    views: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    try:
        arena = SharedShardArena.attach(arena_name, manifest, untrack=untrack)
        while True:
            msg = conn.recv()
            tag = msg[0]
            _san_merge(msg[-1])
            if tag == "scan":
                out: List[ScanRows] = []
                for key, luts, k, live in msg[1]:
                    # ``live`` is the live-row filter for shards with
                    # tombstones (None = every row): resident arrays keep
                    # the full rows, deletions apply at scan time.
                    pair = views.get(key)
                    if pair is None:
                        pair = (
                            arena.view(f"codes:{key}"),
                            arena.view(f"ids:{key}"),
                        )
                        views[key] = pair
                    codes, ids = pair
                    if live is not None:
                        codes = codes[live]
                        ids = ids[live]
                    out.append(
                        scan_shard_group(luts, codes, ids, k, backend=backend)
                    )
                conn.send(("rows", out, _san_clock()))
            elif tag == "ping":
                conn.send(("pong", _san_clock()))
            elif tag == "stop":
                break
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    except Exception as exc:  # pragma: no cover - defensive
        try:
            conn.send(("error", repr(exc), _san_clock()))
        except Exception:
            pass
    finally:
        if arena is not None:
            views.clear()
            arena.close()
        if san_spool is not None:
            from repro.analysis import sanitizer

            sanitizer.flush_worker_events()
        try:
            conn.close()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------

class PersistentShardPool:
    """Persistent workers with zero-copy shard residency.

    Lifecycle: :meth:`host_shards` packs every shard's codes/ids into a
    :class:`SharedShardArena`; :meth:`ensure_started` spawns the
    workers (non-blocking — each attaches the arena once and answers a
    ping when ready); :meth:`scan_groups` ships only
    ``(shard_key, luts, k, live)`` descriptors per round and reassembles
    results in submission order. Any failure degrades to the in-process
    serial path — bit-identical results — and records a fallback event
    for the metrics layer (:meth:`take_fallback_events`).
    """

    def __init__(
        self, num_workers: int, backend_mode: str = "auto"
    ) -> None:
        if num_workers < 0:
            raise ValueError(f"num_workers must be >= 0, got {num_workers}")
        self.num_workers = num_workers
        #: Kernel-backend mode each worker resolves at spawn (see
        #: ``_pool_worker``): JIT warmup happens inside pool warmup.
        self.backend_mode = backend_mode
        self._arena: Optional[SharedShardArena] = None
        self._shard_keys: set = set()
        self._procs: list = []
        self._conns: list = []
        self._awaiting_pong: list = []
        self._warm = False
        self._broken = False
        self._fallback_events: List[str] = []
        # Serializes worker dispatch against teardown: close() from one
        # thread while a round is in flight on another waits the round
        # out instead of unlinking the arena under the workers.
        self._lock = threading.RLock()

    # ----- state ----------------------------------------------------------
    @property
    def parallel(self) -> bool:
        """Whether jobs can currently fan out to worker processes."""
        return self.num_workers > 1 and not self._broken

    @property
    def attached(self) -> bool:
        return self._arena is not None

    @property
    def started(self) -> bool:
        return bool(self._procs)

    def ready(self) -> bool:
        """Workers are warm: spawned, attached, and answering pings."""
        return self.parallel and self.started and self._poll_warm()

    def _note_fallback(self, reason: str) -> None:
        self._fallback_events.append(reason)

    def take_fallback_events(self) -> List[str]:
        """Drain fallback reasons recorded since the last call."""
        events, self._fallback_events = self._fallback_events, []
        return events

    # ----- residency ------------------------------------------------------
    def host_shards(
        self, shards: Dict[str, Tuple[np.ndarray, np.ndarray]]
    ) -> None:
        """(Re)build the arena from ``shard_key -> (codes, ids)``.

        Re-hosting after workers started restarts them against the new
        arena (index rebuild / late shard placement).
        """
        if self._broken:
            return
        if self.started:
            self._stop_workers()
        if self._arena is not None:
            self._arena.close()
            self._arena = None
        arrays: Dict[str, np.ndarray] = {}
        for key, (codes, ids) in shards.items():
            arrays[f"codes:{key}"] = codes
            arrays[f"ids:{key}"] = ids
        try:
            self._arena = SharedShardArena.create(arrays)
            self._shard_keys = set(shards)
        except Exception:
            self._broken = True
            self._note_fallback("arena-create")

    # ----- worker lifecycle ----------------------------------------------
    def ensure_started(self) -> None:
        """Spawn the workers if needed; returns without waiting for warmup."""
        if self._broken or self.started or not self.parallel:
            return
        if not self.attached:
            return
        try:
            import multiprocessing as mp

            methods = mp.get_all_start_methods()
            method = "fork" if "fork" in methods else "spawn"
            ctx = mp.get_context(method)
            # Forked workers share the parent's resource tracker, so the
            # attach must NOT unregister (it would erase the owner's
            # registration); spawned workers have their own tracker and
            # must unregister or it unlinks the arena at worker exit.
            untrack = method != "fork"
            _san_record("publish", self._arena.name)
            for _ in range(self.num_workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_pool_worker,
                    args=(
                        child_conn,
                        self._arena.name,
                        self._arena.manifest,
                        untrack,
                        _san_spool(),
                        _san_clock(),
                        self.backend_mode,
                    ),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                parent_conn.send(("ping", _san_clock()))
                self._procs.append(proc)
                self._conns.append(parent_conn)
                self._awaiting_pong.append(parent_conn)
        except Exception:
            self._mark_broken("spawn")

    def _poll_warm(self) -> bool:
        """Non-blocking warmup check: all spawned workers answered ping."""
        if self._warm:
            return True
        if not self.started:
            return False
        still = []
        for conn in self._awaiting_pong:
            try:
                if conn.poll(0):
                    msg = conn.recv()
                    if msg[0] != "pong":
                        self._mark_broken("warmup")
                        return False
                    _san_merge(msg[-1])
                else:
                    still.append(conn)
            except (EOFError, OSError):
                self._mark_broken("worker-death")
                return False
        self._awaiting_pong = still
        self._warm = not still
        return self._warm

    def wait_warm(self, timeout_s: float = WARMUP_TIMEOUT_S) -> bool:
        """Block until the workers are warm (or the timeout expires)."""
        import time

        self.ensure_started()
        deadline = time.monotonic() + timeout_s
        while not self._poll_warm():
            if self._broken or not self.started:
                return False
            if time.monotonic() >= deadline:
                self._note_fallback("warmup-timeout")
                return False
            time.sleep(0.001)
        return True

    def _mark_broken(self, reason: str) -> None:
        self._broken = True
        self._note_fallback(reason)
        self._stop_workers()

    def _stop_workers(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop", _san_clock()))
            except Exception:
                pass
        for proc in self._procs:
            try:
                proc.join(timeout=1.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
            except Exception:
                pass
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        self._procs = []
        self._conns = []
        self._awaiting_pong = []
        self._warm = False

    # ----- scanning -------------------------------------------------------
    def scan_groups(
        self,
        jobs: Sequence[ScanJob],
        keys: Sequence[str],
        lives: Sequence[Optional[np.ndarray]],
        backend: KernelBackend,
    ) -> List[ScanRows]:
        """Run jobs (possibly on the workers); results in submission order.

        ``keys`` aligns each job with its resident shard key and
        ``lives`` with its live-row filter — ``None`` entries mean every
        resident row is live; non-``None`` entries are the row indices
        that survive tombstoning, applied worker-side against the full
        resident arrays. Workers receive only ``(key, luts, k, live)``.
        Single jobs run in process; jobs without residency (unknown key,
        arena not hosted) and any pool failure degrade to in process and
        record a fallback event. In-process runs use ``backend``, the
        round's kernel backend, with identical results (the job arrays
        themselves are pre-filtered).
        """

        def inproc() -> List[ScanRows]:
            return [scan_shard_group(*job, backend=backend) for job in jobs]

        if not self.parallel or len(jobs) < 2:
            return inproc()
        if not self.attached or any(k not in self._shard_keys for k in keys):
            self._note_fallback("no-residency")
            return inproc()
        if not self.started:
            self.ensure_started()
        if not self.wait_warm():
            return inproc()
        with self._lock:
            # A concurrent close() may have torn the pool down between
            # the warmup check and here; the serial path is always safe.
            if not self._conns or not self.parallel:
                return inproc()
            # Contiguous round-robin split preserves submission order on
            # reassembly without an index shuffle.
            num = len(self._conns)
            bounds = np.linspace(0, len(jobs), num + 1).astype(int)
            try:
                sent = []
                for wi, conn in enumerate(self._conns):
                    lo, hi = bounds[wi], bounds[wi + 1]
                    if hi <= lo:
                        continue
                    payload = [
                        (keys[j], jobs[j][0], jobs[j][3], lives[j])
                        for j in range(lo, hi)
                    ]
                    conn.send(("scan", payload, _san_clock()))
                    sent.append(conn)
                results: List[ScanRows] = []
                for conn in sent:
                    msg = conn.recv()
                    if msg[0] != "rows":
                        raise RuntimeError(f"worker error: {msg[1:]}")
                    _san_merge(msg[-1])
                    results.extend(msg[1])
                return results
            except Exception:
                self._mark_broken("scan-failure")
                return inproc()

    # ----- teardown -------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and unlink the shared-memory arena.

        Safe (and idempotent) to call concurrently with an in-flight
        :meth:`scan_groups` round: the dispatch lock makes close wait
        the round out rather than unlinking the arena under the
        workers.
        """
        with self._lock:
            self._stop_workers()
            if self._arena is not None:
                self._arena.close()
                self._arena = None
            self._shard_keys = set()

    def __enter__(self) -> "PersistentShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort safety net
        try:
            self.close()
        except Exception:
            pass


def make_executor(
    shard_workers: int, kernel_backend: str = "auto"
) -> Optional[PersistentShardPool]:
    """The configured worker pool, or None when workers are disabled.

    ``kernel_backend`` is pinned per worker process at spawn.
    """
    if shard_workers <= 1:
        return None
    return PersistentShardPool(shard_workers, backend_mode=kernel_backend)


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------

#: Multiplier on :data:`POOL_MIN_POINTS` while the in-process backend
#: is compiled and no per-path throughput has been measured yet: a
#: compiled scan closes most of the gap the pool's parallelism buys,
#: so the IPC overhead only pays off on much larger rounds. Once both
#: paths have measured rates, the measurements decide instead.
COMPILED_POOL_FACTOR = 8

#: EMA weight of the newest measured round rate (points/second).
_THROUGHPUT_EMA = 0.3


@dataclass
class ExecutionPlanner:
    """Per-round choice between serial, vectorized, compiled, and pool.

    The choice is a pure wall-clock strategy: every path produces
    bit-identical results and charges identical cycles, so the planner
    is free to pick from measured round size, worker warmup state, and
    the active kernel backend. Heuristics (``plan="auto"``):

    * a warm pool takes rounds with at least :data:`POOL_MIN_POINTS`
      LUT-entry gathers and two or more shard groups — below that, IPC
      overhead dominates. With a compiled in-process backend the floor
      rises by :data:`COMPILED_POOL_FACTOR` until measured per-path
      throughput (fed back via :meth:`note_round`) settles the contest
      empirically;
    * a configured-but-cold pool is warmed in the background while the
      round runs in-process (no round ever blocks on worker spawn);
    * the stacked in-process path takes rounds with at least
      :data:`VECTOR_MIN_JOBS` groups — labeled ``"compiled"`` when the
      active backend is a compiled one, ``"vectorized"`` otherwise
      (same dispatch, different kernels). Fault plans do not change
      the choice: dead-DPU tasks are dropped before the functional
      pass, and faults are charged after it;
    * everything else runs serial.

    Explicit modes force their path, degrading one step (pool →
    vectorized → serial) when the forced path is unavailable.
    """

    decisions: Dict[str, int] = field(default_factory=dict)
    #: Measured LUT-entry gathers per second, EMA per decision path.
    throughput: Dict[str, float] = field(default_factory=dict)

    def note_round(
        self, path: str, scan_points: int, seconds: float
    ) -> None:
        """Feed back one round's measured scan rate for ``path``."""
        if scan_points <= 0 or seconds <= 0:
            return
        rate = scan_points / seconds
        prev = self.throughput.get(path)
        if prev is None:
            self.throughput[path] = rate
        else:
            self.throughput[path] = (
                (1.0 - _THROUGHPUT_EMA) * prev + _THROUGHPUT_EMA * rate
            )

    def choose(
        self,
        mode: str,
        *,
        num_jobs: int,
        scan_points: int,
        executor=None,
        backend=None,
    ) -> str:
        path = self._choose(
            mode,
            num_jobs=num_jobs,
            scan_points=scan_points,
            executor=executor,
            backend=backend,
        )
        self.decisions[path] = self.decisions.get(path, 0) + 1
        return path

    def _choose(self, mode, *, num_jobs, scan_points, executor, backend) -> str:
        can_vector = num_jobs >= VECTOR_MIN_JOBS
        compiled = backend is not None and getattr(backend, "compiled", False)
        inproc = "compiled" if compiled else "vectorized"
        if mode == "serial":
            return "serial"
        if mode == "vectorized":
            return "vectorized" if can_vector else "serial"
        if mode == "pool":
            if executor is not None and executor.parallel and num_jobs >= 2:
                return "pool"
            return inproc if can_vector else "serial"
        # auto
        if executor is not None and executor.parallel and num_jobs >= 2:
            if executor.ready():
                t_pool = self.throughput.get("pool")
                t_in = self.throughput.get(inproc)
                if t_pool is not None and t_in is not None:
                    # Both paths measured: let the rates arbitrate
                    # (still gated on the base floor — tiny rounds are
                    # all IPC no matter what the EMA says).
                    if t_pool > t_in and scan_points >= POOL_MIN_POINTS:
                        return "pool"
                else:
                    min_points = POOL_MIN_POINTS * (
                        COMPILED_POOL_FACTOR if compiled else 1
                    )
                    if scan_points >= min_points:
                        return "pool"
            else:
                # Warm the workers in the background; this round keeps
                # moving on the in-process paths.
                executor.ensure_started()
        if can_vector:
            return inproc
        return "serial"
