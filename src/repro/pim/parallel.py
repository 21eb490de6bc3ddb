"""The parallel data plane: persistent zero-copy workers for shard scans.

The compute plane in :mod:`repro.pim.system` spends almost all of its
wall-clock in the DC/TS phase: one exact product of each job's rows
(its tasks' residuals ``q - c``) with its data shard's decoded
residuals, reduced to per-task top-k. That work is embarrassingly
parallel across jobs (each touches one shard's residents and its own
rows), so large fleets can fan it out over worker processes —
mirroring how a real host would drive independent PIM ranks from
multiple threads.

The scan path, the one worker pool, and a planner live here:

* :func:`scan_jobs_stacked` — the one DC + TS path: every product job
  of a call computed into padded distance slabs by the host kernel
  (:meth:`~repro.pim.backend.NumpyBackend.product_scan_into`, equal to
  the staged reference scan of the task's LUTs), one canonical
  ``(distance, id)`` selection (:func:`~repro.pim.kernels.select_topk`)
  per slab, written into the call's ``(T, k)`` block.
  :func:`scan_shard_group`, the per-job scan the pool workers and the
  pool's in-process fallback run, is its one-job case, which makes
  both execution strategies bit-exact by construction.
* :class:`PersistentShardPool` — the worker pool. Workers are spawned
  once, attach every data shard's resident decoded residuals, point
  terms and ids through one :mod:`multiprocessing.shared_memory`
  segment (the arena), and keep them resident across rounds: the
  steady state ships only per-job descriptors ``(shard_key, rows,
  row terms, k, dead rows)`` down the pipe and each job's
  ``(ids, dists)`` top-k arrays back. Nothing MRAM-resident is ever
  re-pickled.
* :class:`ExecutionPlanner` — picks the in-process path or the pool
  per ``compute_tasks`` call from its measured size, the pool's warmup
  state and measured throughput. It is the system's own choice, not an
  option: the modeled hardware runs every kernel on every DPU either
  way.

Every pool failure (creation, worker death, missing residency) degrades
to the in-process path — results are identical either way — and is recorded
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
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.pim.backend import NumpyBackend, resolve_backend
from repro.pim.backend.numpy_backend import slab_rows
from repro.pim.kernels import select_topk
from repro.utils import check_count

#: One product job of :func:`scan_jobs_stacked`: ``(rows (g, D), decoded
#: (n, D), ids (n,), k, point terms (n,), row terms (g,), dead rows)``.
#: The rows (a compute-plane job's tasks' residuals ``q - c``) and a
#: data shard's decoded residuals share one exact product dtype; the
#: point terms are in a slab dtype (int32 or int64,
#: :func:`~repro.pim.backend.numpy_backend.slab_dtype`), the row terms
#: int64 and the dead rows ascending positions in ``[0, n)``, or None.
#: The pool ships a job as ``(shard_key, rows, row terms, k, dead
#: rows)``; its workers hold the rest.
ScanJob = Tuple[Any, ...]
#: A top-k block: ``(ids, dists)``, ``(rows, k)`` int64 ids and float64
#: distances, one row per job row, padded with ``-1`` / ``inf``.
JobTopk = Tuple[np.ndarray, np.ndarray]

#: Planner threshold: minimum scanned point-subspaces in a round before
#: the pool's IPC overhead pays for itself.
POOL_MIN_POINTS = 1 << 16

#: Seconds a blocking warm-up wait (:meth:`PersistentShardPool.wait_warm`)
#: allows before the round runs in process.
WARMUP_TIMEOUT_S = 10.0

#: Padding cells a round slab takes on before a wider job starts a new
#: slab: about what one more selection call costs in cell passes.
_SLAB_PAD_CELLS = 8192

#: The dtypes :func:`~repro.pim.backend.numpy_backend.product_dtype` picks.
_PRODUCT_DTYPES = tuple(map(np.dtype, (np.float32, np.float64, np.int64)))

#: The dtypes :func:`~repro.pim.backend.numpy_backend.slab_dtype` picks.
_SLAB_DTYPES = tuple(map(np.dtype, (np.int32, np.int64)))

#: A data shard's arrays in the arena, each under ``"{name}:{shard key}"``
#: (``decoded`` as its ``(D, n)`` transpose).
_RESIDENT = ("decoded", "pts", "ids")


def scan_shard_group(
    rows: np.ndarray,
    decoded: np.ndarray,
    ids: np.ndarray,
    k: int,
    point_terms: np.ndarray,
    row_terms: np.ndarray,
    dead: Optional[np.ndarray] = None,
    backend: Optional[NumpyBackend] = None,
) -> JobTopk:
    """DC + TS over one product job, checked: :func:`scan_jobs_stacked`
    of the one :data:`ScanJob` these arguments make up.

    The per-job scan the pool workers (and the pool's in-process
    fallback) run; returns the job's ``(g, k)`` block. ``rows`` must be
    ``(g, D)`` and ``decoded`` ``(n, D)`` in one product dtype, ``ids``
    ``(n,)``, ``point_terms`` ``(n,)`` in a slab dtype, int32 or int64
    (int32 asserts :func:`~repro.pim.backend.numpy_backend.slab_dtype`'s
    bound for these operands), ``row_terms`` ``(g,)`` int64, and
    ``dead`` strictly ascending rows in ``[0, n)`` or None; a wrong
    shape or range raises :class:`ValueError` and a wrong dtype
    :class:`TypeError`, each naming the operand, and a bad ``k`` what
    :func:`~repro.utils.check_count` raises. ``backend=None`` takes the
    process-wide kernels.
    """
    rows, decoded = np.asarray(rows), np.asarray(decoded)
    point_terms, row_terms = np.asarray(point_terms), np.asarray(row_terms)
    if rows.ndim != 2:
        raise ValueError(f"rows must be (g, D), got {rows.shape}")
    if decoded.ndim != 2 or decoded.shape[1] != rows.shape[1]:
        raise ValueError(f"decoded must be (n, {rows.shape[1]}), got {decoded.shape}")
    if rows.dtype not in _PRODUCT_DTYPES:
        raise TypeError(f"rows must be float32, float64 or int64, got {rows.dtype}")
    if decoded.dtype != rows.dtype:
        raise TypeError(
            f"decoded must share the rows' product dtype {rows.dtype}, "
            f"got {decoded.dtype}"
        )
    n = len(decoded)
    for name, arr, want in (
        ("ids", ids, n), ("point_terms", point_terms, n), ("row_terms", row_terms, len(rows)),
    ):
        if np.shape(arr) != (want,):
            raise ValueError(f"{name} must be ({want},), got {np.shape(arr)}")
    if point_terms.dtype not in _SLAB_DTYPES:
        raise TypeError(f"point_terms must be int32 or int64, got {point_terms.dtype}")
    if row_terms.dtype != np.int64:
        raise TypeError(f"row_terms must be int64, got {row_terms.dtype}")
    if dead is not None:
        dead = np.asarray(dead)
        if dead.dtype.kind not in "iu":
            raise TypeError(f"dead must be integer rows, got {dead.dtype}")
        if dead.ndim != 1 or len(dead) and (
            dead[0] < 0 or dead[-1] >= n or np.count_nonzero(dead[1:] <= dead[:-1])
        ):
            raise ValueError(f"dead must be strictly ascending 1-D rows in [0, {n})")
    check_count(k, "k")
    job = (rows, decoded, ids, k, point_terms, row_terms, dead)
    return scan_jobs_stacked([job], backend=backend)


def scan_jobs_stacked(
    jobs: Sequence[ScanJob],
    backend: Optional[NumpyBackend] = None,
) -> JobTopk:
    """The in-process DC + TS of a whole round, into one top-k block.

    ``jobs`` are :data:`ScanJob` tuples with one ``k``. A row's
    distance to a point is the point's term minus twice their product
    (:meth:`~repro.pim.backend.NumpyBackend.product_scan_into`) plus the
    row's term, and a dead point is never a candidate. Returns the
    call's ``(ids, dists)`` block: ``(T, k)`` int64 ids and float64
    distances, ``T`` the jobs' summed rows in submission order,
    padded with ``-1`` / ``inf`` past a job's live points. A row
    depends only on its job, never on the others.

    The jobs' rows are computed straight into padded distance slabs
    with the point terms added, in the jobs' one point-term dtype, int32
    or int64 (:func:`~repro.pim.backend.numpy_backend.slab_dtype`; jobs
    that disagree raise :class:`ValueError`), padding cells, and then
    dead points' cells, holding its largest value, above every
    distance; each slab gets one canonical ``(distance, id)`` selection,
    :func:`~repro.pim.kernels.select_topk` (a row term cannot reorder
    its row, so it is added to the selected distances only), written
    straight into the block. A slab stays within
    :data:`~repro.pim.backend.numpy_backend.LUT_CHUNK_BYTES`, counted
    at :func:`_slab_cell_bytes` per cell (a job
    splits across slabs when it must) and is as wide as its widest
    job, so jobs fill slabs in ascending ``n``: a wider job starts a
    new slab once it would pad the rows already there by more than
    :data:`_SLAB_PAD_CELLS` cells. Selection is row by row, so the
    slab layout never changes a value.
    """
    if backend is None:
        backend = resolve_backend()
    if not jobs:
        return np.empty((0, 0), dtype=np.int64), np.empty((0, 0))
    k = jobs[0][3]
    if any(job[3] != k for job in jobs):
        raise ValueError("every job of a block must share one k")
    starts = np.cumsum([0] + [len(job[0]) for job in jobs])
    slab = jobs[0][4].dtype
    if any(job[4].dtype != slab for job in jobs):
        raise ValueError("every job of a block must share one point-term dtype")
    cell_bytes = _slab_cell_bytes(slab, max(job[0].dtype.itemsize for job in jobs))
    out_ids = np.full((int(starts[-1]), k), -1, dtype=np.int64)
    out_dists = np.full((int(starts[-1]), k), np.inf)
    # A slab is a run of (job, first row, end row) pieces.
    pieces: List[Tuple[int, int, int]] = []
    rows = width = 0

    def flush() -> None:
        nonlocal pieces, rows
        _select_slab(
            jobs, pieces, starts, rows, width, slab, backend, out_ids, out_dists
        )
        pieces, rows = [], 0

    for ji in sorted(range(len(jobs)), key=lambda j: jobs[j][1].shape[0]):
        g, n = len(jobs[ji][0]), jobs[ji][1].shape[0]
        if rows * (n - width) > _SLAB_PAD_CELLS:
            flush()
        r0 = 0
        while r0 < g:
            fit = slab_rows(cell_bytes * max(n, 1)) - rows
            if fit <= 0:
                flush()
                continue
            take = min(g - r0, fit)
            pieces.append((ji, r0, r0 + take))
            rows += take
            width = n
            r0 += take
    flush()
    return out_ids, out_dists


def _slab_cell_bytes(slab: np.dtype, product_itemsize: int) -> int:
    """Transient bytes per cell of a round slab: the distance and its
    ``np.partition`` copy in the ``slab`` dtype, the boolean candidate
    mask, and the product's ``(g, n)`` temporary (4 B in float32, 8 in
    float64 or int64)."""
    return 2 * slab.itemsize + 1 + product_itemsize


def _select_slab(
    jobs: Sequence[ScanJob],
    pieces: Sequence[Tuple[int, int, int]],
    starts: np.ndarray,
    rows: int,
    width: int,
    slab: np.dtype,
    backend: NumpyBackend,
    out_ids: np.ndarray,
    out_dists: np.ndarray,
) -> None:
    """Compute one slab's pieces into a padded ``(rows, width)`` block
    of dtype ``slab`` and write its canonical top-k, dead points
    masked, to their rows of ``out_ids`` / ``out_dists`` (``starts``:
    each job's first row)."""
    if not rows or not width:
        return  # empty shards only: their rows stay padding
    # Above every distance: padding sorts after every real candidate.
    pad_value = np.iinfo(slab).max
    block = np.full((rows, width), pad_value, dtype=slab)
    row = 0
    for ji, r0, r1 in pieces:
        lhs, decoded, ids, _, point_terms, _, dead = jobs[ji]
        dists = block[row : row + r1 - r0, : len(ids)]
        backend.product_scan_into(lhs[r0:r1], decoded, point_terms, dists)
        if dead is not None:
            dists[:, dead] = pad_value  # never selected ahead of a live row
        row += r1 - r0
    # Block row -> round-block row: each piece's rows are a run there.
    lens = np.array([r1 - r0 for _, r0, r1 in pieces])
    first = np.array([starts[ji] + r0 for ji, r0, _ in pieces])
    dest = np.repeat(first - (np.cumsum(lens) - lens), lens) + np.arange(rows)
    id_runs = [jobs[ji][2] for ji, _, _ in pieces]
    run_start = np.cumsum([0] + [len(ids) for ids in id_runs[:-1]])
    sel_ids, sel_dists = select_topk(
        block, np.concatenate(id_runs), np.repeat(run_start, lens), out_ids.shape[1]
    )
    pad = sel_dists == pad_value
    row_terms = np.concatenate([jobs[ji][5][r0:r1] for ji, r0, r1 in pieces])
    sel_dists = sel_dists + row_terms[:, None]
    width_k = sel_ids.shape[1]
    out_ids[dest, :width_k] = np.where(pad, -1, sel_ids)
    out_dists[dest, :width_k] = np.where(pad, np.inf, sel_dists)


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
    """One shared-memory segment packing every data shard's resident
    arrays (decoded residuals, point terms and ids).

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
) -> None:
    """Persistent worker: attach the arena once, scan until told to stop.

    Every pipe message in both directions carries a trailing
    vector-clock slot (None on un-sanitized runs); ``san_spool`` /
    ``san_clock`` arm the drimsan recorder in this process, seeded with
    the owner's clock at spawn so the arena ``publish`` is ordered
    before our ``attach``. Scans run on the same NumPy kernels as the
    parent's in-process rounds.
    """
    if san_spool is not None:
        from repro.analysis import sanitizer

        sanitizer.worker_init(san_spool, san_clock)
    arena = None
    views: Dict[str, Tuple[np.ndarray, ...]] = {}
    try:
        arena = SharedShardArena.attach(arena_name, manifest, untrack=untrack)
        while True:
            msg = conn.recv()
            tag = msg[0]
            _san_merge(msg[-1])
            if tag == "scan":
                out: List[JobTopk] = []
                for key, rows, row_terms, k, dead in msg[1]:
                    # The arena holds every stored row; the job's dead
                    # rows are masked at scan time.
                    resident = views.get(key)
                    if resident is None:
                        resident = tuple(
                            arena.view(f"{name}:{key}") for name in _RESIDENT
                        )
                        views[key] = resident
                    decoded_t, pts, ids = resident
                    out.append(scan_shard_group(
                        rows, decoded_t.T, ids, k, pts, row_terms, dead
                    ))
                conn.send(("topk", out, _san_clock()))
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

    Lifecycle: :meth:`host_shards` packs every data shard's resident
    decoded residuals, point terms and ids into a
    :class:`SharedShardArena`; :meth:`ensure_started` spawns the
    workers (non-blocking — each attaches the arena once and answers a
    ping when ready); :meth:`scan_groups` ships only ``(shard_key,
    rows, row terms, k, dead rows)`` descriptors per round and
    reassembles results in submission order. Any failure degrades to
    the in-process per-job scan — bit-identical results — and records
    a fallback event for the metrics layer
    (:meth:`take_fallback_events`).
    """

    def __init__(self, num_workers: int) -> None:
        if num_workers < 0:
            raise ValueError(f"num_workers must be >= 0, got {num_workers}")
        self.num_workers = num_workers
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
        self, shards: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> None:
        """(Re)build the arena from ``shard_key -> (decoded, point terms,
        ids)``, a data shard's :data:`ScanJob` operands over its stored
        rows. The arena holds ``decoded`` as its ``(D, n)`` transpose, so
        the workers' products read it column-major, as the host's do.

        Re-hosting after workers started restarts them against the new
        arena (index rebuild, late shard placement, new rows or
        codebooks).
        """
        if self._broken:
            return
        if self.started:
            self._stop_workers()
        if self._arena is not None:
            self._arena.close()
            self._arena = None
        arrays: Dict[str, np.ndarray] = {}
        for key, (decoded, pts, ids) in shards.items():
            for name, arr in zip(_RESIDENT, (decoded.T, pts, ids)):
                arrays[f"{name}:{key}"] = arr
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
        backend: NumpyBackend,
    ) -> List[JobTopk]:
        """Run product jobs (possibly on the workers); results in
        submission order.

        ``keys`` aligns each :data:`ScanJob` with the arena key its
        data shard's residents are hosted under (:meth:`host_shards`).
        Workers receive only ``(key, rows, row terms, k, dead rows)``
        and scan the residents they hold. Single jobs run in process;
        jobs without residency (unknown key, arena not hosted) and any
        pool failure degrade to in process and record a fallback event.
        In-process runs scan the jobs' own arrays on ``backend``, with
        identical results.
        """

        def inproc() -> List[JobTopk]:
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
            # the warmup check and here; the in-process scan is always
            # safe.
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
                        (keys[j], jobs[j][0], jobs[j][5], jobs[j][3], jobs[j][6])
                        for j in range(lo, hi)
                    ]
                    conn.send(("scan", payload, _san_clock()))
                    sent.append(conn)
                results: List[JobTopk] = []
                for conn in sent:
                    msg = conn.recv()
                    if msg[0] != "topk":
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


def make_executor(shard_workers: int) -> Optional[PersistentShardPool]:
    """The configured worker pool, or None when workers are disabled."""
    if shard_workers <= 1:
        return None
    return PersistentShardPool(shard_workers)


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------

#: EMA weight of the newest measured round rate (points/second).
_THROUGHPUT_EMA = 0.3


@dataclass
class ExecutionPlanner:
    """Per-round choice between the in-process scan and the worker pool.

    The choice is a pure wall-clock strategy: both paths produce
    bit-identical results and charge identical cycles, so the planner
    is free to pick from measured round size, worker warmup state, and
    measured throughput:

    * a warm pool takes rounds with at least :data:`POOL_MIN_POINTS`
      scanned point-subspaces and two or more jobs — below that, IPC
      overhead dominates. Once both paths have a measured rate (fed
      back via :meth:`note_round`, keyed ``"pool"`` and
      ``"vectorized"``), the rates settle the contest empirically;
    * a configured-but-cold pool is warmed in the background while the
      round runs in process (no round ever blocks on worker spawn);
    * every other round runs in process, on :func:`scan_jobs_stacked`,
      labelled ``"vectorized"``. Fault plans do not change the choice:
      dead-DPU tasks are dropped before the functional pass, and faults
      are charged after it.
    """

    decisions: Dict[str, int] = field(default_factory=dict)
    #: Measured scanned point-subspaces per second, EMA per path
    #: (``"pool"`` / ``"vectorized"``).
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
        *,
        num_jobs: int,
        scan_points: int,
        executor=None,
    ) -> str:
        path = "vectorized"
        if executor is not None and executor.parallel and num_jobs >= 2:
            if not executor.ready():
                # Warm the workers in the background; this round keeps
                # moving in process.
                executor.ensure_started()
            elif self._pool_wins(scan_points):
                path = "pool"
        self.decisions[path] = self.decisions.get(path, 0) + 1
        return path

    def _pool_wins(self, scan_points: int) -> bool:
        t_pool = self.throughput.get("pool")
        t_in = self.throughput.get("vectorized")
        if t_pool is not None and t_in is not None:
            # Both paths measured: let the rates arbitrate (still gated
            # on the base floor — tiny rounds are all IPC no matter
            # what the EMA says).
            return t_pool > t_in and scan_points >= POOL_MIN_POINTS
        return scan_points >= POOL_MIN_POINTS
