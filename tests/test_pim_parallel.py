"""The parallel data plane: bit-exact scans, graceful degradation.

Both scan paths (the persistent zero-copy pool and the stacked
in-process scan) run the same product jobs and must be pure
wall-clock strategies: taking one cannot change a single output bit,
no failure (creation, worker death, missing residency) may surface
past ``scan_groups``, and every degradation must leave a fallback
event for the metrics layer. The shared-memory arena additionally
guarantees its segment is unlinked on close — checkable via
:func:`assert_no_leaked_segments`.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pim.kernels import (
    run_lut_build,
    scan_distances,
    scan_distances_stacked,
    topk_rows,
)
from repro.pim import parallel
from repro.pim.backend import numpy_backend, resolve_backend
from repro.pim.backend.numpy_backend import CodebookTerms, decode_table, gather_offsets
from repro.pim.parallel import (
    POOL_MIN_POINTS,
    ExecutionPlanner,
    PersistentShardPool,
    SharedShardArena,
    assert_no_leaked_segments,
    leaked_segment_names,
    make_executor,
    scan_jobs_stacked,
    scan_shard_group,
)
from repro.testing import CANONICAL_CONFIGS, build_canonical_engine, canonical_dataset


def _job(books, cent, queries, codes, ids, k, dead=None):
    """A product job over ``codes`` decoded by ``books`` in a cluster
    with centroid ``cent``, as the compute plane builds it (its rows the
    residuals ``q - c``, its point terms ``||B||^2``), and its staged
    oracle: the ``(g, n)`` int64 ``scan_distances`` of
    ``run_lut_build``'s LUTs of the residuals."""
    backend, terms = resolve_backend(), CodebookTerms(books)
    table = decode_table(terms, 255)
    off = gather_offsets(codes, books.shape[1])
    decoded = backend.decode(off, table)
    pts = backend.point_norms(off, terms)
    res = queries.astype(np.int64) - cent
    job = (
        res.astype(table.dtype), decoded, ids, k, pts,
        np.einsum("td,td->t", res, res), dead,
    )
    luts, _ = run_lut_build(res.astype(np.int32), books)
    return job, scan_distances(luts, codes)


def _cases(rng, n_jobs=3, g=7, n=50, k=5, m=4, cb=16, dsub=2):
    """Product jobs of random shards, each with its staged distances."""
    cases = []
    for _ in range(n_jobs):
        books = rng.integers(-60, 61, size=(m, cb, dsub)).astype(np.int16)
        cent = rng.integers(0, 256, size=m * dsub).astype(np.int64)
        queries = rng.integers(0, 256, size=(g, m * dsub)).astype(np.uint8)
        codes = rng.integers(0, cb, size=(n, m)).astype(np.uint8)
        ids = rng.permutation(10_000)[:n].astype(np.int64)
        cases.append(_job(books, cent, queries, codes, ids, k))
    return cases


def _jobs(rng, **kw):
    return [job for job, _ in _cases(rng, **kw)]


def _want(job, dists):
    """The staged per-job block: ``topk_rows`` over the live columns
    of the oracle distances, padded to ``k`` with ``-1`` / ``inf``."""
    ids, k, dead = job[2], job[3], job[6]
    live = np.delete(np.arange(len(ids)), [] if dead is None else dead)
    out_ids = np.full((len(dists), k), -1, dtype=np.int64)
    out_d = np.full((len(dists), k), np.inf)
    if len(live):
        top_ids, top_d = topk_rows(dists[:, live], ids[live], k)
        out_ids[:, : top_ids.shape[1]] = top_ids
        out_d[:, : top_d.shape[1]] = top_d
    return out_ids, out_d


def _assert_topk_equal(got, want):
    """Two jobs' ``(ids, dists)`` top-k arrays are equal."""
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


class TestScanShardGroup:
    def test_matches_unchunked_kernels(self, rng):
        (job, dists), = _cases(rng, n_jobs=1)
        _assert_topk_equal(scan_shard_group(*job), _want(job, dists))

    def test_block_form_pads_short_shards(self, rng):
        """A job over fewer than ``k`` points comes back ``(g, k)``:
        int64 ids and float64 distances, padded with ``-1`` / ``inf``."""
        (job, dists), = _cases(rng, n_jobs=1, n=3)
        got_ids, got_d = scan_shard_group(*job)
        want_ids, want_d = topk_rows(dists, job[2], 5)
        assert got_ids.dtype == np.int64 and got_d.dtype == np.float64
        assert got_ids.shape == got_d.shape == (len(job[0]), 5)
        np.testing.assert_array_equal(got_ids[:, :3], want_ids)
        np.testing.assert_array_equal(got_d[:, :3], want_d)
        assert (got_ids[:, 3:] == -1).all() and np.isinf(got_d[:, 3:]).all()

    def test_row_chunking_is_invisible(self, rng, monkeypatch):
        """Row slabs sized by the ``(rows, n)`` distance budget never
        change the ``(g, k)`` result."""
        (job, _), = _cases(rng, n_jobs=1, g=11)
        base = scan_shard_group(*job)
        assert base[0].shape == base[1].shape == (11, 5)
        for chunk in (1, 2, 3, 5, 11, 64):
            monkeypatch.setattr(
                numpy_backend, "LUT_CHUNK_BYTES", chunk * 17 * len(job[1])
            )
            _assert_topk_equal(scan_shard_group(*job), base)


def _scan(pool, jobs, keys, backend=None):
    """One pool round on ``backend`` (default: the process-wide
    kernels)."""
    if backend is None:
        backend = resolve_backend()
    return pool.scan_groups(jobs, keys, backend)


def _residents(keys, jobs):
    """``host_shards``' argument: each job's decoded residuals, point
    terms and ids under its key."""
    return {key: (job[1], job[4], job[2]) for key, job in zip(keys, jobs)}


class _SpyBackend:
    """Delegates to the NumPy backend and counts ``product_scan_into``
    calls."""

    def __init__(self):
        self.inner = resolve_backend()
        self.scans = 0

    def product_scan_into(self, *args, **kwargs):
        self.scans += 1
        return self.inner.product_scan_into(*args, **kwargs)


class TestPoolExecutor:
    """The shard executor ``make_executor`` builds for ``PimSystem``:
    construction, and degradation when the pool cannot run."""

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="num_workers"):
            PersistentShardPool(-1)

    @pytest.mark.parametrize("n", [0, 1])
    def test_make_executor_disabled(self, n):
        assert make_executor(n) is None

    def test_make_executor_enabled(self):
        ex = make_executor(2)
        assert isinstance(ex, PersistentShardPool) and ex.num_workers == 2

    def test_pool_creation_failure_degrades_to_serial(self, rng, monkeypatch):
        def refuse(arrays):
            raise OSError("no shared memory")

        monkeypatch.setattr(SharedShardArena, "create", refuse)
        jobs = _jobs(rng, n_jobs=3)
        keys = [f"s{i}" for i in range(len(jobs))]
        with make_executor(2) as ex:
            ex.host_shards(_residents(keys, jobs))
            assert ex._broken and not ex.parallel
            assert ex.take_fallback_events() == ["arena-create"]
            got = _scan(ex, jobs, keys)
        for g, j in zip(got, jobs):
            _assert_topk_equal(g, scan_shard_group(*j))

    def test_broken_pool_mid_flight_degrades_permanently(self, rng):
        class _DeadConn:
            def send(self, obj):
                raise BrokenPipeError("worker died")

            def close(self):
                pass

        jobs = _jobs(rng, n_jobs=3)
        keys = [f"s{i}" for i in range(len(jobs))]
        serial = [scan_shard_group(*j) for j in jobs]
        with make_executor(2) as ex:
            ex.host_shards(_residents(keys, jobs))
            assert ex.wait_warm()
            for conn in ex._conns:
                conn.close()  # the workers see EOF and exit
            ex._conns = [_DeadConn() for _ in ex._conns]
            got = _scan(ex, jobs, keys)
            assert ex.take_fallback_events() == ["scan-failure"]
            assert ex._broken and not ex.parallel and not ex.started
            for g, s in zip(got, serial):
                _assert_topk_equal(g, s)
            # subsequent calls stay serial and keep working
            again = _scan(ex, jobs, keys)
            assert not ex.take_fallback_events()
            for g, s in zip(again, serial):
                _assert_topk_equal(g, s)
        assert_no_leaked_segments()


def _serial_block(jobs):
    """Per-job ``scan_shard_group`` blocks stacked in submission order."""
    tops = [scan_shard_group(*job) for job in jobs]
    return np.concatenate([t[0] for t in tops]), np.concatenate([t[1] for t in tops])


def _want_block(cases):
    """The staged per-job blocks of ``(job, dists)`` cases, stacked."""
    tops = [_want(job, dists) for job, dists in cases]
    return np.concatenate([t[0] for t in tops]), np.concatenate([t[1] for t in tops])


class TestScanJobsStacked:
    def test_uniform_shapes_match_serial(self, rng):
        cases = _cases(rng, n_jobs=5)
        jobs = [job for job, _ in cases]
        got = scan_jobs_stacked(jobs)
        _assert_topk_equal(got, _serial_block(jobs))
        _assert_topk_equal(got, _want_block(cases))

    def test_mixed_shapes_match_serial(self, rng):
        """Jobs of any shape share one block in submission order; rows
        narrower than the block or than k come back padded."""
        cases = (
            _cases(rng, n_jobs=2, g=7, n=50)
            + _cases(rng, n_jobs=3, g=4, n=31)
            + _cases(rng, n_jobs=1, g=9, n=17)
            + _cases(rng, n_jobs=2, g=3, n=3)
            + _cases(rng, n_jobs=1, g=2, n=0)
        )
        shuffled = [cases[i] for i in rng.permutation(len(cases))]
        jobs = [job for job, _ in shuffled]
        got = scan_jobs_stacked(jobs)
        assert got[0].shape == got[1].shape == (sum(len(j[0]) for j in jobs), 5)
        _assert_topk_equal(got, _serial_block(jobs))
        _assert_topk_equal(got, _want_block(shuffled))

    def test_int32_point_terms_equal_the_staged_scan(self, rng, monkeypatch):
        """Jobs with int32 point terms run in int32 slabs and, with dead
        rows, padding and slabs split by a small budget, equal the
        staged scan."""
        cases = []
        for i, (job, dists) in enumerate(
            _cases(rng, n_jobs=3, n=50, k=12) + _cases(rng, n_jobs=2, g=4, n=9, k=12)
        ):
            dead = np.array([0, 3, 4]) if i < 3 else None
            cases.append(((*job[:4], job[4].astype(np.int32), job[5], dead), dists))
        jobs = [job for job, _ in cases]
        slabs = []
        real = parallel._select_slab

        def spy(*args):
            slabs.append(args[5])
            return real(*args)

        monkeypatch.setattr(parallel, "_select_slab", spy)
        monkeypatch.setattr(numpy_backend, "LUT_CHUNK_BYTES", 13 * 50 * 4)
        _assert_topk_equal(scan_jobs_stacked(jobs), _want_block(cases))
        assert len(slabs) > 1
        assert set(slabs) == {np.dtype(np.int32)}

    def test_mixed_point_term_dtypes_raise(self, rng):
        """A block's jobs share one slab dtype: int32 and int64 point
        terms in one call are a caller error."""
        jobs = _jobs(rng, n_jobs=2)
        jobs[1] = (*jobs[1][:4], jobs[1][4].astype(np.int32), *jobs[1][5:])
        with pytest.raises(ValueError, match="point-term dtype"):
            scan_jobs_stacked(jobs)

    def test_chunking_budget_is_invisible(self, rng, monkeypatch):
        jobs = _jobs(rng, n_jobs=6) + _jobs(rng, n_jobs=2, n=13)
        base = scan_jobs_stacked(jobs)
        # Tiny budgets: single-row slabs, and jobs split across slabs.
        for budget in (1, 17 * 50, 17 * 50 * 3, 4096):
            monkeypatch.setattr(numpy_backend, "LUT_CHUNK_BYTES", budget)
            _assert_topk_equal(scan_jobs_stacked(jobs), base)

    def test_slabs_sized_by_block(self, rng, monkeypatch):
        """A slab holds as many rows as its ``(rows, width)`` distance
        block and selection transients fit in the budget; a job splits
        across slabs when it must."""
        jobs = _jobs(rng, n_jobs=6)  # 6 jobs x 7 rows x 50 wide
        base = scan_jobs_stacked(jobs)
        # int64 point terms, a float32 product: 8 + 8 + 1 + 4 B a cell.
        cell = parallel._slab_cell_bytes(jobs[0][4].dtype, jobs[0][0].itemsize)
        assert cell == 21
        monkeypatch.setattr(numpy_backend, "LUT_CHUNK_BYTES", cell * 50 * 10)
        shapes = []
        real = parallel.select_topk

        def counting(dists, ids, owner, k):
            shapes.append(dists.shape)
            return real(dists, ids, owner, k)

        monkeypatch.setattr(parallel, "select_topk", counting)
        got = scan_jobs_stacked(jobs)
        assert shapes == [(10, 50)] * 4 + [(2, 50)]
        _assert_topk_equal(got, base)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shapes=st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 30)), min_size=1, max_size=5
        ),
        k=st.integers(1, 12),
        values=st.integers(1, 4),
        dead_frac=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    )
    def test_dead_rows_equal_a_scan_of_live_rows(
        self, seed, shapes, k, values, dead_frac
    ):
        """Jobs over stored rows with dead positions masked equal the
        canonical top-k over their live rows alone, ties included."""
        rng = np.random.default_rng(seed)
        jobs, live_jobs = [], []
        for g, n in shapes:
            books = rng.integers(0, values, size=(3, 4, 1)).astype(np.int16)
            queries = rng.integers(0, values, size=(g, 3)).astype(np.uint8)
            codes = rng.integers(0, 4, size=(n, 3)).astype(np.uint8)
            ids = rng.permutation(1000)[:n].astype(np.int64)
            dead = np.flatnonzero(rng.random(n) < dead_frac)
            live = np.setdiff1d(np.arange(n), dead)
            cent = np.zeros(3, dtype=np.int64)
            job, _ = _job(books, cent, queries, codes, ids, k)
            jobs.append(job[:-1] + (dead if len(dead) else None,))
            live_job, _ = _job(books, cent, queries, codes[live], ids[live], k)
            live_jobs.append(live_job)
        _assert_topk_equal(scan_jobs_stacked(jobs), _serial_block(live_jobs))

    def test_dead_row_never_displaces_a_tied_live_row(self):
        """A dead row whose id is below the k-th live candidate's, at the
        same distance, is never returned; the point terms set every
        distance here."""
        ids = np.array([10, 20, 5, 30], dtype=np.int64)
        pts = np.array([1, 2, 2, 3], dtype=np.int64)
        rows = np.zeros((1, 1), dtype=np.float32)
        decoded = np.zeros((4, 1), dtype=np.float32)
        zero = np.zeros(1, dtype=np.int64)
        got_ids, got_d = scan_jobs_stacked(
            [(rows, decoded, ids, 2, pts, zero, np.array([2]))]
        )
        np.testing.assert_array_equal(got_ids, [[10, 20]])
        np.testing.assert_array_equal(got_d, [[1.0, 2.0]])
        # Unmasked, the tie would pick the smaller id.
        got_ids, _ = scan_jobs_stacked([(rows, decoded, ids, 2, pts, zero, None)])
        np.testing.assert_array_equal(got_ids, [[10, 5]])

    @pytest.mark.parametrize("dead", [np.arange(6), np.array([0, 2, 3, 5])])
    def test_all_dead_or_few_live_rows_pad(self, rng, dead):
        """An all-dead shard, or one with fewer live rows than ``k``,
        pads its rows with ``-1`` / ``inf`` past its live candidates."""
        (job,) = _jobs(rng, n_jobs=1, g=3, n=6, k=4)
        (other,) = _jobs(rng, n_jobs=1, g=2, n=9, k=4)
        got_ids, got_d = scan_jobs_stacked([job[:-1] + (dead,), other])
        live = np.setdiff1d(np.arange(6), dead)
        assert got_ids.shape == got_d.shape == (5, 4)
        for r in range(3):
            assert set(got_ids[r, : len(live)].tolist()) == set(job[2][live].tolist())
            assert (got_ids[r, len(live):] == -1).all()
            assert np.isinf(got_d[r, len(live):]).all()
            assert np.isfinite(got_d[r, : len(live)]).all()
        _assert_topk_equal(
            (got_ids[3:], got_d[3:]), scan_jobs_stacked([other])
        )

    def test_one_k_per_block(self, rng):
        jobs = _jobs(rng, n_jobs=1, k=3) + _jobs(rng, n_jobs=1, k=4)
        with pytest.raises(ValueError, match="one k"):
            scan_jobs_stacked(jobs)

    def test_stacked_kernel_matches_per_job_kernel(self, rng):
        luts = rng.integers(0, 255, size=(3, 7, 8, 16)).astype(np.int64)
        codes = rng.integers(0, 16, size=(3, 50, 8)).astype(np.uint8)
        dists = scan_distances_stacked(luts, codes)
        for ji in range(3):
            np.testing.assert_array_equal(dists[ji], scan_distances(luts[ji], codes[ji]))


class TestSharedShardArena:
    def _arrays(self, rng):
        return {
            "codes:a": rng.integers(0, 16, size=(40, 8), dtype=np.uint8),
            "ids:a": rng.permutation(1000)[:40].astype(np.int64),
            "codes:b": rng.integers(0, 16, size=(7, 8), dtype=np.uint8),
            "ids:b": rng.permutation(1000)[:7].astype(np.int64),
        }

    def test_roundtrip_views_equal_inputs(self, rng):
        arrays = self._arrays(rng)
        with SharedShardArena.create(arrays) as arena:
            for key, arr in arrays.items():
                view = arena.view(key)
                np.testing.assert_array_equal(view, arr)
                assert not view.flags.writeable
        assert_no_leaked_segments()

    def test_attach_sees_owner_data(self, rng):
        arrays = self._arrays(rng)
        owner = SharedShardArena.create(arrays)
        try:
            # In-process attach with untrack=False models a forked
            # worker (shared resource tracker must not be poked).
            peer = SharedShardArena.attach(
                owner.name, owner.manifest, untrack=False
            )
            try:
                for key, arr in arrays.items():
                    np.testing.assert_array_equal(peer.view(key), arr)
            finally:
                peer.close()
        finally:
            owner.close()
        assert_no_leaked_segments()

    def test_close_unlinks_and_untracks(self, rng):
        arena = SharedShardArena.create(self._arrays(rng))
        assert arena.name in leaked_segment_names()
        arena.close()
        assert arena.name not in leaked_segment_names()
        arena.close()  # idempotent

    def test_close_with_live_views_still_unlinks(self, rng):
        """A leaked view cannot block the unlink guarantee.

        Dereferencing the view afterwards is undefined (the mapping is
        gone) — callers must drop views before close, as the worker
        loop does — but the segment name must not leak either way.
        """
        arena = SharedShardArena.create(self._arrays(rng))
        view = arena.view("codes:a")
        arena.close()
        assert_no_leaked_segments()
        del view


class TestPersistentShardPool:
    def _hosted_pool(self, rng, jobs, workers=2):
        pool = PersistentShardPool(workers)
        keys = [f"s{i}" for i in range(len(jobs))]
        pool.host_shards(_residents(keys, jobs))
        return pool, keys

    def test_fallbacks_run_the_rounds_backend(self, rng):
        """Single-job and no-residency rounds scan in process, on the
        backend the round passes (a counting spy here)."""
        jobs = _jobs(rng, n_jobs=3)
        want = [scan_shard_group(*j) for j in jobs]
        passed = _SpyBackend()
        pool, keys = self._hosted_pool(rng, jobs)
        with pool:
            got = _scan(pool, jobs[:1], keys[:1], passed)
            assert not pool.take_fallback_events()
            _assert_topk_equal(got[0], want[0])
            assert passed.scans == 1
            got = _scan(pool, jobs, ["nope"] * len(jobs), passed)
            assert pool.take_fallback_events() == ["no-residency"]
            for g, w in zip(got, want):
                _assert_topk_equal(g, w)
            assert passed.scans == 1 + len(jobs)

    def test_parity_with_serial(self, rng):
        jobs = _jobs(rng, n_jobs=5)
        serial = [scan_shard_group(*j) for j in jobs]
        pool, keys = self._hosted_pool(rng, jobs)
        with pool:
            assert pool.wait_warm()
            got = _scan(pool, jobs, keys)
        assert not pool.take_fallback_events()
        for g, s in zip(got, serial):
            _assert_topk_equal(g, s)
        assert_no_leaked_segments()

    def test_steady_state_reuses_workers(self, rng):
        jobs = _jobs(rng, n_jobs=4)
        serial = [scan_shard_group(*j) for j in jobs]
        pool, keys = self._hosted_pool(rng, jobs)
        with pool:
            first_procs = None
            for _ in range(3):
                got = _scan(pool, jobs, keys)
                for g, s in zip(got, serial):
                    _assert_topk_equal(g, s)
                pids = [p.pid for p in pool._procs]
                if first_procs is None:
                    first_procs = pids
                assert pids == first_procs  # no respawn between rounds

    def test_missing_residency_falls_back_and_records(self, rng):
        jobs = _jobs(rng, n_jobs=4)
        serial = [scan_shard_group(*j) for j in jobs]
        pool, keys = self._hosted_pool(rng, jobs)
        with pool:
            got = _scan(pool, jobs, ["nope"] * len(jobs))
            assert pool.take_fallback_events() == ["no-residency"]
            for g, s in zip(got, serial):
                _assert_topk_equal(g, s)

    def test_single_job_stays_in_process(self, rng):
        jobs = _jobs(rng, n_jobs=1)
        pool, keys = self._hosted_pool(rng, jobs)
        with pool:
            got = _scan(pool, jobs, keys)
            assert not pool.started  # never spun up for < 2 jobs
        assert len(got) == 1

    def test_worker_death_degrades_serially_and_records(self, rng):
        jobs = _jobs(rng, n_jobs=4)
        serial = [scan_shard_group(*j) for j in jobs]
        pool, keys = self._hosted_pool(rng, jobs)
        with pool:
            assert pool.wait_warm()
            for proc in pool._procs:
                proc.terminate()
                proc.join(timeout=2.0)
            got = _scan(pool, jobs, keys)
            events = pool.take_fallback_events()
            assert "scan-failure" in events or "worker-death" in events
            assert pool._broken and not pool.parallel
            for g, s in zip(got, serial):
                _assert_topk_equal(g, s)
            # subsequent rounds keep working serially
            again = _scan(pool, jobs, keys)
            for g, s in zip(again, serial):
                _assert_topk_equal(g, s)
        assert_no_leaked_segments()

    def test_rehost_restarts_workers(self, rng):
        jobs = _jobs(rng, n_jobs=4)
        pool, keys = self._hosted_pool(rng, jobs)
        with pool:
            assert pool.wait_warm()
            old_pids = [p.pid for p in pool._procs]
            jobs2 = _jobs(rng, n_jobs=3)
            keys2 = [f"t{i}" for i in range(len(jobs2))]
            pool.host_shards(_residents(keys2, jobs2))
            assert not pool.started  # stopped; restarted on demand
            got = _scan(pool, jobs2, keys2)
            new_pids = [p.pid for p in pool._procs]
            assert new_pids and new_pids != old_pids
            serial = [scan_shard_group(*j) for j in jobs2]
            for g, s in zip(got, serial):
                _assert_topk_equal(g, s)
        assert_no_leaked_segments()

    def test_close_is_idempotent_and_unlinks(self, rng):
        jobs = _jobs(rng, n_jobs=2)
        pool, _keys = self._hosted_pool(rng, jobs)
        pool.close()
        pool.close()
        assert_no_leaked_segments()


class TestExecutionPlanner:
    """Two paths remain: ``"vectorized"`` in process, or ``"pool"``."""

    def _warm_exec(self):
        class _Warm:
            parallel = True

            def ready(self):
                return True

            def ensure_started(self):
                pass

        return _Warm()

    def _cold_exec(self):
        class _Cold:
            parallel = True
            started = 0

            def ready(self):
                return False

            def ensure_started(self):
                self.started += 1

        return _Cold()

    def _choose(self, p, scan_points, executor=None, num_jobs=4):
        return p.choose(
            num_jobs=num_jobs, scan_points=scan_points, executor=executor
        )

    def test_pool_mode_degrades_without_executor(self):
        """Without a pool every round runs in process, whatever its size."""
        p = ExecutionPlanner()
        assert self._choose(p, 1 << 30) == "vectorized"
        assert self._choose(p, 1 << 30, num_jobs=1) == "vectorized"

    def test_auto_small_round_stays_vectorized(self):
        p = ExecutionPlanner()
        path = self._choose(p, POOL_MIN_POINTS - 1, self._warm_exec())
        assert path == "vectorized"

    def test_auto_large_round_takes_warm_pool(self):
        p = ExecutionPlanner()
        assert self._choose(p, POOL_MIN_POINTS, self._warm_exec()) == "pool"
        # A single shard group never fans out.
        assert (
            self._choose(p, 1 << 30, self._warm_exec(), num_jobs=1)
            == "vectorized"
        )

    def test_auto_cold_pool_warms_in_background(self):
        ex = self._cold_exec()
        p = ExecutionPlanner()
        path = self._choose(p, 1 << 30, ex)
        assert path == "vectorized"  # round never blocks on spawn
        assert ex.started == 1

    def test_decisions_are_counted(self):
        p = ExecutionPlanner()
        self._choose(p, 0, num_jobs=1)
        self._choose(p, 1 << 30, self._cold_exec())
        self._choose(p, 1 << 30, self._warm_exec())
        self._choose(p, 0)
        assert p.decisions == {"vectorized": 3, "pool": 1}


class TestMakeExecutorKinds:
    def test_default_is_persistent(self):
        ex = make_executor(2)
        assert isinstance(ex, PersistentShardPool) and ex.num_workers == 2


def _mutation_engine(shard_workers):
    """A split and replicated engine of its own (its index is mutated)."""
    from repro.core import DrimAnnEngine, EngineConfig, IndexParams, LayoutConfig
    from repro.pim.config import PimSystemConfig

    cfg = EngineConfig(
        index=IndexParams(nlist=32, nprobe=4, k=10, num_subspaces=8, codebook_size=16),
        system=PimSystemConfig(num_dpus=8, shard_workers=shard_workers),
        layout=LayoutConfig(min_split_size=150, max_copies=2),
    )
    return DrimAnnEngine.from_config(canonical_dataset().base[:6000], cfg, seed=0)


class TestEndToEndParity:
    def test_shard_workers_do_not_change_results(self):
        """Engine output with a 2-worker pool is bit-identical to serial."""
        name = "split-replicated"
        queries = canonical_dataset().queries[
            : CANONICAL_CONFIGS[name]["num_queries"]
        ]
        serial_engine = build_canonical_engine(name, shard_workers=0)
        res_s, _ = serial_engine.search(queries)
        par_engine = build_canonical_engine(name, shard_workers=2)
        try:
            res_p, _ = par_engine.search(queries)
        finally:
            par_engine.system.close()
        np.testing.assert_array_equal(res_s.ids, res_p.ids)
        np.testing.assert_array_equal(res_s.distances, res_p.distances)

    def test_pool_plan_does_not_change_results(self):
        """Rounds that provably ran on a warm pool match in process."""
        name = "split-replicated"
        queries = canonical_dataset().queries[
            : CANONICAL_CONFIGS[name]["num_queries"]
        ]
        serial_engine = build_canonical_engine(name, shard_workers=0)
        res_s, _ = serial_engine.search(queries)
        engine = build_canonical_engine(name, shard_workers=2)
        try:
            assert engine.system.warm_pool()
            res_p, _ = engine.search(queries)
        finally:
            engine.close()
        assert engine.system.planner.decisions.get("pool", 0) >= 1
        np.testing.assert_array_equal(res_s.ids, res_p.ids)
        np.testing.assert_array_equal(res_s.distances, res_p.distances)
        assert_no_leaked_segments()

    def test_pool_parity_across_mutations(self, pool_takes_small_rounds):
        """After ``add``, ``delete``, ``compact``, an ``update_shard``
        and ``load_codebooks`` with new codebooks, a warm 2-worker pool
        returns ``shard_workers=0``'s ids and distances byte for byte,
        and both equal ``reference_search`` over the mutated index: the
        pool's arena is re-hosted whenever its residents went stale."""
        ds = canonical_dataset()
        queries = ds.queries[:30]
        serial, pooled = _mutation_engine(0), _mutation_engine(2)
        rng = np.random.default_rng(5)
        # The index the engines now serve, when it differs from theirs.
        served = {}

        def add():
            for engine in (serial, pooled):
                engine.add(ds.base[6000:6200])

        def delete():
            doomed = rng.choice(serial.quantized.cluster_ids[3], 40, replace=False)
            for engine in (serial, pooled):
                assert engine.delete(doomed) == 40

        def compact():
            for engine in (serial, pooled):
                engine.compact()

        def update_shard():
            quant = serial.quantized
            cid = max(range(quant.nlist), key=lambda c: len(quant.cluster_ids[c]))
            key = serial.plan.replica_groups[cid][0][0]
            rows = serial.plan.shards[key].point_rows
            codes = [c.copy() for c in quant.cluster_codes]
            new = rng.integers(0, 16, size=codes[cid][rows].shape)
            codes[cid][rows] = new
            for engine in (serial, pooled):
                shard = engine.system.get_shard(key)
                engine.system.update_shard(key, shard.ids, codes[cid][rows])
            served["index"] = dataclasses.replace(quant, cluster_codes=codes)

        def load_codebooks():
            index = served.get("index", serial.quantized)
            books = index.codebooks.copy()
            books[:, :, 0] = rng.integers(-100, 101, size=books.shape[:2])
            for engine in (serial, pooled):
                engine.system.load_codebooks(books)
            served["index"] = dataclasses.replace(index, codebooks=books)

        try:
            for step in (None, add, delete, compact, update_shard, load_codebooks):
                if step is not None:
                    step()
                assert pooled.system.warm_pool()
                before = pooled.system.planner.decisions.get("pool", 0)
                got, _ = pooled.search(queries)
                assert pooled.system.planner.decisions.get("pool", 0) == before + 1
                assert not pooled.system.executor.take_fallback_events()
                want, _ = serial.search(queries)
                index = served.get("index", serial.quantized)
                ref = index.reference_search(
                    queries, serial.params.k, serial.params.nprobe
                )
                for res in (want, ref):
                    assert got.ids.tobytes() == res.ids.tobytes()
                    assert got.distances.tobytes() == res.distances.tobytes()
        finally:
            serial.close()
            pooled.close()
        assert_no_leaked_segments()

    def test_engine_close_unlinks_segments(self):
        engine = build_canonical_engine("split-replicated", shard_workers=2)
        queries = canonical_dataset().queries[:8]
        assert engine.system.warm_pool()
        engine.search(queries)
        engine.close()
        assert_no_leaked_segments()


class TestCrashPathHardening:
    """Teardown guarantees under worker SIGKILL and concurrent close."""

    def _hosted_pool(self, rng, jobs, workers=2):
        pool = PersistentShardPool(workers)
        keys = [f"s{i}" for i in range(len(jobs))]
        pool.host_shards(_residents(keys, jobs))
        return pool, keys

    def test_sigkilled_workers_still_unlink_on_close(self, rng):
        """SIGKILL (no cleanup handlers run) must not break the unlink."""
        import os
        import signal

        jobs = _jobs(rng, n_jobs=4)
        serial = [scan_shard_group(*j) for j in jobs]
        pool, keys = self._hosted_pool(rng, jobs)
        with pool:
            assert pool.wait_warm()
            assert leaked_segment_names()  # arena is live and tracked
            for proc in pool._procs:
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=2.0)
            got = _scan(pool, jobs, keys)  # degrades, no raise
            assert pool._broken and not pool.parallel
            for g, s in zip(got, serial):
                _assert_topk_equal(g, s)
        assert_no_leaked_segments()

    def test_double_close_after_worker_crash(self, rng):
        import os
        import signal

        jobs = _jobs(rng, n_jobs=3)
        pool, keys = self._hosted_pool(rng, jobs)
        pool.ensure_started()
        assert pool.wait_warm()
        for proc in pool._procs:
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=2.0)
        pool.close()
        pool.close()  # idempotent after a crash too
        assert_no_leaked_segments()

    def test_close_concurrent_with_inflight_search(self, rng):
        """close() from another thread waits a round out; results stay
        bit-exact (any post-close round falls back to the serial path)."""
        import threading

        jobs = _jobs(rng, n_jobs=6, n=200)
        serial = [scan_shard_group(*j) for j in jobs]
        pool, keys = self._hosted_pool(rng, jobs)
        pool.ensure_started()
        assert pool.wait_warm()

        results = []
        errors = []

        def hammer():
            try:
                for _ in range(10):
                    results.append(_scan(pool, jobs, keys))
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        t = threading.Thread(target=hammer)
        t.start()
        pool.close()
        t.join(timeout=30.0)
        assert not t.is_alive() and not errors
        assert len(results) == 10
        for got in results:
            for g, s in zip(got, serial):
                _assert_topk_equal(g, s)
        assert_no_leaked_segments()

    def test_engine_close_after_worker_sigkill(self):
        """Engine-level teardown unlinks even after workers were killed."""
        import os
        import signal

        engine = build_canonical_engine("split-replicated", shard_workers=2)
        queries = canonical_dataset().queries[:8]
        try:
            assert engine.system.warm_pool()
            res_first, _ = engine.search(queries)
            executor = engine.system.executor
            if executor is not None and executor.started:
                for proc in executor._procs:
                    os.kill(proc.pid, signal.SIGKILL)
                    proc.join(timeout=2.0)
            res_again, _ = engine.search(queries)  # degrades serially
            np.testing.assert_array_equal(res_first.ids, res_again.ids)
        finally:
            engine.close()
            engine.close()  # engine close is idempotent
        assert_no_leaked_segments()
