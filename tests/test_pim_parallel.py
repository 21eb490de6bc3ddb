"""The parallel data plane: bit-exact scans, graceful degradation.

Every scan path (the persistent zero-copy pool, the stacked vectorized
path, the serial loop) must be a pure wall-clock knob: enabling one
cannot change a single output bit, no failure (creation, worker death,
missing residency) may surface past ``scan_groups``, and every
degradation must leave a fallback event for the metrics layer. The
shared-memory arena additionally guarantees its segment is unlinked on
close — checkable via :func:`assert_no_leaked_segments`.
"""

import numpy as np
import pytest

from repro.pim import backend as backend_mod
from repro.pim.backend import resolve_backend
from repro.pim.kernels import scan_distances, scan_distances_stacked, topk_rows
from repro.pim.parallel import (
    POOL_MIN_POINTS,
    ROW_CHUNK,
    VECTOR_MIN_JOBS,
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


def _jobs(rng, n_jobs=3, g=7, m=8, cb=16, n=50, k=5):
    jobs = []
    for _ in range(n_jobs):
        luts = rng.integers(0, 255, size=(g, m, cb), dtype=np.uint32)
        codes = rng.integers(0, cb, size=(n, m), dtype=np.uint8)
        ids = rng.permutation(10_000)[:n].astype(np.int64)
        jobs.append((luts, codes, ids, k))
    return jobs


def _assert_rows_equal(got, want):
    assert len(got) == len(want)
    for (gi, gd), (wi, wd) in zip(got, want):
        np.testing.assert_array_equal(gi, wi)
        np.testing.assert_array_equal(gd, wd)


class TestScanShardGroup:
    def test_matches_unchunked_kernels(self, rng):
        (luts, codes, ids, k), = _jobs(rng, n_jobs=1)
        rows = scan_shard_group(luts, codes, ids, k)
        want = topk_rows(scan_distances(luts, codes), ids, k)
        _assert_rows_equal(rows, want)

    def test_row_chunking_is_invisible(self, rng):
        (luts, codes, ids, k), = _jobs(rng, n_jobs=1, g=11)
        base = scan_shard_group(luts, codes, ids, k, row_chunk=ROW_CHUNK)
        for chunk in (1, 2, 3, 5, 11, 64):
            _assert_rows_equal(
                scan_shard_group(luts, codes, ids, k, row_chunk=chunk), base
            )


def _scan(pool, jobs, keys, backend=None):
    """One pool round with every row live, on ``backend`` (default auto)."""
    if backend is None:
        backend = resolve_backend("auto")
    return pool.scan_groups(jobs, keys, [None] * len(jobs), backend)


class _SpyBackend:
    """Delegates to the NumPy backend and counts ``scan_topk`` calls."""

    def __init__(self):
        self.inner = resolve_backend("numpy")
        self.scans = 0

    def scan_topk(self, *args, **kwargs):
        self.scans += 1
        return self.inner.scan_topk(*args, **kwargs)


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
        ex = make_executor(2, kernel_backend="numpy")
        assert isinstance(ex, PersistentShardPool) and ex.num_workers == 2
        assert ex.backend_mode == "numpy"  # pinned in every worker at spawn

    def test_pool_creation_failure_degrades_to_serial(self, rng, monkeypatch):
        def refuse(arrays):
            raise OSError("no shared memory")

        monkeypatch.setattr(SharedShardArena, "create", refuse)
        jobs = _jobs(rng, n_jobs=3)
        keys = [f"s{i}" for i in range(len(jobs))]
        with make_executor(2) as ex:
            ex.host_shards({k: (j[1], j[2]) for k, j in zip(keys, jobs)})
            assert ex._broken and not ex.parallel
            assert ex.take_fallback_events() == ["arena-create"]
            got = _scan(ex, jobs, keys)
        for g, j in zip(got, jobs):
            _assert_rows_equal(g, scan_shard_group(*j))

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
            ex.host_shards({k: (j[1], j[2]) for k, j in zip(keys, jobs)})
            assert ex.wait_warm()
            for conn in ex._conns:
                conn.close()  # the workers see EOF and exit
            ex._conns = [_DeadConn() for _ in ex._conns]
            got = _scan(ex, jobs, keys)
            assert ex.take_fallback_events() == ["scan-failure"]
            assert ex._broken and not ex.parallel and not ex.started
            for g, s in zip(got, serial):
                _assert_rows_equal(g, s)
            # subsequent calls stay serial and keep working
            again = _scan(ex, jobs, keys)
            assert not ex.take_fallback_events()
            for g, s in zip(again, serial):
                _assert_rows_equal(g, s)
        assert_no_leaked_segments()


class TestScanJobsStacked:
    def test_uniform_shapes_match_serial(self, rng):
        jobs = _jobs(rng, n_jobs=5)
        got = scan_jobs_stacked(jobs)
        for g, j in zip(got, jobs):
            _assert_rows_equal(g, scan_shard_group(*j))

    def test_mixed_shapes_match_serial(self, rng):
        """Different-shape buckets and singletons all come back in order."""
        jobs = (
            _jobs(rng, n_jobs=2, g=7, n=50)
            + _jobs(rng, n_jobs=3, g=4, n=31)
            + _jobs(rng, n_jobs=1, g=9, n=17)
        )
        order = rng.permutation(len(jobs))
        shuffled = [jobs[i] for i in order]
        got = scan_jobs_stacked(shuffled)
        for g, j in zip(got, shuffled):
            _assert_rows_equal(g, scan_shard_group(*j))

    def test_chunking_budget_is_invisible(self, rng, monkeypatch):
        jobs = _jobs(rng, n_jobs=6)
        base = scan_jobs_stacked(jobs)
        # Tiny budget: every job overflows and falls back per-group.
        monkeypatch.setattr("repro.pim.parallel._STACK_CHUNK_BYTES", 1)
        tiny = scan_jobs_stacked(jobs)
        for g, s in zip(tiny, base):
            _assert_rows_equal(g, s)

    def test_stacked_kernel_matches_per_job_kernel(self, rng):
        jobs = _jobs(rng, n_jobs=3)
        luts = np.stack([j[0] for j in jobs])
        codes = np.stack([j[1] for j in jobs])
        dists = scan_distances_stacked(luts, codes)
        for ji, (l, c, _i, _k) in enumerate(jobs):
            np.testing.assert_array_equal(dists[ji], scan_distances(l, c))


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
        pool.host_shards(
            {k: (j[1], j[2]) for k, j in zip(keys, jobs)}
        )
        return pool, keys

    def test_fallbacks_run_the_rounds_backend(self, rng, monkeypatch):
        """Single-job and no-residency rounds scan on the passed backend.

        The registry is patched so ``auto`` resolves to a spy standing in
        for an installed compiled backend; the round passes a different
        spy, and only that one may run.
        """
        jobs = _jobs(rng, n_jobs=3)
        numpy_backend = resolve_backend("numpy")
        want = [scan_shard_group(*j, backend=numpy_backend) for j in jobs]
        auto_spy, passed = _SpyBackend(), _SpyBackend()
        monkeypatch.setitem(backend_mod._INSTANCES, "numba", auto_spy)
        assert resolve_backend("auto") is auto_spy
        pool, keys = self._hosted_pool(rng, jobs)
        with pool:
            got = _scan(pool, jobs[:1], keys[:1], passed)
            assert not pool.take_fallback_events()
            _assert_rows_equal(got[0], want[0])
            assert passed.scans == 1
            got = _scan(pool, jobs, ["nope"] * len(jobs), passed)
            assert pool.take_fallback_events() == ["no-residency"]
            for g, w in zip(got, want):
                _assert_rows_equal(g, w)
            assert passed.scans == 1 + len(jobs)
        assert auto_spy.scans == 0

    def test_parity_with_serial(self, rng):
        jobs = _jobs(rng, n_jobs=5)
        serial = [scan_shard_group(*j) for j in jobs]
        pool, keys = self._hosted_pool(rng, jobs)
        with pool:
            assert pool.wait_warm()
            got = _scan(pool, jobs, keys)
        assert not pool.take_fallback_events()
        for g, s in zip(got, serial):
            _assert_rows_equal(g, s)
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
                    _assert_rows_equal(g, s)
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
                _assert_rows_equal(g, s)

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
                _assert_rows_equal(g, s)
            # subsequent rounds keep working serially
            again = _scan(pool, jobs, keys)
            for g, s in zip(again, serial):
                _assert_rows_equal(g, s)
        assert_no_leaked_segments()

    def test_rehost_restarts_workers(self, rng):
        jobs = _jobs(rng, n_jobs=4)
        pool, keys = self._hosted_pool(rng, jobs)
        with pool:
            assert pool.wait_warm()
            old_pids = [p.pid for p in pool._procs]
            jobs2 = _jobs(rng, n_jobs=3)
            keys2 = [f"t{i}" for i in range(len(jobs2))]
            pool.host_shards(
                {k: (j[1], j[2]) for k, j in zip(keys2, jobs2)}
            )
            assert not pool.started  # stopped; restarted on demand
            got = _scan(pool, jobs2, keys2)
            new_pids = [p.pid for p in pool._procs]
            assert new_pids and new_pids != old_pids
            serial = [scan_shard_group(*j) for j in jobs2]
            for g, s in zip(got, serial):
                _assert_rows_equal(g, s)
        assert_no_leaked_segments()

    def test_close_is_idempotent_and_unlinks(self, rng):
        jobs = _jobs(rng, n_jobs=2)
        pool, _keys = self._hosted_pool(rng, jobs)
        pool.close()
        pool.close()
        assert_no_leaked_segments()


class TestExecutionPlanner:
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

    def test_serial_mode_always_serial(self):
        p = ExecutionPlanner()
        path = p.choose(
            "serial", num_jobs=100, scan_points=1 << 30,
            executor=self._warm_exec(),
        )
        assert path == "serial"

    def test_vectorized_needs_min_jobs(self):
        p = ExecutionPlanner()
        assert p.choose("vectorized", num_jobs=4, scan_points=0) == "vectorized"
        assert (
            p.choose("vectorized", num_jobs=VECTOR_MIN_JOBS - 1, scan_points=0)
            == "serial"
        )

    def test_pool_mode_degrades_without_executor(self):
        p = ExecutionPlanner()
        assert p.choose("pool", num_jobs=4, scan_points=0) == "vectorized"
        assert p.choose("pool", num_jobs=1, scan_points=0) == "serial"
        assert (
            p.choose("pool", num_jobs=4, scan_points=0,
                     executor=self._warm_exec())
            == "pool"
        )

    def test_auto_small_round_stays_vectorized(self):
        p = ExecutionPlanner()
        path = p.choose(
            "auto", num_jobs=4, scan_points=POOL_MIN_POINTS - 1,
            executor=self._warm_exec(),
        )
        assert path == "vectorized"

    def test_auto_large_round_takes_warm_pool(self):
        p = ExecutionPlanner()
        path = p.choose(
            "auto", num_jobs=4, scan_points=POOL_MIN_POINTS,
            executor=self._warm_exec(),
        )
        assert path == "pool"

    def test_auto_cold_pool_warms_in_background(self):
        ex = self._cold_exec()
        p = ExecutionPlanner()
        path = p.choose(
            "auto", num_jobs=4, scan_points=1 << 30, executor=ex
        )
        assert path == "vectorized"  # round never blocks on spawn
        assert ex.started == 1

    def test_decisions_are_counted(self):
        p = ExecutionPlanner()
        p.choose("serial", num_jobs=1, scan_points=0)
        p.choose("serial", num_jobs=1, scan_points=0)
        p.choose("vectorized", num_jobs=4, scan_points=0)
        assert p.decisions == {"serial": 2, "vectorized": 1}


class TestMakeExecutorKinds:
    def test_default_is_persistent(self):
        ex = make_executor(2)
        assert isinstance(ex, PersistentShardPool) and ex.num_workers == 2


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
        name = "split-replicated"
        queries = canonical_dataset().queries[
            : CANONICAL_CONFIGS[name]["num_queries"]
        ]
        serial_engine = build_canonical_engine(name, shard_workers=0)
        res_s, _ = serial_engine.search(queries)
        engine = build_canonical_engine(name, plan="pool", shard_workers=2)
        try:
            res_p, _ = engine.search(queries)
        finally:
            engine.close()
        np.testing.assert_array_equal(res_s.ids, res_p.ids)
        np.testing.assert_array_equal(res_s.distances, res_p.distances)
        assert_no_leaked_segments()

    def test_engine_close_unlinks_segments(self):
        engine = build_canonical_engine(
            "split-replicated", plan="pool", shard_workers=2
        )
        queries = canonical_dataset().queries[:8]
        engine.search(queries)
        engine.close()
        assert_no_leaked_segments()


class TestCrashPathHardening:
    """Teardown guarantees under worker SIGKILL and concurrent close."""

    def _hosted_pool(self, rng, jobs, workers=2):
        pool = PersistentShardPool(workers)
        keys = [f"s{i}" for i in range(len(jobs))]
        pool.host_shards({k: (j[1], j[2]) for k, j in zip(keys, jobs)})
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
                _assert_rows_equal(g, s)
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
                _assert_rows_equal(g, s)
        assert_no_leaked_segments()

    def test_engine_close_after_worker_sigkill(self):
        """Engine-level teardown unlinks even after workers were killed."""
        import os
        import signal

        engine = build_canonical_engine(
            "split-replicated", plan="pool", shard_workers=2
        )
        queries = canonical_dataset().queries[:8]
        try:
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
