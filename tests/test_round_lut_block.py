"""Round tasks computed by the compute plane.

``PimSystem.run_batch`` charges a round and reports the tasks that
ran; ``PimSystem.compute_tasks`` computes them from query-term tables,
resident point terms and one scan per data shard — no per-task LUT on
the in-process path. Every value must equal the staged per-group
kernels: ``run_lut_build`` on the group's residuals, then the scan and
the canonical top-k over the shard's live rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.square_lut import SquareLut
from repro.pim import PimSystem, PimSystemConfig
from repro.pim import system as system_mod
from repro.pim.backend import numpy_backend, resolve_backend
from repro.pim.backend.numpy_backend import CodebookTerms, NumpyBackend
from repro.pim.kernels import run_lut_build, scan_distances, topk_rows
from repro.pim.parallel import scan_shard_group
from repro.pim.system import ShardData

M, CB, DSUB = 8, 16, 4
D = M * DSUB


def _system(rng):
    """Four DPUs. Cluster ``a`` has two parts and a replica of part 0
    (one centroid for all three shards), ``b`` one shard with
    tombstones, ``c`` an empty shard and ``d`` a shard whose rows are
    all deleted."""
    system = PimSystem(PimSystemConfig(num_dpus=4))
    system.load_codebooks(
        rng.integers(-200, 200, size=(M, CB, DSUB)).astype(np.int16)
    )
    system.load_square_lut(SquareLut.for_bit_width(8, levels=3))
    cents = rng.integers(0, 256, size=(4, D)).astype(np.uint8)

    def place(dpu, key, cent, n, first_id):
        system.place_shard(
            dpu,
            ShardData(
                shard_key=key,
                centroid=cents[cent].copy(),
                ids=np.arange(first_id, first_id + n, dtype=np.int64),
                codes=rng.integers(0, CB, size=(n, M)).astype(np.uint8),
            ),
        )

    place(0, "a.p0", 0, 30, 0)
    place(1, "a.p1", 0, 25, 30)
    place(2, "a.p0.r1", 0, 30, 0)
    place(3, "b", 1, 40, 100)
    place(1, "c", 2, 0, 200)
    place(2, "d", 3, 12, 300)
    system.set_shard_liveness("b", np.arange(0, 40, 3))
    system.set_shard_liveness("d", np.empty(0, dtype=np.intp))
    return system


ASSIGNMENTS = {
    0: [(0, "a.p0"), (3, "a.p0"), (5, "a.p0")],
    1: [(0, "a.p1"), (3, "a.p1"), (1, "c"), (5, "a.p1"), (2, "c")],
    2: [(1, "a.p0.r1"), (4, "a.p0.r1"), (2, "d")],
    3: [(4, "b"), (0, "b"), (6, "b")],
}


def _expected(system, queries, k):
    """Per-group staged kernels: the tasks in the round's group order,
    and each task's padded top-k row."""
    tasks, ids, dists = [], [], []
    for dpu, dpu_tasks in ASSIGNMENTS.items():
        by_shard = {}
        for q, key in dpu_tasks:
            by_shard.setdefault(key, []).append(q)
        for key, qs in by_shard.items():
            shard = system.get_shard(key)
            res = queries[qs].astype(np.int32) - shard.centroid.astype(np.int32)
            luts, _ = run_lut_build(res, system.codebooks)
            live = system._live_rows.get(key)
            codes, sids = shard.codes, shard.ids
            if live is not None:
                codes, sids = codes[live], sids[live]
            top_ids, top_d = topk_rows(scan_distances(luts, codes), sids, k)
            pad_i = np.full((len(qs), k), -1, dtype=np.int64)
            pad_d = np.full((len(qs), k), np.inf)
            pad_i[:, : top_ids.shape[1]] = top_ids
            pad_d[:, : top_d.shape[1]] = top_d
            tasks.extend((q, key) for q in qs)
            ids.append(pad_i)
            dists.append(pad_d)
    return tasks, np.concatenate(ids), np.concatenate(dists)


def _task_rows(rows, ids, dists):
    """Result rows as a sorted list of ``(query, ids, distances)``: the
    tasks' rows as a multiset, whatever their order."""
    return sorted(
        zip(rows.tolist(), map(tuple, ids.tolist()), map(tuple, dists.tolist()))
    )


class _Pool:
    """A worker pool stand-in that scans in process."""

    attached = True
    parallel = True

    def __init__(self):
        self.calls = []

    def scan_groups(self, jobs, keys, lives, backend):
        self.calls.append(len(jobs))
        return [scan_shard_group(*j, backend=backend) for j in jobs]

    def take_fallback_events(self):
        return []


def _run(system, queries, k, pool=False):
    """Charge the round, then compute the tasks it ran."""
    if pool:
        system.executor = _Pool()
        system._residency_dirty = False
        system.planner.choose = lambda **kw: "pool"
    timing = system.run_batch(ASSIGNMENTS, queries, k)
    return system.compute_tasks(queries, timing.tasks, k), timing


class TestRoundBlock:
    @pytest.mark.parametrize("pool", [False, True])
    @pytest.mark.parametrize("k", [1, 4, 50])
    def test_block_equals_per_group_kernels(self, rng, pool, k):
        system = _system(rng)
        queries = rng.integers(0, 256, size=(7, D)).astype(np.uint8)
        (rows, ids, dists), timing = _run(system, queries, k, pool)
        want_tasks, want_ids, want_dists = _expected(system, queries, k)
        # The round reports every task it ran, in its group order.
        assert timing.tasks == want_tasks
        assert rows.dtype == ids.dtype == np.int64 and dists.dtype == np.float64
        assert ids.shape == dists.shape == (len(want_tasks), k)
        want_rows = np.array([q for q, _ in want_tasks])
        assert _task_rows(rows, ids, dists) == _task_rows(
            want_rows, want_ids, want_dists
        )

    def test_only_the_pool_builds_luts(self, rng, monkeypatch):
        """Neither the round nor the in-process compute plane calls
        ``build_luts``. The pool's slab makes one call over its task
        rows, each row against its shard's centroid id (parts and
        replicas of a cluster share one)."""
        queries = rng.integers(0, 256, size=(7, D)).astype(np.uint8)
        system = _system(rng)
        calls = []
        real = NumpyBackend.build_luts

        def spy(self, q, cents, qrows, crows, books):
            calls.append((qrows.copy(), crows.copy()))
            return real(self, q, cents, qrows, crows, books)

        # On the class: an instance patch of the process-wide backend
        # would be undone as an instance attribute that shadows every
        # later class-level patch.
        monkeypatch.setattr(NumpyBackend, "build_luts", spy)
        _run(system, queries, 3)
        assert calls == []
        (rows, _, _), _ = _run(system, queries, 3, pool=True)
        monkeypatch.undo()
        assert "build_luts" not in vars(resolve_backend())
        assert len(calls) == 1
        qrows, crows = calls[0]
        np.testing.assert_array_equal(qrows, rows)
        cent_of = {key: system._shard_cent[key] for key in system._shards}
        want = sorted(
            (q, cent_of[key]) for tasks in ASSIGNMENTS.values() for q, key in tasks
        )
        assert sorted(zip(qrows.tolist(), crows.tolist())) == want
        assert len(set(cent_of[k] for k in ("a.p0", "a.p1", "a.p0.r1"))) == 1

    @pytest.mark.parametrize("pool", [False, True])
    @pytest.mark.parametrize("budget", [1, 3 * M * CB * 8, 5 * M * CB * 8])
    def test_parts_are_byte_equal_to_one_part(self, rng, monkeypatch, pool, budget):
        """A ``compute_tasks`` call cut into query slabs by a small
        ``ROUND_LUT_BYTES`` returns the one-slab block byte for byte,
        and the round's ledger does not move."""
        seed = int(rng.integers(0, 2**31))
        queries = rng.integers(0, 256, size=(7, D)).astype(np.uint8)
        one_block, one_timing = _run(_system(np.random.default_rng(seed)), queries, 5, pool)
        slabs = []
        system = _system(np.random.default_rng(seed))
        real = system._pool_slab if pool else system._scan_slab
        monkeypatch.setattr(
            system, "_pool_slab" if pool else "_scan_slab",
            lambda q, qrows, *a: slabs.append(qrows.copy()) or real(q, qrows, *a),
        )
        monkeypatch.setattr(system_mod, "ROUND_LUT_BYTES", budget)
        block, timing = _run(system, queries, 5, pool)
        assert len(slabs) > 1
        # Slabs are runs of whole queries, covering every task once.
        assert sum(len(s) for s in slabs) == len(block[0])
        assert all(s.max() < t.min() for s, t in zip(slabs, slabs[1:]))
        for got, want in zip(block, one_block):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert timing.kernel_cycles == one_timing.kernel_cycles
        assert timing.per_dpu_cycles.tobytes() == one_timing.per_dpu_cycles.tobytes()

    def test_partial_square_lut_misses_per_task_row(self, rng):
        """The LC ledger of a partial-table round == the staged
        ``run_lut_build`` cost charged group by group."""
        from repro.pim.dpu import Dpu

        system = _system(rng)
        partial = SquareLut.for_bit_width(8, levels=3).partial(60)
        system.load_square_lut(partial)
        queries = rng.integers(0, 256, size=(7, D)).astype(np.uint8)
        timing = system.run_batch(ASSIGNMENTS, queries, 3)
        ref = Dpu(0, system.config.dpu)
        for tasks in ASSIGNMENTS.values():
            by_shard = {}
            for q, key in tasks:
                by_shard.setdefault(key, []).append(q)
            for key, qs in by_shard.items():
                cent = system.get_shard(key).centroid.astype(np.int32)
                res = queries[qs].astype(np.int32) - cent
                _, cost = run_lut_build(res, system.codebooks, partial)
                ref.charge(cost)
        assert timing.kernel_cycles["LC"] == ref.cycles_by_kernel["LC"]


def _entry_points(system):
    """``run_batch`` and ``compute_tasks``, each taking only queries."""
    return (
        lambda q: system.run_batch(ASSIGNMENTS, q, 3),
        lambda q: system.compute_tasks(q, [(0, "a.p0"), (6, "b")], 3),
    )


class TestQueryOperands:
    """``run_batch`` and ``compute_tasks`` reject queries they would
    truncate or wrap."""

    def test_fractional_queries_rejected(self, rng):
        system = _system(rng)
        queries = rng.integers(0, 255, size=(7, D)).astype(np.uint8)
        for call in _entry_points(system):
            with pytest.raises(ValueError, match="queries"):
                call(queries + 0.6)

    @pytest.mark.parametrize("bad", [256, -1, 1000])
    def test_out_of_range_queries_rejected(self, rng, bad):
        system = _system(rng)
        queries = rng.integers(0, 256, size=(7, D)).astype(np.int64)
        queries[2, 5] = bad
        for call in _entry_points(system):
            with pytest.raises(ValueError, match="queries"):
                call(queries)

    @pytest.mark.parametrize("shape", [(7, D - 1), (7, D + 4), (7 * D,)])
    def test_wrong_width_rejected(self, rng, shape):
        system = _system(rng)
        queries = np.zeros(shape, dtype=np.uint8)
        for call in _entry_points(system):
            with pytest.raises(ValueError, match="queries"):
                call(queries)

    def test_integral_queries_of_any_dtype_accepted(self, rng):
        queries = rng.integers(0, 256, size=(7, D)).astype(np.uint8)
        want, want_t = _run(_system(np.random.default_rng(3)), queries, 3)
        for dtype in (np.int64, np.float64, np.uint16):
            got, got_t = _run(
                _system(np.random.default_rng(3)), queries.astype(dtype), 3
            )
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
            # The broadcast is charged on the uint8 queries computed on.
            assert got_t.transfer_seconds == want_t.transfer_seconds


_SQUARES_8 = SquareLut.for_bit_width(8, levels=3)


class TestPairBuild:
    @settings(max_examples=60, deadline=None)
    @given(
        nq=st.integers(1, 6),
        nc=st.integers(1, 5),
        t=st.integers(1, 30),
        m=st.integers(1, 6),
        cb=st.sampled_from([1, 3, 16, 128, 300]),
        dsub=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_pairs_equal_run_lut_build(self, nq, nc, t, m, cb, dsub, seed):
        """Random pairs, repeated pairs and centroids shared by many
        tasks: every LUT row equals ``run_lut_build`` on the pair's
        residual, in the int32 gather dtype at the engine's ranges."""
        rng = np.random.default_rng(seed)
        queries = rng.integers(0, 256, size=(nq, m * dsub)).astype(np.uint8)
        cents = rng.integers(0, 256, size=(nc, m * dsub)).astype(np.uint8)
        books = rng.integers(-510, 511, size=(m, cb, dsub)).astype(np.int16)
        qrows = rng.integers(0, nq, size=t)
        crows = rng.integers(0, nc, size=t)
        qrows[t // 2 :] = qrows[: t - t // 2]  # repeated pairs
        crows[t // 2 :] = crows[: t - t // 2]
        got = NumpyBackend().build_luts(
            queries, cents, qrows, crows, CodebookTerms(books)
        )
        res = queries[qrows].astype(np.int32) - cents[crows].astype(np.int32)
        want, _ = run_lut_build(res, books, _SQUARES_8)
        assert got.dtype == np.int32 and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)

    def test_int32_only_within_the_sum_bound(self):
        """int32 exactly when ``M * dsub * (max|q| + max|c| + max|b|)**2``
        fits int32; past it the same values come back as int64."""
        m, cb, dsub = 4, 8, 2
        books = np.full((m, cb, dsub), 3, dtype=np.int16)
        cents = np.zeros((1, m * dsub), dtype=np.int64)
        backend = NumpyBackend()
        edge = int(np.sqrt(np.iinfo(np.int32).max / (m * dsub))) - 3
        for q_max, dtype in ((edge, np.int32), (edge + 1, np.int64)):
            queries = np.full((1, m * dsub), q_max, dtype=np.int64)
            got = backend.build_luts(
                queries, cents, [0], [0], CodebookTerms(books)
            )
            assert got.dtype == dtype
            assert got[0, 0, 0] == dsub * (q_max - 3) ** 2

    def test_wide_codebooks_take_the_int64_fallback(self, monkeypatch):
        """Synthetic codebooks past the float64 bound take the int64
        difference path over the residuals, with exact values."""
        calls = []
        real = numpy_backend._build_luts_int64

        def spy(residuals, codebooks, out):
            calls.append(residuals.shape)
            real(residuals, codebooks, out)

        monkeypatch.setattr(numpy_backend, "_build_luts_int64", spy)
        rng = np.random.default_rng(11)
        m, cb, dsub = 3, 5, 4
        books = rng.integers(-(1 << 26), 1 << 26, size=(m, cb, dsub))
        books[0, 0, 0] = 1 << 26
        queries = rng.integers(0, 256, size=(4, m * dsub)).astype(np.uint8)
        cents = rng.integers(0, 256, size=(2, m * dsub)).astype(np.uint8)
        qrows, crows = np.array([0, 3, 3, 1, 2]), np.array([1, 1, 0, 0, 1])
        assert not numpy_backend.expansion_is_exact(510, 1 << 26, dsub)
        got = NumpyBackend().build_luts(
            queries, cents, qrows, crows, CodebookTerms(books)
        )
        assert calls == [(5, m * dsub)]
        res = queries[qrows].astype(np.int64) - cents[crows]
        diff = res.reshape(5, m, 1, dsub) - books
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, (diff * diff).sum(axis=3))

    @pytest.mark.parametrize(
        "qrows, crows, exc",
        [
            ([0, 5], [0, 0], IndexError),
            ([0, -1], [0, 0], IndexError),
            ([0, 1], [0, 2], IndexError),
            ([0, 1], [0], ValueError),
            ([0.0, 1.0], [0, 0], TypeError),
        ],
    )
    def test_bad_rows_raise(self, qrows, crows, exc):
        books = np.zeros((2, 4, 2), dtype=np.int16)
        queries = np.zeros((2, 4), dtype=np.uint8)
        cents = np.zeros((2, 4), dtype=np.uint8)
        with pytest.raises(exc):
            resolve_backend().build_luts(
                queries, cents, np.array(qrows), np.array(crows),
                CodebookTerms(books),
            )

    def test_float_queries_raise(self):
        books = np.zeros((2, 4, 2), dtype=np.int16)
        with pytest.raises(TypeError, match="queries"):
            resolve_backend().build_luts(
                np.zeros((1, 4)), np.zeros((1, 4), dtype=np.uint8), [0], [0],
                CodebookTerms(books),
            )
