"""Resident scan operands and the canonical per-task top-k (TS).

Every scan path — the round block of ``scan_jobs_stacked``, per-job
``topk_rows`` / ``scan_shard_group``, and the pool workers — picks a
task's top-k by the canonical ``(distance, id)`` order. So they agree
bit for bit under forced ties, whatever the padding or job split, and
the engine's ids equal ``reference_search``'s exactly, ties included.

The scan operands are resident per data shard, over its stored rows:
built and range-checked on a shard's first scan, extended by appended
rows at the next scan, and dropped when a code block is replaced.
Deletions leave them alone: the scan masks the dead rows.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_mod
import repro.pim.system as system_mod
from repro.ann import IVFPQIndex
from repro.core import DrimAnnEngine, EngineConfig, IndexParams, SearchParams
from repro.core.layout import LayoutConfig
from repro.core.quantized import build_quantized_index
from repro.core.scheduler import RuntimeScheduler
from repro.faults.plan import FaultConfig, FaultPlan
from repro.pim import parallel
from repro.pim.backend import numpy_backend, resolve_backend
from repro.pim.backend.numpy_backend import CodebookTerms, decode_table, gather_offsets
from repro.pim.config import PimSystemConfig
from repro.pim.kernels import run_lut_build, scan_distances, topk_rows
from repro.pim.parallel import make_executor, scan_jobs_stacked, scan_shard_group
from repro.testing import CANONICAL_CONFIGS, ROUND_SIZES, canonical_dataset
from repro.testing.goldens import _quantized, canonical_config
from repro.utils import topk_canonical


def _tie_jobs(seed, shapes, k, values, m=2, cb=4):
    """Product jobs over codebooks and queries of ``values`` distinct
    entries, so distances repeat and most top-k boundaries are ties;
    each with the staged LUTs and codes whose scan is its distance."""
    rng = np.random.default_rng(seed)
    backend, out = resolve_backend(), []
    for g, n in shapes:
        books = rng.integers(0, values, size=(m, cb, 1)).astype(np.int16)
        queries = rng.integers(0, values, size=(g, m)).astype(np.uint8)
        codes = rng.integers(0, cb, size=(n, m)).astype(np.uint8)
        ids = rng.permutation(1000)[:n].astype(np.int64)
        terms = CodebookTerms(books)
        table = decode_table(terms, 255)
        off = gather_offsets(codes, cb)
        decoded = backend.decode(off, table)
        pts = backend.point_norms(off, terms)  # a zero centroid: r = q
        row_terms = np.einsum("td,td->t", queries.astype(np.int64), queries)
        job = (queries.astype(table.dtype), decoded, ids, k, pts, row_terms, None)
        luts, _ = run_lut_build(queries.astype(np.int32), books)
        out.append((job, luts, codes))
    return out


def _padded(tops, k):
    """Per-job ``(g, w)`` top-k pairs laid into one ``(T, k)`` block."""
    ids = np.concatenate(
        [np.pad(i, ((0, 0), (0, k - i.shape[1])), constant_values=-1) for i, _ in tops]
    )
    dists = np.concatenate(
        [
            np.pad(d.astype(np.float64), ((0, 0), (0, k - d.shape[1])),
                   constant_values=np.inf)
            for _, d in tops
        ]
    )
    return ids, dists


def _assert_block_equal(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


class TestCanonicalSelection:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shapes=st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 30)), min_size=1, max_size=6
        ),
        k=st.integers(1, 12),
        values=st.integers(1, 3),
        split=st.integers(0, 6),
        budget=st.sampled_from([None, 17, 17 * 12, 17 * 60, 4096]),
    )
    def test_round_block_equals_every_other_path(
        self, seed, shapes, k, values, split, budget
    ):
        jobs = _tie_jobs(seed, shapes, k, values)
        resident = [job for job, _, _ in jobs]
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(numpy_backend, "LUT_CHUNK_BYTES", budget)
            got = scan_jobs_stacked(resident)
            # Any job split, blocks stacked back together.
            split = min(split, len(jobs))
            parts = [p for p in (resident[:split], resident[split:]) if p]
            blocks = [scan_jobs_stacked(p) for p in parts]
        _assert_block_equal(
            got,
            (np.concatenate([b[0] for b in blocks]),
             np.concatenate([b[1] for b in blocks])),
        )
        # Per job: topk_rows over the reference scan, and scan_shard_group.
        per_job = []
        for job, luts, codes in jobs:
            want = topk_rows(scan_distances(luts, codes), job[2], k)
            _assert_block_equal(scan_shard_group(*job), _padded([want], k))
            per_job.append(want)
        _assert_block_equal(got, _padded(per_job, k))
        # Per row: the canonical pool selection.
        row = 0
        for job, luts, codes in jobs:
            dists = scan_distances(luts, codes)
            for r in range(len(luts)):
                want_i, want_d = topk_canonical(dists[r], job[2], k)
                w = len(want_i)
                np.testing.assert_array_equal(got[0][row, :w], want_i)
                np.testing.assert_array_equal(got[1][row, :w], want_d)
                assert (got[0][row, w:] == -1).all()
                assert np.isinf(got[1][row, w:]).all()
                row += 1

    def test_pool_workers_agree_under_ties(self):
        jobs = [job for job, _, _ in _tie_jobs(
            7, [(3, 40), (2, 25), (4, 40), (1, 9)], k=6, values=2
        )]
        keys = [f"s{i}" for i in range(len(jobs))]
        want = scan_jobs_stacked(jobs)
        with make_executor(2) as pool:
            pool.host_shards({key: (j[1], j[4], j[2]) for key, j in zip(keys, jobs)})
            assert pool.wait_warm()
            tops = pool.scan_groups(jobs, keys, None)
            assert not pool.take_fallback_events()
        _assert_block_equal(_padded(tops, 6), want)


@pytest.fixture(scope="module")
def tie_index():
    """A quantized index over a base where every vector appears four
    times: equal codes, equal distances, distinct ids."""
    rng = np.random.default_rng(3)
    uniq = rng.integers(0, 256, size=(900, 16)).astype(np.uint8)
    base = np.repeat(uniq, 4, axis=0)
    index = IVFPQIndex.build(base, nlist=16, num_subspaces=8, codebook_size=16, seed=0)
    queries = rng.integers(0, 256, size=(40, 16)).astype(np.uint8)
    return base, build_quantized_index(index), queries


def _tie_engine(tie_index, batch_size=None, layout=None):
    base, quant, _ = tie_index
    cfg = EngineConfig(
        index=IndexParams(nlist=16, nprobe=4, k=10, num_subspaces=8, codebook_size=16),
        search=SearchParams(batch_size=batch_size),
        layout=LayoutConfig() if layout is None else layout,
        system=PimSystemConfig(num_dpus=8),
    )
    # A private copy (compact() copies): tests here mutate the index.
    return DrimAnnEngine.from_config(
        base, cfg, prebuilt_quantized=quant.compact(), seed=0
    )


class TestEngineIdsAreCanonical:
    @pytest.mark.parametrize("cell", sorted(ROUND_SIZES))
    def test_ids_equal_reference_on_tie_index(self, tie_index, cell):
        queries = tie_index[2]
        engine = _tie_engine(tie_index, ROUND_SIZES[cell])
        try:
            got = engine.search(queries).results
            ref = engine.reference_search(queries)
        finally:
            engine.close()
        # The index really is tie-heavy at the top-k boundary.
        assert (ref.distances[:, -1] == ref.distances[:, -2]).mean() > 0.5
        np.testing.assert_array_equal(got.ids, ref.ids)
        np.testing.assert_array_equal(got.distances, ref.distances)

    def test_one_selection_per_round_slab(self, tie_index, monkeypatch):
        """Each round's jobs fill slabs in ascending width, a new slab
        once a wider job would pad the slab by more than
        ``_SLAB_PAD_CELLS``; every slab gets exactly one selection."""
        engine = _tie_engine(tie_index)
        rounds, selects = [], []
        real_scan = system_mod.scan_jobs_stacked
        real_select = parallel.select_topk

        def scan(jobs, backend=None):
            rounds.append([(len(j[0]), j[1].shape[0]) for j in jobs])
            return real_scan(jobs, backend=backend)

        def select(*a, **kw):
            selects.append(a[0].shape)
            return real_select(*a, **kw)

        monkeypatch.setattr(system_mod, "scan_jobs_stacked", scan)
        monkeypatch.setattr(parallel, "select_topk", select)
        try:
            engine.search(tie_index[2])
        finally:
            engine.close()
        want = []
        for shapes in rounds:
            slab = [0, 0]  # rows, width
            for g, n in sorted(shapes, key=lambda s: s[1]):
                if slab[0] * (n - slab[1]) > parallel._SLAB_PAD_CELLS:
                    want.append(tuple(slab))
                    slab = [0, 0]
                slab = [slab[0] + g, n]
            want.append(tuple(slab))
        assert rounds and selects == want
        assert len(selects) > len(rounds)  # the tie index's rounds split


def _operands(system):
    """Each data shard's resident scan operands, by its first placement."""
    return {
        rec.shard.shard_key: rec.ops
        for rec in system._data.values()
        if rec.ops is not None
    }


class TestResidentOffsets:
    def _assert_cache_consistent(self, system):
        """Every placement of a data key shares its one record, so one
        live-row filter and at most one operand record per data shard;
        each operand record equals a fresh int64 decode of its first
        ``rows`` stored rows, whatever the filter (rows appended after
        it join at the next scan): ``B`` the codewords concatenated, in
        the codebooks' product dtype, and the point terms ``||B||^2`` in
        the slab dtype."""
        books = system.codebooks.astype(np.int64)
        m = books.shape[0]
        records = {id(rec) for _, rec in system._shards.values()}
        assert len(records) == len(system._data)
        for rec in system._data.values():
            assert all(system._shards[key][1] is rec for key, _ in rec.placements)
            ops, shard = rec.ops, rec.shard
            if ops is None:
                continue
            assert ops.rows <= len(shard.ids)
            assert len(ops.decoded) == len(ops.pts) >= ops.rows
            codes = shard.codes[: ops.rows].astype(np.intp)
            want = books[np.arange(m), codes].reshape(ops.rows, -1)
            decoded = ops.decoded[: ops.rows]
            assert decoded.dtype == system._decode_table.dtype
            np.testing.assert_array_equal(decoded.astype(np.int64), want)
            assert ops.pts.dtype == system._slab_dtype
            np.testing.assert_array_equal(ops.pts[: ops.rows], (want * want).sum(-1))

    @staticmethod
    def _assert_liveness(engine):
        """Every shard holds its part's rows, replicas alike, and its
        dead rows are the set positions of the part's slice of the
        tombstone mask."""
        quant, system = engine.quantized, engine.system
        masks = quant.tombstone_masks()
        for key, part in engine.plan.shards.items():
            cid, rows = part.cluster_id, part.point_rows
            shard = system.get_shard(key)
            np.testing.assert_array_equal(shard.ids, quant.cluster_ids[cid][rows])
            np.testing.assert_array_equal(shard.codes, quant.cluster_codes[cid][rows])
            dead = np.zeros(len(rows), bool) if masks is None else masks[cid][rows]
            got = system._shards[key][1].dead
            if dead.any():
                np.testing.assert_array_equal(got, np.flatnonzero(dead))
            else:
                assert got is None

    def test_out_of_range_code_raises_after_offsets_are_resident(self, tie_index):
        engine = _tie_engine(tie_index)
        queries = tie_index[2]
        try:
            engine.search(queries)
            system = engine.system
            key = next(iter(_operands(system)))
            shard = system.get_shard(key)
            bad = shard.codes.astype(np.int16)
            bad[0, 0] = system.codebooks.shape[1]
            system.update_shard(key, shard.ids, bad)
            assert system._shards[key][1].ops is None
            with pytest.raises(IndexError, match="codes"):
                engine.search(queries)
            bad[0, 0] = -1
            system.update_shard(key, shard.ids, bad)
            with pytest.raises(IndexError, match="codes"):
                engine.search(queries)
        finally:
            engine.close()

    def test_mutations_invalidate_resident_offsets(self, tie_index):
        base, _, queries = tie_index
        engine = _tie_engine(tie_index)

        def replace_blocks():
            # Same rows as a new code block: every record is dropped.
            system = engine.system
            for rec in list(system._data.values()):
                shard = rec.shard
                system.update_shard(shard.shard_key, shard.ids, shard.codes.copy())

        try:
            engine.search(queries)
            self._assert_cache_consistent(engine.system)
            steps = [
                ("add", lambda: engine.add(base[:12])),
                ("delete", lambda: engine.delete(np.arange(0, 3600, 7))),
                ("add", lambda: engine.add(base[100:110])),
                ("update", replace_blocks),
                ("codebooks", lambda: engine.system.load_codebooks(
                    engine.system.codebooks.copy()
                )),
                ("compact", lambda: engine.compact()),
            ]
            for kind, step in steps:
                before = _operands(engine.system)
                step()
                if kind == "delete":
                    # A deletion only masks: every operand record stays.
                    now = _operands(engine.system)
                    assert now.keys() == before.keys()
                    assert all(now[key] is ops for key, ops in before.items())
                elif kind in ("update", "codebooks"):
                    assert not _operands(engine.system)
                got = engine.search(queries).results
                after = _operands(engine.system)
                assert after
                self._assert_cache_consistent(engine.system)
                changed = [after.get(key) is not ops for key, ops in before.items()]
                assert not any(changed) if kind == "delete" else any(changed)
                ref = engine.reference_search(queries)
                np.testing.assert_array_equal(got.ids, ref.ids)
                np.testing.assert_array_equal(got.distances, ref.distances)
        finally:
            engine.close()


    def test_operand_lifecycle_across_mutations(self, tie_index, tmp_path):
        """A long interleaved add / delete / compact / unload+load
        sequence on split, replicated shards: after every step the
        resident operands equal a fresh build and searches equal
        ``reference_search``. Appends stay pending until a scan, and
        some steps search only two queries, so deletions also mask rows
        of part-covered records and tombstone rows still pending."""
        base, _, queries = tie_index
        layout = LayoutConfig(min_split_size=80, max_copies=2)
        state = {"engine": _tie_engine(tie_index, layout=layout)}
        rng = np.random.default_rng(11)
        path = str(tmp_path / "index.drim")
        added = []

        def add(lo, hi):
            added.append(state["engine"].add(base[lo:hi]))

        def delete(num, recent=0):
            quant = state["engine"].quantized
            masks = quant.tombstone_masks()
            ids = np.concatenate(quant.cluster_ids)
            if masks is not None:
                ids = ids[~np.concatenate(masks)]
            doomed = rng.choice(ids, num, replace=False)
            if recent:
                doomed = np.concatenate([doomed, added[-1][:recent]])
            assert state["engine"].delete(doomed) == len(np.unique(doomed))

        def reload():
            engine = state["engine"]
            config = engine._config
            engine.save(path)
            engine.unload()
            state["engine"] = DrimAnnEngine.load(path, config=config)

        steps = [
            lambda: add(0, 40),
            lambda: delete(60),
            lambda: (add(40, 60), add(60, 75)),
            lambda: (add(75, 100), delete(30, recent=10)),
            lambda: delete(200),
            lambda: state["engine"].compact(),
            lambda: add(100, 130),
            lambda: (delete(40), add(130, 150), delete(20, recent=5)),
            reload,
            lambda: delete(50),
            lambda: add(150, 190),
            lambda: (add(190, 200), delete(100)),
            reload,
            lambda: (add(200, 230), delete(25, recent=30)),
            lambda: state["engine"].compact(),
            lambda: (delete(30), add(230, 260)),
        ]
        try:
            plan = state["engine"].plan
            assert any(len(g) > 1 for g in plan.replica_groups.values())
            assert any(len(g[0]) > 1 for g in plan.replica_groups.values())
            for i, step in enumerate(steps):
                step()
                engine = state["engine"]
                self._assert_liveness(engine)
                self._assert_cache_consistent(engine.system)
                q = queries[:2] if i % 2 else queries
                got = engine.search(q).results
                assert _operands(engine.system)
                self._assert_cache_consistent(engine.system)
                ref = engine.reference_search(q)
                np.testing.assert_array_equal(got.ids, ref.ids)
                np.testing.assert_array_equal(got.distances, ref.distances)
            # Every record, pending appends resolved, is a fresh build.
            system = state["engine"].system
            system._make_resident(list(system._data.values()))
            for rec in system._data.values():
                assert rec.ops.rows == len(rec.shard.ids)
            self._assert_cache_consistent(system)
        finally:
            state["engine"].close()


def _fault_engine(name, fail_at_batch):
    c = CANONICAL_CONFIGS[name]
    ds = canonical_dataset()
    cfg = canonical_config(name)
    plan = FaultPlan(
        num_dpus=c["num_dpus"], config=FaultConfig(), fail_at_batch=fail_at_batch
    )
    return DrimAnnEngine.from_config(
        ds.base,
        cfg.replace(faults=plan),
        heat_queries=ds.queries[:50],
        # A private copy: the cached canonical index must never mutate.
        prebuilt_quantized=_quantized(c["nlist"], c["m"], c["cb"]).compact(),
        seed=0,
    )


class TestOneScheduler:
    """Every round of every search runs on the engine's one scheduler."""

    NAME = "mul-unreplicated"  # its searches defer tasks into a drain round
    # Three default-arm searches with DPU 1 fail-stopping at batch 1, the
    # first search's drain round: ids, distances and breakdown, one JSON
    # line per search, as the engine gave them when the drain ran on a
    # separate filter-off scheduler copy.
    FIXTURE = Path(__file__).parent / "fixtures" / "drain_death_searches.jsonl"

    @pytest.fixture()
    def builds(self, monkeypatch):
        count = {"n": 0}

        class Counting(RuntimeScheduler):
            def __init__(self, *a, **kw):
                count["n"] += 1
                super().__init__(*a, **kw)

        monkeypatch.setattr(engine_mod, "RuntimeScheduler", Counting)
        return count

    def _queries(self):
        num = CANONICAL_CONFIGS[self.NAME]["num_queries"]
        return canonical_dataset().queries[:num]

    def test_built_once_per_engine_build(self, builds):
        engine = _fault_engine(self.NAME, {})
        q = self._queries()
        try:
            assert builds["n"] == 1
            sched = engine.scheduler
            flags = []
            real = sched.schedule_batch

            def spy(tasks, **kw):
                flags.append((kw["static"], kw["defer"]))
                return real(tasks, **kw)

            sched.schedule_batch = spy
            for _ in range(3):
                engine.search(q)
            # Each search ends in one drain round: filter off.
            assert flags.count((False, False)) == 3
            for _ in range(2):
                engine.search(q, with_scheduler=False)
            assert flags[-2:] == [(True, False)] * 2
            engine.add(canonical_dataset().base[:4])
            engine.search(q)
            assert builds["n"] == 1
            assert engine.scheduler is sched
        finally:
            engine.close()

    def test_add_refreshes_group_costs(self):
        engine = _fault_engine(self.NAME, {})
        try:
            sched = engine.scheduler
            before = dict(sched._group_cost)
            engine.add(canonical_dataset().base[:4])
            fresh = RuntimeScheduler(
                engine.plan, sched.config, sched.lut_weight, sched.point_weight
            )
            assert sched._group_info == fresh._group_info
            assert sched._group_cost == fresh._group_cost
            assert sched._group_cost != before
        finally:
            engine.close()

    def test_drain_round_death_matches_frozen_searches(self):
        want = self.FIXTURE.read_text().splitlines()
        engine = _fault_engine(self.NAME, {1: 1})
        q = self._queries()
        try:
            for line in want:
                out = engine.search(q)
                got = json.dumps(
                    {
                        "ids": out.results.ids.tolist(),
                        "distances": out.results.distances.tolist(),
                        "breakdown": out.breakdown.to_dict(),
                    },
                    sort_keys=True,
                )
                assert got == line
            assert engine.scheduler.dead_dpus == {1}
        finally:
            engine.close()
