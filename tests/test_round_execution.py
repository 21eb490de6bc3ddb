"""Round-level host execution: one scan dispatch per search, memoized
charges, and a batch ledger that does not depend on search history.

These are host-side strategies: none of them may move a result, a
ledger entry or a trace event. The history test pins the one defect
they fix — a warm engine's :class:`TimingBreakdown` used to differ
from a fresh engine's in the last ulp, because batch cycles were
differences of the DPUs' lifetime float totals.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import repro.core.engine as engine_mod
import repro.pim.system as system_mod
from repro.pim.dpu import Dpu
from repro.pim.kernels import select_topk, topk_rows
from repro.pim.parallel import scan_shard_group
from repro.pim.trace import Tracer
from repro.testing import CANONICAL_CONFIGS, build_canonical_engine, canonical_dataset

FIXTURES = Path(__file__).parent / "fixtures"


def _queries(name):
    return canonical_dataset().queries[: CANONICAL_CONFIGS[name]["num_queries"]]


def _breakdown_json(engine, queries, adaptive):
    bd = engine.search(queries, adaptive=adaptive).breakdown
    return json.dumps(bd.to_dict(), sort_keys=True)


class TestHistoryFreeLedger:
    @pytest.mark.parametrize("adaptive", ["off", "bound"])
    @pytest.mark.parametrize("name", list(CANONICAL_CONFIGS))
    def test_warm_engine_matches_fresh_engine(self, name, adaptive):
        q = _queries(name)
        fresh = build_canonical_engine(name)
        warm = build_canonical_engine(name)
        try:
            want = _breakdown_json(fresh, q, adaptive)
            for _ in range(3):
                warm.search(q, adaptive=adaptive)
            assert _breakdown_json(warm, q, adaptive) == want
        finally:
            fresh.close()
            warm.close()

    def test_lifetime_ledgers_still_accumulate(self):
        name = "base-balanced"
        q = _queries(name)
        engine = build_canonical_engine(name)
        try:
            engine.search(q)
            once = [dict(d.cycles_by_kernel) for d in engine.system.dpus]
            engine.search(q)
            for d, first in zip(engine.system.dpus, once):
                for kname, cycles in first.items():
                    assert d.cycles_by_kernel[kname] > cycles
        finally:
            engine.close()


class TestTotalCyclesOffSearchPath:
    @pytest.fixture()
    def reads(self, monkeypatch):
        counter = {"n": 0}
        raw = Dpu.total_cycles.fget

        def counted(self):
            counter["n"] += 1
            return raw(self)

        monkeypatch.setattr(Dpu, "total_cycles", property(counted))
        return counter

    def test_untraced_search_never_reads_total_cycles(self, reads):
        name = "base-balanced"
        engine = build_canonical_engine(name)
        try:
            engine.search(_queries(name))
            engine.search(_queries(name), adaptive="bound")
        finally:
            engine.close()
        assert reads["n"] == 0

    def test_traced_events_match_the_recorded_timeline(self, reads):
        # tests/fixtures/trace_events_base_balanced.json holds the event
        # list of this exact run under per-group, unmemoized charging:
        # [kernel, dpu, start_cycle, end_cycle, batch, detail] per event.
        tracer = Tracer()
        engine = build_canonical_engine("base-balanced")
        engine.system.tracer = tracer
        q = canonical_dataset().queries[:6]
        try:
            engine.search(q)
            engine.search(q, adaptive="bound")
        finally:
            engine.close()
        got = [
            [e.name, e.dpu_id, e.start_cycle, e.end_cycle, e.batch, e.detail]
            for e in tracer.events
        ]
        want = json.loads((FIXTURES / "trace_events_base_balanced.json").read_text())
        assert got == want
        assert reads["n"] == len(got)


class TestOneDispatchPerRound:
    @pytest.fixture()
    def engine(self):
        engine = build_canonical_engine("split-replicated")
        yield engine
        engine.close()

    def _spy(self, monkeypatch, calls):
        real = system_mod.scan_jobs_stacked

        def spy(jobs, backend=None):
            calls.append(len(jobs))
            return real(jobs, backend=backend)

        monkeypatch.setattr(system_mod, "scan_jobs_stacked", spy)

    def test_one_stacked_call_per_search(self, monkeypatch):
        """However many rounds a search charges — the main round and the
        drain, or one round per query — it makes one ``compute_tasks``
        call, one stacked scan and one fold."""
        engine = build_canonical_engine("mul-unreplicated", batch_size=8)
        q = _queries("mul-unreplicated")
        rounds, computes, folds, calls = [], [], [], []
        for owner, attr, log in (
            (engine.system, "run_batch", rounds),
            (engine.system, "compute_tasks", computes),
            (engine_mod, "merge_topk_pools", folds),
        ):
            def counted(*a, _real=getattr(owner, attr), _log=log, **kw):
                _log.append(1)
                return _real(*a, **kw)

            monkeypatch.setattr(owner, attr, counted)
        self._spy(monkeypatch, calls)
        try:
            engine.search(q)
        finally:
            engine.close()
        assert len(rounds) > 2
        assert len(computes) == len(folds) == len(calls) == 1
        assert calls[0] > 1  # the search's one scan carries many jobs

    def test_lut_budget_flush_is_invisible(self, engine, monkeypatch):
        """With ``QUERY_SLAB_BYTES = 1`` the flush cuts into one query
        slab per query; ids, distances and the breakdown stay put."""
        q = _queries("split-replicated")
        base = engine.search(q)
        calls = []
        self._spy(monkeypatch, calls)
        monkeypatch.setattr(system_mod, "QUERY_SLAB_BYTES", 1)
        tiny = engine.search(q)
        assert len(calls) == len(q)
        np.testing.assert_array_equal(tiny.results.ids, base.results.ids)
        np.testing.assert_array_equal(tiny.results.distances, base.results.distances)
        assert tiny.breakdown.to_dict() == base.breakdown.to_dict()

    def test_whole_matrix_search_is_one_slab(self, monkeypatch):
        """The slab budget counts a task's query operands, ``D *
        (itemsize + 8)`` bytes: a 300-query search at nprobe 8, M 32, CB
        128 is one stacked call, where a term table's ``8 * M * CB``
        bytes per task would have cut it in two."""
        from repro import DrimAnnEngine, EngineConfig, IndexParams, load_dataset

        ds = load_dataset("sift-like-20k", seed=0, num_queries=300, ground_truth_k=10)
        cfg = EngineConfig(index=IndexParams(
            nlist=64, nprobe=8, k=10, num_subspaces=32, codebook_size=128
        ))
        engine = DrimAnnEngine.from_config(ds.base, cfg, seed=0)
        tasks = []
        real = system_mod.scan_jobs_stacked

        def spy(jobs, backend=None):
            tasks.append(sum(len(job[0]) for job in jobs))
            return real(jobs, backend=backend)

        monkeypatch.setattr(system_mod, "scan_jobs_stacked", spy)
        try:
            engine.search(ds.queries)
            task_bytes = ds.base.shape[1] * (engine.system._decode_table.itemsize + 8)
        finally:
            engine.close()
        assert len(tasks) == 1 and tasks[0] >= 300 * 8
        assert tasks[0] * task_bytes <= system_mod.QUERY_SLAB_BYTES
        assert tasks[0] * 32 * 128 * 8 > system_mod.QUERY_SLAB_BYTES

    def test_pool_gets_one_scan_groups_per_search(self, engine, monkeypatch):
        system = engine.system
        calls = []

        class Pool:
            attached = True
            parallel = True

            def scan_groups(self, jobs, keys, backend):
                calls.append(len(jobs))
                assert len(keys) == len(jobs)
                return [scan_shard_group(*j, backend=backend) for j in jobs]

            def take_fallback_events(self):
                return []

        q = _queries("split-replicated")
        base = engine.search(q)
        monkeypatch.setattr(system, "executor", Pool())
        monkeypatch.setattr(system, "_residency_dirty", False)
        monkeypatch.setattr(system.planner, "choose", lambda **kw: "pool")
        got = engine.search(q)
        assert len(calls) == 1
        np.testing.assert_array_equal(got.results.ids, base.results.ids)
        assert got.breakdown.to_dict() == base.breakdown.to_dict()


class TestStackedTopk:
    @pytest.mark.parametrize("k", [1, 3, 7, 9])
    def test_matches_per_job_topk_rows_under_ties(self, rng, k):
        """One selection over a padded block of several jobs' rows picks
        what ``topk_rows`` picks per job."""
        # Distances from {0..3} force ties at every top-k boundary.
        widths = [7, 4, 7, 2, 5]
        dists = [rng.integers(0, 4, size=(3, n)).astype(np.int64) for n in widths]
        ids = [rng.permutation(1000)[:n].astype(np.int64) for n in widths]
        block = np.full((15, 7), np.iinfo(np.int64).max)
        for j, (d, i) in enumerate(zip(dists, ids)):
            block[3 * j : 3 * j + 3, : len(i)] = d
        id_start = np.repeat(np.cumsum([0] + widths[:-1]), 3)
        got_ids, got_dists = select_topk(block, np.concatenate(ids), id_start, k)
        assert got_ids.shape == got_dists.shape == (15, min(k, 7))
        for j, (d, i) in enumerate(zip(dists, ids)):
            want = topk_rows(d, i, k)
            width = want[0].shape[1]
            rows = slice(3 * j, 3 * j + 3)
            np.testing.assert_array_equal(got_ids[rows, :width], want[0])
            np.testing.assert_array_equal(got_dists[rows, :width], want[1])
            assert got_ids.dtype == want[0].dtype
            assert got_dists.dtype == want[1].dtype


class TestChargeMemo:
    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(system_mod, "CHARGE_MEMO_ENTRIES", 2)
        engine = build_canonical_engine("base-balanced")
        try:
            engine.search(_queries("base-balanced"))
            assert 1 <= len(engine.system._charge_memo) <= 2
        finally:
            engine.close()

    def test_dpu_keeps_no_per_charge_log(self):
        engine = build_canonical_engine("base-balanced")
        try:
            for _ in range(2):
                engine.search(_queries("base-balanced"))
            for d in engine.system.dpus:
                assert not any(
                    isinstance(v, list) for v in vars(d).values()
                )
        finally:
            engine.close()
