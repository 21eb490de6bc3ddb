"""The mutable index lifecycle: add/delete/compact on the quantized
index and the engine, the save/load round trip against the frozen
goldens, crash-mid-compaction recovery, and the observability hooks.

The load-bearing invariant throughout: every mutation path must leave
the engine bit-identical to ``reference_search`` on the same quantized
state — ids, distances, *and* (for save/load and compaction, which
claim to reproduce the layout) the per-kernel cycle ledger.
"""

import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core import (
    DrimAnnEngine,
    EngineConfig,
    IndexParams,
    LayoutConfig,
    SearchParams,
)
from repro.core.persist import load_index, save_index
from repro.core.quantized import QuantizedIndexData
from repro.faults.disk import CrashPoint, SimulatedCrash
from repro.pim.backend import numpy_backend
from repro.pim.config import PimSystemConfig
from repro.pim.system import PimSystem
from repro.testing.goldens import (
    CANONICAL_CONFIGS,
    ROUND_SIZES,
    build_canonical_engine,
    canonical_dataset,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "fixtures", "golden_cycles.json"
)


def _fresh_quantized(small_quantized):
    """A private deep copy — the session fixture must never be mutated."""
    return small_quantized.compact()


def _engine(quantized, params, *, batch_size=None, shard_workers=0,
            num_dpus=8, obs=None):
    ds = canonical_dataset()
    kwargs = {}
    if obs is not None:
        kwargs["obs"] = obs
    config = EngineConfig(
        index=params,
        search=SearchParams(batch_size=batch_size),
        system=PimSystemConfig(num_dpus=num_dpus, shard_workers=shard_workers),
        layout=LayoutConfig(min_split_size=400, max_copies=2),
        **kwargs,
    )
    return DrimAnnEngine.from_quantized(
        quantized, config, heat_queries=ds.queries[:50], seed=0
    )


def _operands(system):
    """Each data shard's resident scan operands, by its first placement."""
    return {
        rec.shard.shard_key: rec.ops
        for rec in system._data.values()
        if rec.ops is not None
    }


def _assert_matches_reference(engine, queries):
    res, _ = engine.search(queries)
    ref = engine.reference_search(queries)
    np.testing.assert_array_equal(res.ids, ref.ids)
    np.testing.assert_array_equal(res.distances, ref.distances)
    return res


# ---------------------------------------------------------------- quantized
class TestQuantizedLifecycle:
    def test_encode_assigns_and_codes(self, small_quantized, small_ds):
        vecs = small_ds.base[:16]
        assign, codes = small_quantized.encode(vecs)
        assert assign.shape == (16,)
        assert codes.shape == (16, small_quantized.num_subspaces)
        assert assign.min() >= 0 and assign.max() < small_quantized.nlist

    def test_add_then_search_finds_new_points(
        self, small_quantized, small_ds
    ):
        quant = _fresh_quantized(small_quantized)
        rng = np.random.default_rng(3)
        vecs = rng.integers(0, 256, size=(8, quant.dim), dtype=np.int64).astype(
            np.uint8
        )
        n_before = quant.num_points
        new_ids, assign = quant.add(vecs)
        assert quant.num_points == n_before + 8
        np.testing.assert_array_equal(
            new_ids, np.arange(n_before, n_before + 8)
        )
        # An exact-match query must surface the added point.
        res = quant.reference_search(vecs[:1], 1, quant.nlist)
        assert res.ids[0, 0] == new_ids[0]

    def test_add_rejects_duplicate_ids(self, small_quantized):
        quant = _fresh_quantized(small_quantized)
        vecs = np.zeros((1, quant.dim), dtype=np.uint8)
        with pytest.raises(ValueError, match="id"):
            quant.add(vecs, ids=np.array([0]))  # id 0 already exists

    def test_delete_hides_points_from_search(self, small_quantized, small_ds):
        quant = _fresh_quantized(small_quantized)
        q = small_ds.queries[:10]
        before = quant.reference_search(q, 10, 8)
        victims = np.unique(before.ids[before.ids >= 0])[:20]
        assert quant.delete(victims) == len(victims)
        after = quant.reference_search(q, 10, 8)
        assert not np.intersect1d(after.ids, victims).size

    def test_delete_is_idempotent(self, small_quantized):
        quant = _fresh_quantized(small_quantized)
        victim = quant.cluster_ids[0][:1]
        assert quant.delete(victim) == 1
        assert quant.delete(victim) == 0
        assert quant.num_tombstones == 1

    def test_compact_drops_tombstones(self, small_quantized):
        quant = _fresh_quantized(small_quantized)
        victims = quant.cluster_ids[0][:5]
        quant.delete(victims)
        n_live = quant.num_live_points
        compacted = quant.compact()
        assert compacted.num_points == n_live
        assert compacted.num_tombstones == 0
        assert not np.intersect1d(
            np.concatenate(compacted.cluster_ids), victims
        ).size

    def test_compact_preserves_search(self, small_quantized, small_ds):
        quant = _fresh_quantized(small_quantized)
        q = small_ds.queries[:20]
        quant.delete(np.unique(quant.reference_search(q, 5, 4).ids)[:10])
        before = quant.reference_search(q, 10, 8)
        compacted = quant.compact()
        after = compacted.reference_search(q, 10, 8)
        np.testing.assert_array_equal(before.ids, after.ids)
        np.testing.assert_array_equal(before.distances, after.distances)


def _random_quantized(rng, n, *, nlist=4, m=2, cb=16, dsub=3, tie=False):
    """A small random index from ``from_vectors``; ``tie`` duplicates a
    codebook entry in every subspace so the encoder's argmin sees ties."""
    centroids = rng.integers(
        0, 256, size=(nlist, m * dsub), dtype=np.int64
    ).astype(np.uint8)
    codebooks = rng.integers(
        -200, 200, size=(m, cb, dsub), dtype=np.int64
    ).astype(np.int16)
    if tie:
        codebooks[:, cb - 1] = codebooks[:, 0]
    vectors = rng.integers(
        0, 256, size=(n, m * dsub), dtype=np.int64
    ).astype(np.uint8)
    return QuantizedIndexData.from_vectors(centroids, codebooks, vectors), vectors


def _reference_codes(quant, vectors):
    """The int64 oracle: CL by locate, then argmin over build_luts."""
    assign = quant.locate(vectors, 1)[:, 0]
    res = vectors.astype(np.int32) - quant.centroids[assign].astype(np.int32)
    return assign, quant.build_luts(res).argmin(axis=2)


class TestEncode:
    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_encode_matches_int64_reference(self, data):
        rng = np.random.default_rng(
            data.draw(st.integers(0, 2**31 - 1), label="seed")
        )
        quant, _ = _random_quantized(
            rng,
            1,
            m=data.draw(st.sampled_from([1, 2, 4]), label="m"),
            cb=data.draw(st.sampled_from([2, 16, 300]), label="cb"),
            tie=data.draw(st.booleans(), label="tie"),
        )
        n = data.draw(st.integers(1, 50), label="n")
        vectors = rng.integers(
            0, 256, size=(n, quant.dim), dtype=np.int64
        ).astype(np.uint8)
        assign, codes = quant.encode(vectors)
        ref_assign, ref_codes = _reference_codes(quant, vectors)
        np.testing.assert_array_equal(assign, ref_assign)
        np.testing.assert_array_equal(codes, ref_codes)
        assert codes.dtype == (np.uint8 if quant.codebook_size <= 256 else np.uint16)

    def test_ties_take_the_first_entry(self):
        quant, vectors = _random_quantized(
            np.random.default_rng(5), 200, tie=True
        )
        _, codes = quant.encode(vectors)
        assert not (codes == quant.codebook_size - 1).any()
        np.testing.assert_array_equal(codes, _reference_codes(quant, vectors)[1])

    def test_multi_slab_encode(self, monkeypatch):
        quant, vectors = _random_quantized(np.random.default_rng(9), 103)
        want = quant.encode(vectors)
        m, cb = quant.num_subspaces, quant.codebook_size
        # Three (M, rows, CB) table rows per slab: 103 rows take 35 slabs.
        monkeypatch.setattr(numpy_backend, "LUT_CHUNK_BYTES", 3 * m * cb * 8)
        slabs = []
        encode_slab = numpy_backend._encode_slab

        def spy(residuals, terms, exact, out):
            assert exact  # the float64 matmul path
            slabs.append(len(residuals))
            return encode_slab(residuals, terms, exact, out)

        monkeypatch.setattr(numpy_backend, "_encode_slab", spy)
        got = quant.encode(vectors)
        monkeypatch.undo()
        assert slabs == [3] * 34 + [1]
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


class TestIdBoundary:
    """Malformed ids are rejected before anything is mutated."""

    @pytest.mark.parametrize(
        "ids, exc, match",
        [
            (np.array([3.7]), ValueError, "integer values"),
            (np.array([np.nan]), ValueError, "finite"),
            (np.array([np.inf]), ValueError, "finite"),
            (np.array([-1]), ValueError, "non-negative"),
            (np.array([4, -7]), ValueError, "non-negative"),
            (np.array(["5"]), TypeError, "numeric"),
            (np.array([True]), TypeError, "numeric"),
            (np.array([[1, 2]]), ValueError, "ids must be 1-D"),
        ],
    )
    def test_delete_rejects(self, small_quantized, ids, exc, match):
        quant = _fresh_quantized(small_quantized)
        with pytest.raises(exc, match=match):
            quant.delete(ids)
        assert quant.num_tombstones == 0

    @pytest.mark.parametrize(
        "ids, exc, match",
        [
            (np.array([90000.9, 90001.2]), ValueError, "integer values"),
            (np.array([-1, -7]), ValueError, "non-negative"),
            (np.array([np.nan, 90001.0]), ValueError, "finite"),
            (np.array(["a", "b"]), TypeError, "numeric"),
            (np.array([True, False]), TypeError, "numeric"),
            (np.array([[90000], [90001]]), ValueError, "ids must be 1-D"),
        ],
    )
    def test_add_rejects(self, small_quantized, ids, exc, match):
        quant = _fresh_quantized(small_quantized)
        n = quant.num_points
        with pytest.raises(exc, match=match):
            quant.add(np.zeros((2, quant.dim), dtype=np.uint8), ids=ids)
        assert quant.num_points == n

    def test_integral_floats_are_accepted(self, small_quantized):
        quant = _fresh_quantized(small_quantized)
        new_ids, _ = quant.add(
            np.zeros((2, quant.dim), dtype=np.uint8),
            ids=np.array([90000.0, 90001.0]),
        )
        assert new_ids.dtype == np.int64
        np.testing.assert_array_equal(new_ids, [90000, 90001])
        assert quant.delete(np.array([90000.0])) == 1

    def test_engine_rejects_before_mutating(
        self, small_quantized, small_params, small_ds
    ):
        engine = _engine(_fresh_quantized(small_quantized), small_params)
        try:
            with pytest.raises(ValueError, match="integer values"):
                engine.delete(np.array([3.7]))
            with pytest.raises(TypeError, match="numeric"):
                engine.delete(np.array(["5"]))
            with pytest.raises(ValueError, match="ids must be 1-D"):
                engine.delete(np.array([[1, 2]]))
            with pytest.raises(ValueError, match="ids must be 1-D"):
                engine.add(
                    np.zeros((2, small_quantized.dim), dtype=np.uint8),
                    ids=[[90000, 90001]],
                )
            with pytest.raises(ValueError, match="non-negative"):
                engine.add(
                    np.zeros((2, small_quantized.dim), dtype=np.uint8),
                    ids=[-1, -7],
                )
            assert engine.quantized.num_tombstones == 0
            assert engine.quantized.num_points == small_quantized.num_points
            res = _assert_matches_reference(engine, small_ds.queries[:10])
            assert (res.ids >= 0).all()
        finally:
            engine.close()


def _per_cluster_delete(quant, ids):
    """The per-cluster definition of ``delete``: every live row whose
    id is in ``ids`` is newly marked, counted over clusters."""
    masks = quant._ensure_tombstones()
    count = 0
    for cid in range(quant.nlist):
        hit = np.isin(quant.cluster_ids[cid], ids) & ~masks[cid]
        masks[cid] |= hit
        count += int(hit.sum())
    return count


class TestDeleteSemantics:
    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_count_matches_per_cluster_definition(self, data):
        rng = np.random.default_rng(
            data.draw(st.integers(0, 2**31 - 1), label="seed")
        )
        n = data.draw(st.integers(1, 60), label="n")
        quant, _ = _random_quantized(rng, n, nlist=8)
        oracle = quant.compact()
        # Duplicates, unknown ids and ids already deleted by an earlier
        # batch, spread over every cluster.
        for _ in range(3):
            ids = np.asarray(
                data.draw(st.lists(st.integers(0, n + 10), max_size=30)),
                dtype=np.int64,
            )
            assert quant.delete(ids) == _per_cluster_delete(oracle, ids)
            for got, want in zip(
                quant._ensure_tombstones(), oracle._ensure_tombstones()
            ):
                np.testing.assert_array_equal(got, want)

    def test_touched_clusters_are_returned(self, small_quantized):
        quant = _fresh_quantized(small_quantized)
        victims = np.concatenate(
            [quant.cluster_ids[c][:2] for c in (3, 17, 40)]
        )
        count, touched = quant._tombstone(np.concatenate([victims, victims]))
        assert count == 6
        np.testing.assert_array_equal(touched, [3, 17, 40])
        count, touched = quant._tombstone(victims)
        assert count == 0 and len(touched) == 0


class TestLifecycleProperty:
    @settings(deadline=None, max_examples=20)
    @given(data=st.data())
    def test_add_delete_compact_equals_build_from_survivors(self, data):
        """add -> delete -> compact == from_vectors(survivors)."""
        rng = np.random.default_rng(
            data.draw(st.integers(0, 2**31 - 1), label="seed")
        )
        n = data.draw(st.integers(1, 40), label="n")
        quant, vectors = _random_quantized(rng, n)
        num_dead = data.draw(st.integers(0, n - 1), label="num_dead")
        dead = np.asarray(
            sorted(rng.choice(n, size=num_dead, replace=False)), dtype=np.int64
        )
        assert quant.delete(dead) == num_dead
        compacted = quant.compact()

        survivors = np.setdiff1d(np.arange(n), dead)
        rebuilt = QuantizedIndexData.from_vectors(
            quant.centroids, quant.codebooks, vectors[survivors], ids=survivors
        )
        assert compacted.num_points == rebuilt.num_points
        for a, b in zip(compacted.cluster_ids, rebuilt.cluster_ids):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(compacted.cluster_codes, rebuilt.cluster_codes):
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------- engine
class TestEngineMutation:
    @pytest.mark.parametrize("cell", list(ROUND_SIZES))
    def test_delete_stays_bitexact(
        self, small_quantized, small_ds, small_params, cell
    ):
        quant = _fresh_quantized(small_quantized)
        engine = _engine(quant, small_params, batch_size=ROUND_SIZES[cell])
        q = small_ds.queries[:40]
        try:
            first = engine.search(q)[0]
            victims = np.unique(first.ids[first.ids >= 0])[:30]
            assert engine.delete(victims) == len(victims)
            res = _assert_matches_reference(engine, q)
            assert not np.intersect1d(res.ids, victims).size
        finally:
            engine.close()

    @pytest.mark.parametrize("path", ["vectorized", "pool"])
    def test_delete_stays_bitexact_across_plans(
        self, small_quantized, small_ds, small_params, path
    ):
        """Tombstones hold on both paths; the pool applies the live-row
        filter worker-side against the full resident arrays."""
        quant = _fresh_quantized(small_quantized)
        engine = _engine(
            quant, small_params, shard_workers=2 if path == "pool" else 0
        )
        q = small_ds.queries[:30]
        try:
            engine.delete(np.arange(0, 3000, 7))
            engine.system.warm_pool()
            _assert_matches_reference(engine, q)
        finally:
            engine.close()
        assert engine.system.planner.decisions.get(path, 0) >= 1

    def test_delete_reduces_ts_but_not_dc_cycles(
        self, small_quantized, small_ds, small_params
    ):
        """Tombstones shrink the top-k (TS) work but the scan (DC) still
        reads every stored row — the ledger must charge honestly."""
        q = small_ds.queries[:30]
        quant_a = _fresh_quantized(small_quantized)
        engine_a = _engine(quant_a, small_params)
        try:
            bd_clean = engine_a.search(q)[1]
        finally:
            engine_a.close()
        quant_b = _fresh_quantized(small_quantized)
        engine_b = _engine(quant_b, small_params)
        try:
            engine_b.delete(np.arange(0, 8000, 2))
            bd_tomb = engine_b.search(q)[1]
        finally:
            engine_b.close()
        assert bd_tomb.kernel_cycles["DC"] == bd_clean.kernel_cycles["DC"]
        assert bd_tomb.kernel_cycles["TS"] < bd_clean.kernel_cycles["TS"]

    def test_add_stays_bitexact(self, small_quantized, small_ds, small_params):
        quant = _fresh_quantized(small_quantized)
        engine = _engine(quant, small_params)
        rng = np.random.default_rng(11)
        vecs = rng.integers(
            0, 256, size=(32, quant.dim), dtype=np.int64
        ).astype(np.uint8)
        try:
            new_ids = engine.add(vecs)
            assert len(new_ids) == 32
            _assert_matches_reference(engine, small_ds.queries[:40])
            # The added vectors are reachable through the engine.
            res = engine.search(vecs[:4])[0]
            assert np.intersect1d(res.ids, new_ids).size
        finally:
            engine.close()

    def test_add_then_delete_then_compact(
        self, small_quantized, small_ds, small_params
    ):
        quant = _fresh_quantized(small_quantized)
        engine = _engine(quant, small_params)
        rng = np.random.default_rng(13)
        q = small_ds.queries[:30]
        try:
            new_ids = engine.add(
                rng.integers(0, 256, size=(16, quant.dim), dtype=np.int64)
                .astype(np.uint8)
            )
            engine.delete(new_ids[:8])
            engine.delete(np.arange(0, 2000, 3))
            before = engine.search(q)[0]
            stats = engine.compact()
            assert stats["removed_tombstones"] == 8 + len(np.arange(0, 2000, 3))
            assert engine.quantized.num_tombstones == 0
            after = _assert_matches_reference(engine, q)
            np.testing.assert_array_equal(before.ids, after.ids)
            np.testing.assert_array_equal(before.distances, after.distances)
        finally:
            engine.close()

    def test_delete_keeps_other_clusters_live_cache(
        self, small_quantized, small_ds, small_params
    ):
        quant = _fresh_quantized(small_quantized)
        engine = _engine(quant, small_params)
        q = small_ds.queries[:40]
        try:
            engine.delete(np.arange(0, 8000, 3))
            engine.search(q)
            before = _operands(engine.system)
            # A cluster whose resident operands the search built.
            target = min(engine.plan.shards[k].cluster_id for k in before)
            live = ~quant.tombstone_masks()[target]
            targets = {
                key
                for group in engine.plan.replica_groups[target]
                for key in group
            }
            records = {
                id(rec): rec for rec in (engine.system._shards[k][1] for k in targets)
            }.values()
            lives = {id(rec): rec.num_live for rec in records}
            assert engine.delete(quant.cluster_ids[target][live][:1]) == 1
            cache = _operands(engine.system)
            # A deletion only masks: every record keeps its operands, the
            # target cluster's included, and the part that held the row
            # has exactly one more dead row.
            assert cache.keys() == before.keys()
            assert all(cache[k] is before[k] for k in before)
            assert any(k not in targets for k in before)
            assert sorted(
                lives[id(rec)] - rec.num_live for rec in records
            ) == [0] * (len(records) - 1) + [1]
            _assert_matches_reference(engine, q)
        finally:
            engine.close()

    def test_add_keeps_other_clusters_live_cache(
        self, small_quantized, small_ds, small_params
    ):
        quant = _fresh_quantized(small_quantized)
        engine = _engine(quant, small_params)
        q = small_ds.queries[:40]
        try:
            engine.delete(np.arange(0, 8000, 3))
            engine.search(q)
            before = _operands(engine.system)
            # A centroid is nearest to its own cluster.
            assign, _ = quant.encode(quant.centroids[7:8])
            engine.add(quant.centroids[7:8])
            cache = _operands(engine.system)
            target = int(assign[0])
            kept = {
                k
                for k in before
                if engine.plan.shards[k].cluster_id != target
            }
            assert kept and all(cache[k] is before[k] for k in kept)
            _assert_matches_reference(engine, q)
        finally:
            engine.close()

    def test_one_system_call_per_touched_part(
        self, small_quantized, small_ds, small_params, monkeypatch
    ):
        """On a replicated, split layout, ``add`` makes one
        ``append_shard`` call per grown (cluster, last part) and
        ``delete`` one ``set_shard_liveness`` call per part of each
        touched cluster, whatever the part's replica count."""
        quant = _fresh_quantized(small_quantized)
        engine = _engine(quant, small_params)
        plan = engine.plan
        groups = plan.replica_groups
        assert any(len(g) > 1 for g in groups.values())
        assert any(len(g[0]) > 1 for g in groups.values())
        calls = []

        def spy(name):
            real = getattr(PimSystem, name)

            def call(system, key, *args):
                shard = plan.shards[key]
                calls.append((name, shard.cluster_id, shard.part_id))
                return real(system, key, *args)

            monkeypatch.setattr(PimSystem, name, call)

        spy("append_shard")
        spy("set_shard_liveness")
        rng = np.random.default_rng(5)
        q = small_ds.queries[:20]
        try:
            vectors = rng.integers(0, 256, size=(40, quant.dim)).astype(np.uint8)
            touched = np.unique(quant.encode(vectors)[0]).tolist()
            engine.add(vectors)
            assert sorted(calls) == [
                ("append_shard", c, len(groups[c][0]) - 1) for c in touched
            ]
            calls.clear()
            touched = [c for c in sorted(groups) if len(groups[c]) > 1][:3]
            doomed = np.concatenate([quant.cluster_ids[c][::50] for c in touched])
            assert engine.delete(doomed) == len(doomed)
            assert sorted(calls) == [
                ("set_shard_liveness", c, part)
                for c in touched
                for part in range(len(groups[c][0]))
            ]
            _assert_matches_reference(engine, q)
        finally:
            engine.close()

    @pytest.mark.parametrize("path", ["vectorized", "pool"])
    def test_interleaved_mutation_bitexact_across_plans(
        self, small_quantized, small_ds, small_params, path
    ):
        quant = _fresh_quantized(small_quantized)
        engine = _engine(
            quant, small_params, shard_workers=2 if path == "pool" else 0
        )
        rng = np.random.default_rng(17)
        q = small_ds.queries[:30]
        try:
            for step in range(3):
                engine.add(
                    rng.integers(0, 256, size=(24, quant.dim), dtype=np.int64)
                    .astype(np.uint8)
                )
                engine.delete(rng.choice(quant.num_points, 300, replace=False))
                engine.system.warm_pool()
                res = _assert_matches_reference(engine, q)
                dead = np.concatenate(
                    [
                        ids[m]
                        for ids, m in zip(
                            quant.cluster_ids, quant.tombstone_masks()
                        )
                    ]
                )
                assert not np.intersect1d(res.ids, dead).size
        finally:
            engine.close()
        assert engine.system.planner.decisions.get(path, 0) >= 1

    def test_unload_guards_search(self, small_quantized, small_params):
        quant = _fresh_quantized(small_quantized)
        engine = _engine(quant, small_params)
        engine.unload()
        engine.unload()  # idempotent
        with pytest.raises(RuntimeError, match="unloaded"):
            engine.search(np.zeros((1, 128), dtype=np.uint8))


# ---------------------------------------------------------------- durability
class TestSaveLoadGoldenMatrix:
    """``save -> load`` must reproduce the frozen goldens: the loaded
    engine is the *same* engine, down to the cycle ledger."""

    @pytest.fixture(scope="class")
    def goldens(self):
        with open(GOLDEN_PATH) as f:
            return json.load(f)

    @pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
    def test_loaded_engine_matches_golden_cycles(
        self, name, goldens, tmp_path
    ):
        c = CANONICAL_CONFIGS[name]
        ds = canonical_dataset()
        engine = build_canonical_engine(
            name, index_path=str(tmp_path / f"{name}.drim")
        )
        try:
            res, bd = engine.search(ds.queries[: c["num_queries"]])
        finally:
            engine.close()
        want = goldens[name]["kernel_cycles"]
        got = {k: v for k, v in sorted(bd.kernel_cycles.items())}
        assert got == pytest.approx(want), (
            f"save/load round trip drifted from the golden ledger for "
            f"{name!r}"
        )

    @pytest.mark.parametrize("cell", list(ROUND_SIZES))
    @pytest.mark.parametrize("path", ["vectorized", "pool"])
    def test_loaded_engine_bitexact_per_mode(
        self, cell, path, tmp_path, pool_takes_small_rounds
    ):
        """A loaded engine matches the direct one on both paths (a
        loaded engine's pool hosts its arena from the mapped file)."""
        name = "split-replicated"
        ds = canonical_dataset()
        q = ds.queries[:40]
        workers = 2 if path == "pool" else 0
        runs = []
        for index_path in (None, str(tmp_path / "rt.drim")):
            engine = build_canonical_engine(
                name,
                batch_size=ROUND_SIZES[cell],
                shard_workers=workers,
                index_path=index_path,
            )
            try:
                engine.system.warm_pool()
                runs.append(engine.search(q))
            finally:
                engine.close()
            assert engine.system.planner.decisions.get(path, 0) >= 1
        (res_a, bd_a), (res_b, bd_b) = runs
        np.testing.assert_array_equal(res_a.ids, res_b.ids)
        np.testing.assert_array_equal(res_a.distances, res_b.distances)
        assert bd_a.kernel_cycles == bd_b.kernel_cycles

    def test_tombstoned_roundtrip_bitexact(
        self, small_quantized, small_ds, small_params, tmp_path
    ):
        quant = _fresh_quantized(small_quantized)
        engine = _engine(quant, small_params)
        q = small_ds.queries[:30]
        path = str(tmp_path / "t.drim")
        try:
            engine.delete(np.arange(0, 5000, 4))
            res_a, bd_a = engine.search(q)
            engine.save(path)
        finally:
            engine.close()
        loaded = DrimAnnEngine.load(path, config=engine._config)
        try:
            assert loaded.quantized.num_tombstones == quant.num_tombstones
            res_b, bd_b = loaded.search(q)
        finally:
            loaded.close()
        np.testing.assert_array_equal(res_a.ids, res_b.ids)
        np.testing.assert_array_equal(res_a.distances, res_b.distances)
        assert bd_a.kernel_cycles == bd_b.kernel_cycles

    def test_load_rejects_mismatched_config(
        self, small_quantized, small_params, tmp_path
    ):
        from dataclasses import replace

        path = str(tmp_path / "c.drim")
        save_index(small_quantized, path)
        bad = EngineConfig(index=replace(small_params, nlist=32))
        with pytest.raises(ValueError, match="nlist"):
            DrimAnnEngine.load(path, config=bad)

    def test_load_without_config_derives_one(
        self, small_quantized, tmp_path
    ):
        path = str(tmp_path / "d.drim")
        save_index(small_quantized, path)
        engine = DrimAnnEngine.load(path)
        try:
            assert engine.params.nlist == small_quantized.nlist
            res, _ = engine.search(
                np.zeros((2, small_quantized.dim), dtype=np.uint8)
            )
            assert res.ids.shape == (2, engine.params.k)
        finally:
            engine.close()


class TestCrashMidCompaction:
    def test_crashed_compaction_recovers(
        self, small_quantized, small_ds, small_params, tmp_path
    ):
        quant = _fresh_quantized(small_quantized)
        engine = _engine(quant, small_params)
        q = small_ds.queries[:20]
        path = str(tmp_path / "idx.drim")
        try:
            engine.save(path)
            before_bytes = open(path, "rb").read()
            engine.delete(np.arange(0, 3000, 5))
            res_before = engine.search(q)[0]
            with CrashPoint("staged"):
                with pytest.raises(SimulatedCrash):
                    engine.compact()
            # The on-disk index is the pre-compaction file, intact.
            assert open(path, "rb").read() == before_bytes
            load_index(path)
            # The in-memory engine is still the tombstoned one and still
            # answers bit-identically.
            assert engine.quantized.num_tombstones > 0
            res_after = _assert_matches_reference(engine, q)
            np.testing.assert_array_equal(res_before.ids, res_after.ids)
            # A retry (post-"restart") succeeds and drops the tombstones.
            stats = engine.compact()
            assert stats["removed_tombstones"] == len(np.arange(0, 3000, 5))
            assert load_index(path).num_tombstones == 0
        finally:
            engine.close()


class TestObservability:
    def test_load_and_tombstone_metrics(
        self, small_quantized, small_params, small_ds, tmp_path
    ):
        from repro.obs import ObsConfig

        path = str(tmp_path / "o.drim")
        save_index(_fresh_quantized(small_quantized), path)
        config = EngineConfig(
            index=small_params,
            system=PimSystemConfig(num_dpus=8),
            layout=LayoutConfig(min_split_size=400, max_copies=2),
            obs=ObsConfig(enabled=True),
        )
        engine = DrimAnnEngine.load(path, config=config)
        try:
            engine.delete(np.arange(0, 1000, 2))
            snap = engine.observer.snapshot()
            series = {
                s["labels"].get("phase")
                for s in snap.series("drimann_index_load_seconds")
            }
            assert {"open", "assemble"} <= series
            gauges = snap.series("drimann_index_tombstone_ratio")
            assert gauges and gauges[0]["value"] == pytest.approx(
                engine.quantized.tombstone_ratio
            )
        finally:
            engine.close()


# ---------------------------------------------------------------- interleaving
class MutationMachine(RuleBasedStateMachine):
    """add/delete/compact/search plus save/load on a tiny engine.

    The model is the set of live and deleted ids. Every search must be
    bit-exact against ``reference_search`` over the live rows and never
    return a deleted id.
    """

    NLIST, M, CB, DSUB = 6, 4, 16, 4

    def __init__(self):
        super().__init__()
        self.tmpdir = tempfile.mkdtemp(prefix="drim-sm-")
        self.engine = None

    @initialize(seed=st.integers(0, 2**16))
    def build(self, seed):
        self.rng = np.random.default_rng(seed)
        quant, _ = _random_quantized(
            self.rng, 120, nlist=self.NLIST, m=self.M, cb=self.CB,
            dsub=self.DSUB,
        )
        self.config = EngineConfig(
            index=IndexParams(
                nlist=self.NLIST, nprobe=3, k=5,
                num_subspaces=self.M, codebook_size=self.CB,
            ),
            system=PimSystemConfig(num_dpus=4, shard_workers=0),
            layout=LayoutConfig(min_split_size=15, max_copies=2),
        )
        self.engine = DrimAnnEngine.from_quantized(quant, self.config, seed=0)
        self.live = set(range(120))
        self.dead = set()

    def _vectors(self, n):
        return self.rng.integers(
            0, 256, size=(n, self.M * self.DSUB),
            dtype=np.int64,
        ).astype(np.uint8)

    @rule(n=st.integers(1, 6), explicit=st.booleans())
    def add(self, n, explicit):
        ids = None
        if explicit:
            taken = self.live | self.dead
            ids = np.arange(n, dtype=np.int64) + max(taken, default=-1) + 7
        new_ids = self.engine.add(self._vectors(n), ids)
        assert len(new_ids) == n
        assert not set(new_ids.tolist()) & self.live
        self.live |= set(new_ids.tolist())
        self.dead -= set(new_ids.tolist())

    @rule(data=st.data())
    def delete(self, data):
        pool = sorted(self.live | self.dead) + [10**6]
        ids = data.draw(st.lists(st.sampled_from(pool), max_size=12))
        count = self.engine.delete(np.asarray(ids, dtype=np.int64))
        doomed = set(ids) & self.live
        assert count == len(doomed)
        self.live -= doomed
        self.dead |= doomed

    @rule()
    def compact(self):
        stats = self.engine.compact()
        assert stats["removed_tombstones"] == len(self.dead)
        # Compaction drops the rows; their ids may be reused.
        self.dead = set()

    @rule()
    def save_load(self):
        path = os.path.join(self.tmpdir, "idx.drim")
        self.engine.save(path)
        self.engine.close()
        self.engine = DrimAnnEngine.load(path, config=self.config)

    @rule(nq=st.integers(1, 5))
    def search(self, nq):
        q = self._vectors(nq)
        res = _assert_matches_reference(self.engine, q)
        got = set(res.ids[res.ids >= 0].tolist())
        assert not got & self.dead
        assert got <= self.live

    @invariant()
    def counts_match_model(self):
        if self.engine is not None:
            assert self.engine.quantized.num_live_points == len(self.live)

    def teardown(self):
        if self.engine is not None:
            self.engine.close()
        shutil.rmtree(self.tmpdir, ignore_errors=True)


TestMutationInterleaving = MutationMachine.TestCase
TestMutationInterleaving.settings = settings(
    max_examples=25, stateful_step_count=15, deadline=None
)
