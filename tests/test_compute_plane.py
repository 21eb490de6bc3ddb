"""The round path's two planes: rounds charge, the search computes.

``PimSystem.run_batch`` books a round's ledger and reports the tasks
that ran; ``PimSystem.compute_tasks`` is the one numeric entry point,
run once per search over every task that ran. A search's ids and
distances depend only on that task set, and its ledger never on
results, so the split must reproduce the frozen searches of the
one-plane engine byte for byte.

Regenerate the differential fixture (only on a tree whose searches are
known good) with ``PYTHONPATH=src python tests/test_compute_plane.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DrimAnnEngine
from repro.faults.plan import FaultConfig, FaultPlan
from repro.pim import PimSystem, PimSystemConfig
from repro.pim.backend import NumpyBackend
from repro.pim.backend.numpy_backend import product_dtype
from repro.pim.kernels import scan_distances, topk_rows, topk_sort_cost
from repro.pim.system import ShardData
from repro.testing import CANONICAL_CONFIGS, ROUND_SIZES, canonical_dataset
from repro.testing.goldens import _quantized, canonical_config

FIXTURE = Path(__file__).parent / "fixtures" / "differential_searches.jsonl"

#: The seeded fault cells: (name, config, fail_at_batch). DPUs 2 and 5
#: fail-stop in the first round of a replicated layout (failover to
#: replicas); DPU 1 dies in an unreplicated layout's drain round.
FAULT_CELLS = (
    ("fail-stop-replicas", "split-replicated", {2: 0, 5: 0}),
    ("drain-death", "mul-unreplicated", {1: 1}),
)


def _engine(name, batch_size=None, fail_at_batch=None):
    c = CANONICAL_CONFIGS[name]
    ds = canonical_dataset()
    cfg = canonical_config(name, batch_size=batch_size)
    if fail_at_batch is not None:
        cfg = cfg.replace(
            faults=FaultPlan(
                num_dpus=c["num_dpus"],
                config=FaultConfig(),
                fail_at_batch=fail_at_batch,
            )
        )
    return DrimAnnEngine.from_config(
        ds.base,
        cfg,
        heat_queries=ds.queries[:50],
        # A private copy: the cached canonical index must never mutate.
        prebuilt_quantized=_quantized(c["nlist"], c["m"], c["cb"]).compact(),
        seed=0,
    )


def _line(cell, out):
    return json.dumps(
        {
            "cell": cell,
            "ids": out.results.ids.tolist(),
            "distances": out.results.distances.tolist(),
            "breakdown": out.breakdown.to_dict(),
        },
        sort_keys=True,
    )


def differential_lines():
    """One JSON line per cell: every canonical config x round size x
    adaptive ``off``/``bound``, then the seeded fault cells (two
    searches each, so a death sticks into the second)."""
    lines = []
    for name, c in CANONICAL_CONFIGS.items():
        queries = canonical_dataset().queries[: c["num_queries"]]
        for size_name, size in ROUND_SIZES.items():
            engine = _engine(name, batch_size=size)
            try:
                for mode in ("off", "bound"):
                    out = engine.search(queries, adaptive=mode)
                    lines.append(_line(f"{name}/{size_name}/{mode}", out))
            finally:
                engine.close()
    for cell, name, fail_at_batch in FAULT_CELLS:
        queries = canonical_dataset().queries[: CANONICAL_CONFIGS[name]["num_queries"]]
        engine = _engine(name, fail_at_batch=fail_at_batch)
        try:
            for i in range(2):
                lines.append(_line(f"{cell}/{i}", engine.search(queries)))
        finally:
            engine.close()
    return lines


class TestDifferential:
    def test_searches_match_the_frozen_one_plane_engine(self):
        want = FIXTURE.read_text().splitlines()
        got = differential_lines()
        assert [json.loads(w)["cell"] for w in want] == [
            json.loads(g)["cell"] for g in got
        ]
        for g, w in zip(got, want):
            assert g == w, json.loads(w)["cell"]

    def test_fault_cells_really_fail_over(self):
        by_cell = {
            json.loads(w)["cell"]: json.loads(w)
            for w in FIXTURE.read_text().splitlines()
        }
        for cell, _, fail_at_batch in FAULT_CELLS:
            faults = by_cell[f"{cell}/0"]["breakdown"]["faults"]
            assert set(faults["dead_dpus"]) == set(fail_at_batch)
            assert faults["redispatch_rounds"] >= 1
        replicas = by_cell["fail-stop-replicas/0"]
        assert replicas["breakdown"]["faults"]["task_retries"] > 0
        assert np.isfinite(replicas["distances"]).all()


_I32_MAX = np.iinfo(np.int32).max

#: Shard key -> (data key, centroid, rows). Cluster ``a`` is split in
#: two parts, each replicated; ``b`` has tombstones, ``c`` is empty and
#: every row of ``d`` is deleted.
_SHARDS = {
    "a.p0": ((0, 0), 0, (0, 9)),
    "a.p1": ((0, 1), 0, (9, 20)),
    "a.p0.r1": ((0, 0), 0, (0, 9)),
    "a.p1.r1": ((0, 1), 0, (9, 20)),
    "b": (None, 1, (20, 44)),
    "c": (None, 2, (44, 44)),
    "d": (None, 3, (44, 50)),
}


def _book_max(kind, m, dsub):
    """``max|b|`` for each path: the reference's int32 LUT build at
    (``edge``) and just past (``past``) ``M * dsub * (255 +
    max|b|)**2 <= 2**31 - 1``,
    the float32 DC product at (``f32-edge``) and just past
    (``f32-past``) ``M * dsub * 255 * max|b| < 2**24``, the int32
    distance slab at (``i32-edge``) and just past (``i32-past``) ``M *
    dsub * max|b| * (max|b| + 4 * 255) < 2**31 - 1``, and codebooks
    past float64 exactness for the LUTs (``wide``)."""
    edge = int(np.sqrt(_I32_MAX / (m * dsub))) - 255
    f32 = ((1 << 24) - 1) // (m * dsub * 255)
    i32 = int(np.sqrt(_I32_MAX / (m * dsub)))
    while m * dsub * i32 * (i32 + 4 * 255) >= _I32_MAX:
        i32 -= 1
    return {
        "small": 200, "edge": edge, "past": edge + 1,
        "f32-edge": f32, "f32-past": f32 + 1,
        "i32-edge": i32, "i32-past": i32 + 1, "wide": 1 << 26,
    }[kind]


def _books(rng, m, cb, dsub, b_max):
    books = rng.integers(-b_max, b_max + 1, size=(m, cb, dsub)).astype(np.int64)
    books[0, 0, 0] = b_max
    return books


def _system(rng, m, cb, dsub, b_max):
    system = PimSystem(PimSystemConfig(num_dpus=4))
    system.load_codebooks(_books(rng, m, cb, dsub, b_max))
    cents = rng.integers(0, 256, size=(4, m * dsub)).astype(np.uint8)
    codes = rng.integers(0, cb, size=(50, m)).astype(np.uint8)
    ids = rng.permutation(1000)[:50].astype(np.int64)
    for i, (key, (data_key, cent, (r0, r1))) in enumerate(_SHARDS.items()):
        system.place_shard(
            i % 4,
            ShardData(
                shard_key=key,
                centroid=cents[cent].copy(),
                ids=ids[r0:r1].copy(),
                codes=codes[r0:r1].copy(),
                data_key=data_key,
            ),
        )
    system.set_shard_liveness("b", np.flatnonzero(np.arange(24) % 3))
    system.set_shard_liveness("d", np.arange(6))
    return system


def _reference(system, queries, tasks, k):
    """Per task: ``topk_rows(scan_distances(build_luts(...)))`` over the
    shard's live rows, padded; rows sorted by (data shard, query)."""
    backend = NumpyBackend()
    order = sorted(
        range(len(tasks)),
        key=lambda i: (system._shards[tasks[i][1]][1].index, tasks[i][0]),
    )
    ids = np.full((len(tasks), k), -1, dtype=np.int64)
    dists = np.full((len(tasks), k), np.inf)
    for row, i in enumerate(order):
        q, key = tasks[i]
        shard = system.get_shard(key)
        luts = backend.build_luts(
            queries, shard.centroid[None], [q], [0], system.codebook_terms
        )
        rec = system._shards[key][1]
        live = np.delete(np.arange(len(shard.ids)), [] if rec.dead is None else rec.dead)
        codes, sids = shard.codes[live], shard.ids[live]
        top_ids, top_d = topk_rows(scan_distances(luts, codes), sids, k)
        ids[row, : top_ids.shape[1]] = top_ids[0]
        dists[row, : top_d.shape[1]] = top_d[0]
    return np.array([tasks[i][0] for i in order], dtype=np.int64), ids, dists


def _mutate(system, rng, op):
    """Change rows, liveness or codebooks the way the engine does:
    every replica of a part alike, or (``replica``) each through a
    second replica's key only."""
    if op == "update":
        shard = system.get_shard("a.p1")
        cb = system.codebooks.shape[1]
        codes = rng.integers(0, cb, size=shard.codes.shape).astype(np.uint8)
        ids = shard.ids + 5000
        for key in ("a.p1", "a.p1.r1"):
            system.update_shard(key, ids, codes)
    elif op == "liveness":
        for key in ("a.p0", "a.p0.r1"):
            system.set_shard_liveness(key, np.array([0, 2, 3, 5, 6, 7]))
        system.set_shard_liveness("b", None)
    elif op == "codebooks":
        m, cb, dsub = system.codebooks.shape
        b_max = int(np.abs(system.codebooks).max())
        system.load_codebooks(_books(rng, m, cb, dsub, b_max))
    elif op == "replica":
        cb = system.codebooks.shape[1]
        shard = system.get_shard("a.p1.r1")
        codes = rng.integers(0, cb, size=shard.codes.shape).astype(np.uint8)
        system.update_shard("a.p1.r1", shard.ids + 5000, codes)
        system.set_shard_liveness("a.p0.r1", np.array([0, 2, 3, 5, 6, 7]))
        shard = system.get_shard("a.p0.r1")
        new = rng.integers(0, cb, size=(3, shard.codes.shape[1])).astype(np.uint8)
        system.append_shard(
            "a.p0.r1",
            np.concatenate([shard.ids, [7000, 7001, 7002]]),
            np.concatenate([shard.codes, new]),
        )


def _assert_ts_sorts_live_rows(system, queries):
    """Each shard key's one-task round charges TS over the live rows
    its task's scan sees (``_reference``'s non-padded ids)."""
    k = 64  # past every shard's rows: a row holds each live id
    for key in _SHARDS:
        _, ids, _ = _reference(system, queries, [(0, key)], k)
        live = int((ids >= 0).sum())
        dpu = system.shard_location(key)
        system.reset_ledgers()  # exact cycle differences
        timing = system.run_batch({dpu: [(0, key)]}, queries, k, multiplier_less=False)
        want = system.dpus[dpu].cost_cycles(topk_sort_cost(1, live, k)) if live else 0.0
        assert timing.kernel_cycles.get("TS", 0.0) == want, key


class TestComputeTasks:
    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 5),
        cb=st.sampled_from([1, 3, 16]),
        dsub=st.integers(1, 4),
        kind=st.sampled_from(["small", "edge", "past", "f32-edge", "f32-past", "wide"]),
        k=st.integers(1, 12),
        nq=st.integers(1, 6),
        nt=st.integers(0, 30),
        op=st.sampled_from([None, "update", "liveness", "codebooks", "replica"]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_per_task_lut_scan(self, m, cb, dsub, kind, k, nq, nt, op, seed):
        """Every product dtype, both reference LUT build paths, replicas
        and split parts, empty and fully tombstoned shards, repeated tasks, and a
        second call after a mutation (a stale resident would show)."""
        rng = np.random.default_rng(seed)
        b_max = _book_max(kind, m, dsub)
        system = _system(rng, m, cb, dsub, b_max)
        queries = rng.integers(0, 256, size=(nq, m * dsub)).astype(np.uint8)
        queries[0, 0] = 255
        keys = list(_SHARDS)
        tasks = [
            (int(rng.integers(0, nq)), keys[int(rng.integers(0, len(keys)))])
            for _ in range(nt)
        ]
        dtype = product_dtype(m * dsub * 255 * b_max)
        assert system._decode_table.dtype == dtype
        if kind.startswith("f32"):
            assert dtype == (np.float32 if kind == "f32-edge" else np.float64)
        for step in (None, op):
            _mutate(system, rng, step)
            got = system.compute_tasks(queries, tasks, k)
            want = _reference(system, queries, tasks, k)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()
            _assert_ts_sorts_live_rows(system, queries)

    @pytest.mark.parametrize(
        "kind, slab", [("i32-edge", np.int32), ("i32-past", np.int64)]
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_slab_edges_equal_per_task_lut_scan(self, kind, slab, seed):
        """Codebooks at and just past the int32 slab bound take the slab
        it names, and every task's top-k equals the per-task LUT scan,
        before and after a mutation."""
        rng = np.random.default_rng(seed)
        m, cb = int(rng.integers(1, 6)), int(rng.choice([3, 16]))
        dsub = int(rng.integers(1, 5))
        b_max = _book_max(kind, m, dsub)
        system = _system(rng, m, cb, dsub, b_max)
        assert system._slab_dtype == slab
        queries = rng.integers(0, 256, size=(4, m * dsub)).astype(np.uint8)
        queries[0] = 255
        tasks = [(q, key) for q in range(4) for key in _SHARDS]
        for step in (None, "codebooks", "replica"):
            _mutate(system, rng, step)
            got = system.compute_tasks(queries, tasks, 6)
            want = _reference(system, queries, tasks, 6)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
            assert all(
                rec.ops.pts.dtype == slab
                for rec in system._data.values() if rec.ops is not None
            )

    def test_mutation_through_a_replica_key_reaches_every_replica(self, rng):
        """``update_shard``, ``set_shard_liveness`` and ``append_shard``
        through a second replica's key change what tasks on either
        replica scan, and what their rounds charge."""
        system = _system(rng, 4, 16, 2, 200)
        queries = rng.integers(0, 256, size=(3, 8)).astype(np.uint8)
        tasks = [(q, key) for q in range(3) for key in _SHARDS]
        system.compute_tasks(queries, tasks, 5)  # resident operands first
        _mutate(system, rng, "replica")
        got = system.compute_tasks(queries, tasks, 5)
        want = _reference(system, queries, tasks, 5)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        _assert_ts_sorts_live_rows(system, queries)
        for key in ("a.p0", "a.p1"):
            assert system.get_shard(key) is system.get_shard(f"{key}.r1")
        assert len(system.get_shard("a.p0").ids) == 12

    def test_scans_one_replica_per_data_shard(self, rng):
        """Tasks on both replicas of a part scan one data shard record."""
        system = _system(rng, 4, 16, 2, 200)
        queries = rng.integers(0, 256, size=(3, 8)).astype(np.uint8)
        tasks = [(0, "a.p0"), (1, "a.p0.r1"), (2, "a.p1.r1"), (0, "a.p1")]
        system.compute_tasks(queries, tasks, 4)
        scanned = [rec for rec in system._data.values() if rec.ops is not None]
        assert [rec.shard.shard_key for rec in scanned] == ["a.p0", "a.p1"]
        for rec in scanned:
            assert [key for key, _ in rec.placements] == [
                rec.shard.shard_key, f"{rec.shard.shard_key}.r1"
            ]

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_query_index_out_of_range_raises(self, rng, bad):
        system = _system(rng, 4, 16, 2, 200)
        queries = rng.integers(0, 256, size=(3, 8)).astype(np.uint8)
        with pytest.raises(ValueError, match=f"tasks name query {bad}"):
            system.compute_tasks(queries, [(0, "a.p0"), (bad, "b")], 4)


if __name__ == "__main__":
    FIXTURE.write_text("\n".join(differential_lines()) + "\n")
