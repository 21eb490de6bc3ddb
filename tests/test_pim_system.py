import numpy as np
import pytest

import repro.pim.system as system_mod
from repro.core.square_lut import SquareLut
from repro.pim import PimSystem, PimSystemConfig
from repro.pim.config import DpuConfig
from repro.pim.memory import CapacityError
from repro.pim.system import ShardData


@pytest.fixture()
def sys4(rng):
    cfg = PimSystemConfig(num_dpus=4)
    s = PimSystem(cfg)
    books = rng.integers(-100, 100, size=(8, 16, 4)).astype(np.int16)
    s.load_codebooks(books)
    s.load_square_lut(SquareLut.for_bit_width(8, levels=3))
    for i in range(4):
        s.place_shard(
            i,
            ShardData(
                shard_key=f"s{i}",
                centroid=rng.integers(0, 255, size=32).astype(np.uint8),
                ids=np.arange(i * 20, i * 20 + 20, dtype=np.int64),
                codes=rng.integers(0, 16, size=(20, 8)).astype(np.uint8),
            ),
        )
    return s


class TestPlacement:
    def test_shard_location(self, sys4):
        assert sys4.shard_location("s2") == 2
        assert sys4.num_shards() == 4

    def test_duplicate_key_rejected(self, sys4, rng):
        with pytest.raises(ValueError, match="already placed"):
            sys4.place_shard(
                0,
                ShardData(
                    shard_key="s0",
                    centroid=np.zeros(32, dtype=np.uint8),
                    ids=np.zeros(1, dtype=np.int64),
                    codes=np.zeros((1, 8), dtype=np.uint8),
                ),
            )

    def test_bad_dpu_id(self, sys4):
        with pytest.raises(ValueError, match="out of range"):
            sys4.place_shard(
                9,
                ShardData(
                    shard_key="x",
                    centroid=np.zeros(32, dtype=np.uint8),
                    ids=np.zeros(1, dtype=np.int64),
                    codes=np.zeros((1, 8), dtype=np.uint8),
                ),
            )

    def test_mram_capacity_enforced(self):
        """A shard whose codes, ids and centroid do not fit together
        stores none of them: the DPU's MRAM stays empty and no shard is
        placed."""
        cfg = PimSystemConfig(num_dpus=1, dpu=DpuConfig(mram_bytes=1024))
        s = PimSystem(cfg)
        with pytest.raises(CapacityError):
            s.place_shard(
                0,
                ShardData(
                    shard_key="big",
                    centroid=np.zeros(32, dtype=np.uint8),
                    ids=np.zeros(100, dtype=np.int64),
                    codes=np.zeros((100, 8), dtype=np.uint8),
                ),
            )
        assert s.mram_usage().tolist() == [0]
        assert not list(s.dpus[0].mram.keys())
        assert s.num_shards() == 0

    def test_append_overflowing_a_second_placement_stores_nothing(self):
        """An append that fits the first placement's DPU but not the
        second's re-stores neither: both placements and the record keep
        their rows."""
        s = PimSystem(PimSystemConfig(num_dpus=2, dpu=DpuConfig(mram_bytes=2048)))

        def shard(key, n, data_key=None):
            return ShardData(
                shard_key=key,
                centroid=np.zeros(32, dtype=np.uint8),
                ids=np.arange(n, dtype=np.int64),
                codes=np.zeros((n, 8), dtype=np.uint8),
                data_key=data_key,
            )

        s.place_shard(0, shard("a", 20))
        s.place_shard(1, shard("a.r1", 20, data_key="a"))
        s.place_shard(1, shard("filler", 95))  # 1904 of 2048 B used
        first = s.get_shard("a")
        stored = {
            (d, key): s.dpus[d].mram.load(key)
            for d in (0, 1) for key in s.dpus[d].mram.keys()
        }
        used = s.mram_usage()
        with pytest.raises(CapacityError):
            s.append_shard(
                "a", np.arange(30, dtype=np.int64), np.zeros((30, 8), dtype=np.uint8)
            )
        np.testing.assert_array_equal(s.mram_usage(), used)
        for (d, key), array in stored.items():
            assert s.dpus[d].mram.load(key) is array
        assert s.get_shard("a.r1") is first
        assert len(first.ids) == len(first.codes) == 20

    def test_mram_usage_reported(self, sys4):
        usage = sys4.mram_usage()
        assert usage.shape == (4,)
        assert (usage > 0).all()

    @pytest.mark.parametrize(
        "field, change",
        [
            ("ids", lambda s: {"ids": s.ids + 1}),
            ("centroid", lambda s: {"centroid": s.centroid ^ 1}),
            ("codes", lambda s: {"codes": s.codes[:, :-1]}),
            ("codes", lambda s: {"codes": s.codes.astype(np.uint16)}),
        ],
    )
    def test_replica_must_share_the_data_shards_rows(self, sys4, field, change):
        """A shard placed under a placed data key is rejected, naming
        it, unless its ids and centroid equal the record's and its
        codes have the record's shape and dtype; nothing is stored."""
        first = sys4.get_shard("s0")
        rows = {"ids": first.ids, "centroid": first.centroid, "codes": first.codes}
        rows.update(change(first))
        used = sys4.mram_usage()
        with pytest.raises(ValueError, match=f"'s0.r1'.*'s0'.*{field}"):
            sys4.place_shard(1, ShardData(shard_key="s0.r1", data_key="s0", **rows))
        assert sys4.num_shards() == 4
        np.testing.assert_array_equal(sys4.mram_usage(), used)

    def test_replica_codes_compared_by_shape_and_dtype(self, sys4):
        """Codes are not read by value at placement (an mmap-backed
        index stays paged out): the replica becomes a placement of the
        first shard's record, whose rows both keys then hold."""
        first = sys4.get_shard("s0")
        sys4.place_shard(
            1,
            ShardData(
                shard_key="s0.r1",
                centroid=first.centroid.copy(),
                ids=first.ids.copy(),
                codes=np.zeros_like(first.codes),
                data_key="s0",
            ),
        )
        assert sys4.get_shard("s0.r1") is first
        assert sys4.shard_location("s0.r1") == 1

    def test_update_shard_rejects_a_stale_filter(self, sys4):
        """A dead-row filter, which may name a row at or past a shorter
        block's end, raises ``ValueError`` naming it, before anything is
        stored; with the filter cleared the block is stored."""
        shard = sys4.get_shard("s0")
        ids, codes = shard.ids, shard.codes
        rec = sys4._shards["s0"][1]
        sys4.set_shard_liveness("s0", np.arange(5))
        used, dead = sys4.mram_usage(), rec.dead
        with pytest.raises(ValueError, match="'s0'.*dead-row filter"):
            sys4.update_shard("s0", ids[:10], codes[:10])
        np.testing.assert_array_equal(sys4.mram_usage(), used)
        assert sys4.dpus[0].mram.load("codes:s0") is codes
        assert sys4.get_shard("s0").ids is ids and rec.dead is dead
        sys4.set_shard_liveness("s0", None)
        sys4.update_shard("s0", ids[:10], codes[:10])
        assert rec.num_live == 10
        sys4.set_shard_liveness("s0", np.array([0, 1]))
        np.testing.assert_array_equal(rec.dead, [0, 1])
        assert rec.num_live == 8

    def test_liveness_keeps_operands_and_append_extends_them(self, sys4, rng):
        """``set_shard_liveness`` leaves the resident operands the same
        object; an append after it extends them, its rows live."""
        queries = rng.integers(0, 255, size=(2, 32)).astype(np.uint8)
        sys4.compute_tasks(queries, [(0, "s0")], 3)
        rec = sys4._shards["s0"][1]
        ops = rec.ops
        sys4.set_shard_liveness("s0", np.arange(1, 20, 2))
        assert rec.ops is ops
        sys4.set_shard_liveness("s0", None)
        sys4.set_shard_liveness("s0", np.arange(0, 20, 2))
        assert rec.ops is ops
        shard = sys4.get_shard("s0")
        old_ids = shard.ids
        sys4.append_shard(
            "s0",
            np.append(old_ids, [900, 901, 902]),
            np.concatenate([shard.codes, shard.codes[:3]]),
        )
        _, ids, _ = sys4.compute_tasks(queries, [(0, "s0")], 20)
        assert rec.ops.rows == 23 and rec.num_live == 13
        np.testing.assert_array_equal(rec.ops.decoded[:20], ops.decoded)
        np.testing.assert_array_equal(rec.ops.pts[:20], ops.pts)
        np.testing.assert_array_equal(rec.ops.decoded[20:23], ops.decoded[:3])
        assert set(ids[0][ids[0] >= 0].tolist()) == set(
            old_ids[1::2].tolist()
        ) | {900, 901, 902}

    def test_one_residency_pass_per_call(self, sys4, rng, monkeypatch):
        """A call over several shards with pending appended rows (and one
        never scanned) makes one residency pass: one range check over
        all of their missing rows; buffers grow geometrically, so a
        small append into spare capacity copies no resident row."""
        queries = rng.integers(0, 255, size=(2, 32)).astype(np.uint8)
        tasks = [(q, f"s{i}") for q in range(2) for i in range(3)]
        sys4.compute_tasks(queries, tasks, 5)
        calls = []
        real = system_mod.gather_offsets

        def spy(codes, cb):
            calls.append(len(codes))
            return real(codes, cb)

        monkeypatch.setattr(system_mod, "gather_offsets", spy)

        def append(key, rows):
            shard = sys4.get_shard(key)
            new_ids = 1000 + 10 * int(key[1]) + len(shard.ids) + np.arange(rows)
            sys4.append_shard(
                key,
                np.append(shard.ids, new_ids),
                np.concatenate([shard.codes, shard.codes[:rows]]),
            )

        for key in ("s0", "s1", "s2"):
            append(key, 3)
        tasks.append((1, "s3"))
        sys4.compute_tasks(queries, tasks, 5)
        assert calls == [3 + 3 + 3 + 20]
        grown = sys4._shards["s0"][1].ops
        assert grown.rows == 23 and len(grown.pts) == 30
        append("s0", 2)
        sys4.compute_tasks(queries, tasks, 5)
        assert calls[1:] == [2]
        ops = sys4._shards["s0"][1].ops
        assert ops.rows == 25 and ops.decoded is grown.decoded
        sys4.compute_tasks(queries, tasks, 5)
        assert len(calls) == 2  # nothing pending: no pass

    def test_residents_stay_column_major_through_growth(self, sys4, rng):
        """A shard's resident residuals are column-major (each point's
        residual at unit stride) when first made resident, after an
        append into spare capacity and after growing past it, and equal
        a fresh row-major decode bit for bit; its point terms are in the
        slab dtype."""
        queries = rng.integers(0, 255, size=(2, 32)).astype(np.uint8)
        tasks = [(0, "s0"), (1, "s1")]
        books = sys4.codebooks.astype(np.int64)

        def check():
            rec = sys4._shards["s0"][1]
            dec = rec.ops.decoded
            assert dec.strides[0] == dec.itemsize and dec.shape[1] == 32
            codes = rec.shard.codes.astype(np.intp)
            fresh = books[np.arange(8), codes].reshape(len(codes), 32)
            got = np.ascontiguousarray(dec[: rec.ops.rows])
            assert got.tobytes() == fresh.astype(dec.dtype).tobytes()
            assert rec.ops.pts.dtype == sys4._slab_dtype == np.int32
            return rec.ops

        sys4.compute_tasks(queries, tasks, 3)
        first = check()
        for rows in (4, 2, 30):  # grow, fill spare capacity, grow again
            shard = sys4.get_shard("s0")
            new_ids = 5000 + len(shard.ids) + np.arange(rows)
            codes = rng.integers(0, 16, size=(rows, 8)).astype(np.uint8)
            sys4.append_shard(
                "s0",
                np.append(shard.ids, new_ids),
                np.concatenate([shard.codes, codes]),
            )
            sys4.compute_tasks(queries, tasks, 3)
            ops = check()
            assert (ops.decoded is first.decoded) == (rows == 2)
            first = ops
        assert ops.rows == 56 and len(ops.pts) == 56

    def test_centroids_outside_the_slab_range_raise(self, sys4):
        """A centroid the slab dtype was not derived for is rejected
        before anything is stored."""
        used = sys4.mram_usage()
        for cent, exc in (
            (np.full(32, 256, dtype=np.int64), ValueError),
            (np.full(32, -1, dtype=np.int64), ValueError),
            (np.zeros(32, dtype=np.float32), TypeError),
        ):
            with pytest.raises(exc, match="centroid of shard 'x'"):
                sys4.place_shard(0, ShardData(
                    shard_key="x", centroid=cent, ids=np.zeros(1, dtype=np.int64),
                    codes=np.zeros((1, 8), dtype=np.uint8),
                ))
        np.testing.assert_array_equal(sys4.mram_usage(), used)
        assert sys4.num_shards() == 4

    def test_append_shard_requires_the_old_ids_first(self, sys4):
        shard = sys4.get_shard("s1")
        codes = np.concatenate([shard.codes, shard.codes[:1]])
        for ids in (np.append(shard.ids[::-1], 500), shard.ids[:-1]):
            with pytest.raises(ValueError, match="'s1': the first 20 ids"):
                sys4.append_shard("s1", ids, codes[: len(ids)])
        assert len(sys4.get_shard("s1").ids) == 20


class TestRunBatch:
    def test_results_match_manual_math(self, sys4, rng):
        queries = rng.integers(0, 255, size=(2, 32)).astype(np.uint8)
        timing = sys4.run_batch({0: [(0, "s0")], 1: [(1, "s1")]}, queries, k=5)
        assert timing.tasks == [(0, "s0"), (1, "s1")]
        rows, ids, dists = sys4.compute_tasks(queries, timing.tasks, k=5)
        np.testing.assert_array_equal(rows, [0, 1])
        assert ids.shape == dists.shape == (2, 5)
        assert ids.dtype == np.int64 and dists.dtype == np.float64
        books = sys4.codebooks.astype(np.int64)
        for t, qidx in enumerate(rows):
            skey = "s0" if qidx == 0 else "s1"
            shard = sys4.get_shard(skey)
            r = queries[qidx].astype(np.int64) - shard.centroid.astype(np.int64)
            lut = ((r.reshape(8, 1, 4) - books) ** 2).sum(-1)
            d = lut[np.arange(8)[None, :], shard.codes.astype(int)].sum(1)
            want = np.sort(d)[:5]
            np.testing.assert_array_equal(dists[t], want)
            rows_of_ids = np.searchsorted(shard.ids, ids[t])
            np.testing.assert_array_equal(d[rows_of_ids], dists[t])

    def test_requires_codebooks(self, rng):
        s = PimSystem(PimSystemConfig(num_dpus=1))
        with pytest.raises(RuntimeError, match="codebooks"):
            s.run_batch({}, np.zeros((1, 8), dtype=np.uint8), k=1)

    def test_requires_square_lut_when_multiplier_less(self, rng):
        s = PimSystem(PimSystemConfig(num_dpus=1))
        s.load_codebooks(rng.integers(-5, 5, size=(2, 4, 4)).astype(np.int16))
        with pytest.raises(RuntimeError, match="square LUT"):
            s.run_batch({}, np.zeros((1, 8), dtype=np.uint8), k=1)

    def test_wrong_dpu_task_rejected(self, sys4, rng):
        queries = rng.integers(0, 255, size=(1, 32)).astype(np.uint8)
        with pytest.raises(ValueError, match="assigned to DPU"):
            sys4.run_batch({0: [(0, "s1")]}, queries, k=3)

    @pytest.mark.parametrize(
        "plane, tasks, k, exc, match",
        [
            ("run_batch", [(0, "s0")], 0, ValueError, "k must be >= 1"),
            ("run_batch", [(0, "s0")], -3, ValueError, "k must be >= 1"),
            ("run_batch", [(0, "s0")], 2.0, TypeError, "k must be an int"),
            ("run_batch", [(0, "s0")], True, TypeError, "k must be an int"),
            ("run_batch", [(7, "s0")], 3, ValueError, "assignments.*query 7"),
            ("run_batch", [(-1, "s0")], 3, ValueError, "assignments.*query -1"),
            ("compute_tasks", [(0, "s0")], 0, ValueError, "k must be >= 1"),
            ("compute_tasks", [(0, "s0")], -3, ValueError, "k must be >= 1"),
            ("compute_tasks", [], 0, ValueError, "k must be >= 1"),
            ("compute_tasks", [(0, "s0")], 2.0, TypeError, "k must be an int"),
            ("run_batch", [(0, "s0"), (1, "s1")], 3, ValueError, "assigned to DPU 0"),
            ("run_batch", [(0, "s0"), (0, "nope")], 3, ValueError, "assignments.*'nope'"),
            ("dead DPU", [(7, "nope")], 3, ValueError, "assignments.*query 7"),
            ("dead DPU", [(0, "nope")], 3, ValueError, "assignments.*'nope'"),
            ("compute_tasks", [(0, "s0"), (0, "nope")], 3, ValueError, "tasks.*'nope'"),
            ("compute_tasks", [(0, "s0"), (7, "s0")], 3, ValueError, "tasks.*query 7"),
            ("compute_tasks", [(-1, "s1")], 3, ValueError, "tasks.*query -1"),
            ("liveness", [0.0, 1.0], 3, TypeError, "dead_rows must be integer"),
            ("liveness", [True, False], 3, TypeError, "dead_rows must be integer"),
            ("liveness", [[0, 1]], 3, ValueError, "dead_rows must be .*1-D"),
            ("liveness", [1, 1], 3, ValueError, "dead_rows must be strictly ascending"),
            ("liveness", [3, 2], 3, ValueError, "dead_rows must be strictly ascending"),
            ("liveness", [-1, 2], 3, ValueError, r"dead_rows .*in \[0, 20\)"),
            ("liveness", [2, 20], 3, ValueError, r"dead_rows .*in \[0, 20\)"),
        ],
    )
    def test_bad_round_operands_rejected(
        self, sys4, rng, plane, tasks, k, exc, match
    ):
        """A ``k`` that is not an int >= 1 is rejected by both planes,
        an unknown shard key and a task naming a query outside the
        3-query matrix by both, and a shard off its DPU by the round, a
        fail-stopped DPU's tasks included, each with an error naming
        the operand and before the round books anything. Dead rows
        (``tasks`` here) that are not a strictly ascending 1-D integer
        array of rows in ``[0, 20)`` are rejected likewise, the shard's
        filter unchanged."""
        queries = rng.integers(0, 255, size=(3, 32)).astype(np.uint8)
        if plane == "dead DPU":
            sys4._observed_dead.add(0)

        def state():
            return (
                sys4._batch_index,
                len(sys4.transfer.events),
                [(dict(d.cycles_by_kernel), d.stall_cycles) for d in sys4.dpus],
                [dict(ledger) for ledger in sys4._search_kernels],
                sys4._shards["s0"][1].dead,
            )

        before = state()
        with pytest.raises(exc, match=match):
            if plane == "compute_tasks":
                sys4.compute_tasks(queries, tasks, k)
            elif plane == "liveness":
                sys4.set_shard_liveness("s0", tasks)
            else:
                sys4.run_batch({0: tasks}, queries, k=k)
        assert state() == before

    def test_timing_max_semantics(self, sys4, rng):
        """Batch time equals the busiest DPU's cycles / frequency."""
        queries = rng.integers(0, 255, size=(4, 32)).astype(np.uint8)
        assignments = {0: [(0, "s0"), (1, "s0"), (2, "s0"), (3, "s0")]}
        timing = sys4.run_batch(assignments, queries, k=3)
        freq = sys4.config.dpu.frequency_hz
        assert timing.pim_seconds == pytest.approx(
            timing.per_dpu_cycles.max() / freq
        )
        # only DPU 0 worked
        assert timing.per_dpu_cycles[1:].sum() == 0
        assert timing.busy_fraction < 0.5

    def test_kernel_cycles_recorded(self, sys4, rng):
        queries = rng.integers(0, 255, size=(1, 32)).astype(np.uint8)
        timing = sys4.run_batch({0: [(0, "s0")]}, queries, k=3)
        assert set(timing.kernel_cycles) >= {"RC", "LC", "DC", "TS"}
        assert all(v >= 0 for v in timing.kernel_cycles.values())

    def test_multiplier_toggle_changes_time(self, sys4, rng):
        queries = rng.integers(0, 255, size=(2, 32)).astype(np.uint8)
        assignments = {0: [(0, "s0"), (1, "s0")]}
        t_ml = sys4.run_batch(assignments, queries, k=3, multiplier_less=True)
        sys4.reset_ledgers()
        t_mul = sys4.run_batch(assignments, queries, k=3, multiplier_less=False)
        assert t_mul.kernel_cycles["LC"] > t_ml.kernel_cycles["LC"]

    def test_reset_ledgers(self, sys4, rng):
        queries = rng.integers(0, 255, size=(1, 32)).astype(np.uint8)
        sys4.run_batch({0: [(0, "s0")]}, queries, k=3)
        sys4.reset_ledgers()
        assert all(d.total_cycles == 0 for d in sys4.dpus)


class TestLcKernelPath:
    """LC runs through the host kernels on every path; the square LUT
    only shapes the modeled cost."""

    def test_default_search_never_calls_square(self, monkeypatch):
        import json
        import os

        from repro.testing import CANONICAL_CONFIGS, run_canonical

        def _forbidden(self, values):
            raise AssertionError("SquareLut.square on the search path")

        monkeypatch.setattr(SquareLut, "square", _forbidden)
        path = os.path.join(
            os.path.dirname(__file__), "fixtures", "golden_cycles.json"
        )
        with open(path) as f:
            goldens = json.load(f)
        fresh = {name: run_canonical(name) for name in CANONICAL_CONFIGS}
        assert json.loads(json.dumps(fresh)) == goldens

    def test_partial_table_ledger_matches_staged_kernel(self, sys4, rng):
        """LC cycles of a partial-table batch == the staged
        run_lut_build's cost charged per shard group."""
        from repro.pim.dpu import Dpu
        from repro.pim.kernels import run_lut_build

        partial = SquareLut.for_bit_width(8, levels=3).partial(40)
        sys4.load_square_lut(partial)
        queries = rng.integers(0, 255, size=(3, 32)).astype(np.uint8)
        assignments = {0: [(0, "s0"), (2, "s0")], 3: [(1, "s3")]}
        timing = sys4.run_batch(assignments, queries, k=3)
        ref = Dpu(0, sys4.config.dpu)
        for dpu_id, tasks in assignments.items():
            shard = sys4.get_shard(tasks[0][1])
            qidx = [q for q, _ in tasks]
            res = queries[qidx].astype(np.int32) - shard.centroid.astype(np.int32)
            _, cost = run_lut_build(res, sys4.codebooks, partial)
            assert cost.traffic.random_read > 0  # the window really misses
            ref.charge(cost)
        assert timing.kernel_cycles["LC"] == ref.cycles_by_kernel["LC"]

    def test_partial_table_miss_counts_per_pair(self, sys4, rng):
        """Each task row's miss count == the staged run_lut_build's
        misses for that pair alone, and a group's count is the sum of
        its rows; a full table counts none."""
        from repro.pim.kernels import run_lut_build
        from repro.pim.system import square_misses

        full = SquareLut.for_bit_width(8, levels=3)
        queries = rng.integers(0, 255, size=(9, 32)).astype(np.uint8)
        centroids = np.stack([sys4.get_shard(f"s{c}").centroid for c in range(4)])
        qrows = np.array([0, 3, 3, 8, 1, 2, 5, 0, 7, 6, 4], dtype=np.int64)
        crows = np.array([1, 1, 2, 2, 2, 0, 0, 0, 3, 3, 1], dtype=np.int64)
        starts = np.array([0, 2, 5, 8, 10, 11])
        # Shard s{c} holds centroid c; each group is one shard's rows.
        groups = [
            (sys4.shard_location(f"s{crows[a]}"), f"s{crows[a]}", list(qrows[a:b]))
            for a, b in zip(starts[:-1], starts[1:])
        ]
        m = sys4.codebooks.shape[0]
        none = sys4._group_misses(queries, groups, full)
        assert none == [0] * 5
        residuals = queries[qrows].astype(np.int32) - centroids[crows].astype(
            np.int32
        )
        for window in (0, 1, 63, 255, 500):
            partial = full.partial(window)
            misses = square_misses(
                residuals, sys4.codebook_terms, partial.resident_max_abs
            )
            assert misses.dtype == np.int64
            for t in range(len(qrows)):
                _, cost = run_lut_build(residuals[t : t + 1], sys4.codebooks, partial)
                assert misses[t] == cost.traffic.transactions - m
            assert sys4._group_misses(queries, groups, partial) == [
                int(misses[a:b].sum()) for a, b in zip(starts[:-1], starts[1:])
            ]
