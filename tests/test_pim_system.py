import numpy as np
import pytest

from repro.core.square_lut import SquareLut
from repro.pim import PimSystem, PimSystemConfig
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
        from repro.pim.config import DpuConfig

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

    def test_mram_usage_reported(self, sys4):
        usage = sys4.mram_usage()
        assert usage.shape == (4,)
        assert (usage > 0).all()


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
        ],
    )
    def test_bad_round_operands_rejected(
        self, sys4, rng, plane, tasks, k, exc, match
    ):
        """A ``k`` that is not an int >= 1 is rejected by both planes,
        and a task naming a query outside the 3-query matrix by the
        round, each with an error naming the operand."""
        queries = rng.integers(0, 255, size=(3, 32)).astype(np.uint8)
        with pytest.raises(exc, match=match):
            if plane == "run_batch":
                sys4.run_batch({0: tasks}, queries, k=k)
            else:
                sys4.compute_tasks(queries, tasks, k)

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
        centroids = sys4._centroids()
        qrows = np.array([0, 3, 3, 8, 1, 2, 5, 0, 7, 6, 4], dtype=np.int64)
        crows = np.array([1, 1, 2, 2, 2, 0, 0, 0, 3, 3, 1], dtype=np.int64)
        starts = np.array([0, 2, 5, 8, 10, 11])
        # Shard s{c} holds centroid c; each group is one shard's rows.
        groups = [
            (sys4.shard_location(f"s{crows[a]}"), f"s{crows[a]}", list(qrows[a:b]))
            for a, b in zip(starts[:-1], starts[1:])
        ]
        assert all(sys4._shard_cent[f"s{c}"] == c for c in range(4))
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
