"""Golden cycle-count regression: any drift in the cost model fails.

The canonical configurations' per-kernel and end-to-end cycle counts
are frozen in ``tests/fixtures/golden_cycles.json``. These tests
re-run each config and require *exact* equality with the stored
values: an unintended change anywhere in the kernel cost closed
forms, charging order, scheduler, or layout shows up as a diff here.

If a change is *supposed* to move the numbers (cost-model fix, new
kernel term), regenerate with ``python tools/update_goldens.py`` and
review the new values in the diff — see docs/testing.md.
"""

import json
import os

import pytest

from repro.testing import (
    CANONICAL_CONFIGS,
    GOLDEN_ADAPTIVE_MODES,
    ROUND_SIZES,
    build_canonical_engine,
    canonical_record,
    run_canonical,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "fixtures", "golden_cycles.json"
)
GOLDEN_ADAPTIVE_PATH = os.path.join(
    os.path.dirname(__file__), "fixtures", "golden_adaptive.json"
)


#: The host axis of the matrices: the planner's two paths, and the
#: ``shard_workers`` that puts a canonical engine on each.
PATH_WORKERS = {"vectorized": 0, "pool": 2}
PATHS = tuple(PATH_WORKERS)


def single_group_rounds(name, cell, adaptive):
    """Whether every round of the cell is one shard group, which never
    fans out to a pool: one adaptive probe of one query per round on an
    unsplit, unreplicated layout."""
    layout = CANONICAL_CONFIGS[name]["layout"]
    return (
        ROUND_SIZES[cell] == 1
        and adaptive not in (None, "off")
        and layout["min_split_size"] is None
        and layout["max_copies"] == 0
    )


def run_on_path(name, path, *, cell="batched", adaptive=None):
    """One golden run of round-size ``cell`` on ``path``; asserts the
    planner really took it.

    A pool cell warms its pool first (see ``canonical_record``), so the
    canonical search's big rounds must go to the workers — except in
    cells made only of single-group rounds.
    """
    engine = build_canonical_engine(
        name, batch_size=ROUND_SIZES[cell], shard_workers=PATH_WORKERS[path]
    )
    record = canonical_record(name, engine, adaptive=adaptive)
    decisions = engine.system.planner.decisions
    if path == "pool" and not single_group_rounds(name, cell, adaptive):
        assert decisions.get("pool", 0) >= 1, decisions
    else:
        assert set(decisions) == {"vectorized"}, decisions
    return record


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def fresh_runs():
    return {name: run_canonical(name) for name in CANONICAL_CONFIGS}


class TestGoldenCycles:
    def test_all_canonical_configs_present(self, goldens):
        assert sorted(goldens) == sorted(CANONICAL_CONFIGS)

    @pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
    def test_per_kernel_cycles_frozen(self, name, goldens, fresh_runs):
        got = fresh_runs[name]["kernel_cycles"]
        want = goldens[name]["kernel_cycles"]
        assert got == want, (
            f"kernel cycle drift in {name!r}.\n"
            f"  stored: {want}\n  fresh:  {got}\n"
            "If intentional, regenerate via tools/update_goldens.py."
        )

    @pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
    def test_end_to_end_cycles_frozen(self, name, goldens, fresh_runs):
        fresh = fresh_runs[name]
        stored = goldens[name]
        assert fresh["total_kernel_cycles"] == stored["total_kernel_cycles"]
        assert fresh["e2e_cycles_max_dpu"] == stored["e2e_cycles_max_dpu"]
        assert fresh["e2e_cycles_sum"] == stored["e2e_cycles_sum"]

    @pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
    def test_kernel_set_is_complete(self, name, fresh_runs):
        assert set(fresh_runs[name]["kernel_cycles"]) == {
            "RC", "LC", "DC", "TS"
        }

    def test_updater_check_mode_agrees(self, goldens, fresh_runs):
        """tools/update_goldens.py --check and this suite must use the
        same data: a fresh run serialized like the tool writes it must
        equal the stored file."""
        assert goldens == json.loads(json.dumps(fresh_runs))


class TestGoldenCyclesAcrossPlans:
    """Cycle accounting is independent of the planner's path.

    The execution planner only moves host wall-clock; the charged
    cycles (and recall) must equal the stored goldens on both paths:
    in process, and on a warm 2-worker pool that provably ran.
    """

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
    def test_plans_reproduce_goldens(self, name, path, goldens):
        fresh = run_on_path(name, path)
        stored = goldens[name]
        assert fresh["recall_at_10"] == stored["recall_at_10"]
        assert fresh["kernel_cycles"] == stored["kernel_cycles"], (
            f"kernel cycle drift in {name!r} on path {path!r}"
        )
        assert fresh["total_kernel_cycles"] == stored["total_kernel_cycles"]
        assert fresh["e2e_cycles_max_dpu"] == stored["e2e_cycles_max_dpu"]
        assert fresh["e2e_cycles_sum"] == stored["e2e_cycles_sum"]


class TestGoldenAdaptiveOff:
    """``adaptive="off"`` is the exhaustive engine, bit for bit.

    Requesting the off mode explicitly must reproduce the default
    engine — recall and every cycle count — for every config, round
    size, and planner path. Round sizes legitimately shift cycle
    counts (chunking changes batch shapes), so the reference for each
    cell is a default-parameter run of the same config × round size;
    the ``batched`` (whole-matrix) references are additionally tied
    to the frozen goldens. This pins the guarantee that the
    adaptive machinery cannot perturb the default path (no extra
    charging, no reordered accumulation) anywhere in the matrix.
    """

    @pytest.fixture(scope="class")
    def references(self):
        return {
            (name, cell): run_canonical(name, batch_size=size)
            for name in CANONICAL_CONFIGS
            for cell, size in ROUND_SIZES.items()
        }

    def test_batched_references_match_goldens(self, references, goldens):
        for name in CANONICAL_CONFIGS:
            assert (
                json.loads(json.dumps(references[(name, "batched")]))
                == goldens[name]
            )

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("cell", list(ROUND_SIZES))
    @pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
    def test_off_matches_default_engine(
        self, name, cell, path, references, pool_takes_small_rounds
    ):
        fresh = run_on_path(name, path, cell=cell, adaptive="off")
        stored = references[(name, cell)]
        assert fresh["recall_at_10"] == stored["recall_at_10"]
        assert fresh["kernel_cycles"] == stored["kernel_cycles"], (
            f"kernel cycle drift in {name!r} with adaptive='off' in "
            f"round-size cell {cell!r} on path {path!r}"
        )
        assert fresh["total_kernel_cycles"] == stored["total_kernel_cycles"]
        assert fresh["e2e_cycles_max_dpu"] == stored["e2e_cycles_max_dpu"]
        assert fresh["e2e_cycles_sum"] == stored["e2e_cycles_sum"]
        # The off path reports no adaptive telemetry at all.
        assert "total_probes_executed" not in fresh


class TestGoldenAdaptive:
    """The ``bound``/``budget`` cells are frozen like everything else.

    Any drift in the bound math, the gap heuristic, or the per-probe
    charging shows up as a cycle or probe-count diff against
    ``tests/fixtures/golden_adaptive.json``.
    """

    @pytest.fixture(scope="class")
    def adaptive_goldens(self):
        with open(GOLDEN_ADAPTIVE_PATH) as f:
            return json.load(f)

    def test_all_cells_present(self, adaptive_goldens):
        assert sorted(adaptive_goldens) == sorted(CANONICAL_CONFIGS)
        for name, modes in adaptive_goldens.items():
            assert sorted(modes) == sorted(GOLDEN_ADAPTIVE_MODES)

    @pytest.mark.parametrize("mode", GOLDEN_ADAPTIVE_MODES)
    @pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
    def test_adaptive_cells_frozen(self, name, mode, adaptive_goldens):
        fresh = run_canonical(name, adaptive=mode)
        stored = adaptive_goldens[name][mode]
        assert json.loads(json.dumps(fresh)) == stored, (
            f"adaptive golden drift in {name!r} mode={mode!r}.\n"
            f"  stored: {stored}\n  fresh:  {fresh}\n"
            "If intentional, regenerate via tools/update_goldens.py."
        )

    @pytest.mark.parametrize("mode", GOLDEN_ADAPTIVE_MODES)
    @pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
    def test_adaptive_never_exceeds_exhaustive_work(
        self, name, mode, adaptive_goldens, goldens
    ):
        """Adaptive cells do at most the exhaustive cells' work and
        record the probe telemetry that justifies the difference."""
        stored = adaptive_goldens[name][mode]
        base = goldens[name]
        assert stored["total_kernel_cycles"] <= base["total_kernel_cycles"]
        max_probes = (
            CANONICAL_CONFIGS[name]["nprobe"] * stored["num_queries"]
        )
        assert 0 < stored["total_probes_executed"] <= max_probes

    @pytest.mark.parametrize("cell", ["chunked", "per_query"])
    @pytest.mark.parametrize("mode", ["bound", "budget", "full"])
    @pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
    def test_plans_agree_across_executions(
        self, name, mode, cell, pool_takes_small_rounds
    ):
        """Chunked adaptive cells aren't frozen, so pin the pool path
        to a same-cell in-process reference run instead."""
        reference = run_on_path(name, "vectorized", cell=cell, adaptive=mode)
        fresh = run_on_path(name, "pool", cell=cell, adaptive=mode)
        assert json.loads(json.dumps(fresh)) == json.loads(
            json.dumps(reference)
        ), (
            f"path-dependent drift in {name!r} mode={mode!r} in "
            f"round-size cell {cell!r}"
        )
