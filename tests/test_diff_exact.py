"""Differential exactness: engine vs brute-force oracle, mode vs mode.

Two layers of differential testing on seeded synthetic data:

* the engine's recall@10 against the *exact* int64 brute-force oracle
  must equal the stored golden exactly for every canonical config —
  any change to quantization, layout, scheduling, or merging that
  moves accuracy by even one hit fails;
* whole-matrix, 32-query and one-query rounds (``ROUND_SIZES``) must
  return bit-identical ids *and* distances (the canonical (distance,
  id) merge makes the result independent of round structure).
"""

import json
import os

import numpy as np
import pytest

from repro.testing import (
    CANONICAL_CONFIGS,
    ROUND_SIZES,
    brute_force_topk,
    build_canonical_engine,
    canonical_dataset,
    oracle_recall,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "fixtures", "golden_cycles.json"
)


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def _run(name, batch_size=None):
    ds = canonical_dataset()
    engine = build_canonical_engine(name, batch_size=batch_size)
    queries = ds.queries[: CANONICAL_CONFIGS[name]["num_queries"]]
    res, bd = engine.search(queries)
    return res, bd, queries


class TestOracleRecall:
    @pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
    def test_recall_matches_golden_exactly(self, name, goldens):
        ds = canonical_dataset()
        res, _, queries = _run(name)
        oracle = brute_force_topk(ds.base, queries, 10)
        recall = oracle_recall(res.ids, oracle)
        assert recall == goldens[name]["recall_at_10"], (
            f"recall@10 drifted for {name!r}: got {recall}, golden "
            f"{goldens[name]['recall_at_10']} — if the change is an "
            "intentional accuracy change, regenerate via "
            "tools/update_goldens.py"
        )

    @pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
    def test_results_match_host_reference_bitwise(self, name):
        """The engine must agree with the host gold standard exactly
        (same integer math, canonical merge) for every config."""
        res, _, queries = _run(name)
        engine = build_canonical_engine(name)
        ref = engine.reference_search(queries)
        np.testing.assert_array_equal(res.ids, ref.ids)
        np.testing.assert_array_equal(res.distances, ref.distances)


class TestExecutionModeEquivalence:
    @pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
    @pytest.mark.parametrize("cell", ["chunked", "per_query"])
    def test_bit_identical_to_batched(self, name, cell):
        res_b, _, _ = _run(name)
        res_o, _, _ = _run(name, batch_size=ROUND_SIZES[cell])
        np.testing.assert_array_equal(res_b.ids, res_o.ids)
        np.testing.assert_array_equal(res_b.distances, res_o.distances)

    def test_execution_override_rejects_unknown_mode(self):
        """No search entry point takes a per-call round-structure
        override: the engine rejects ``execution=`` by name, and neither
        cluster entry point has the parameter."""
        import inspect

        from repro.cluster.frontend import ClusterFrontend
        from repro.cluster.serving import simulate_cluster_serving

        ds = canonical_dataset()
        engine = build_canonical_engine("split-replicated")
        with pytest.raises(TypeError, match="execution"):
            engine.search(ds.queries[:4], execution="warp-speed")
        for fn in (ClusterFrontend.search, simulate_cluster_serving):
            assert "execution" not in inspect.signature(fn).parameters

    def test_search_params_execution_validated(self):
        """``batch_size`` is the one round-size field (``None`` is one
        whole-matrix round); the retired ``execution`` field fails by
        name."""
        from repro.core.params import SearchParams

        assert SearchParams().batch_size is None
        assert SearchParams(batch_size=1).batch_size == 1
        with pytest.raises(TypeError, match="execution"):
            SearchParams(execution="bogus")
        with pytest.raises(ValueError, match="batch_size"):
            SearchParams(batch_size=0)


class TestPlanEquivalence:
    """The planner's two paths are pure wall-clock strategies: both
    return the host reference's ids and distances, bit for bit."""

    @pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
    @pytest.mark.parametrize("path", ["vectorized", "pool"])
    def test_bit_identical_to_serial(self, name, path):
        """Against the serial host reference; the pool cell runs on a
        warm 2-worker pool and must have taken it."""
        queries = canonical_dataset().queries[
            : CANONICAL_CONFIGS[name]["num_queries"]
        ]
        engine = build_canonical_engine(
            name, shard_workers=2 if path == "pool" else 0
        )
        try:
            engine.system.warm_pool()
            res_p, _ = engine.search(queries)
            ref = engine.reference_search(queries)
        finally:
            engine.close()
        decisions = engine.system.planner.decisions
        if path == "pool":
            assert decisions.get("pool", 0) >= 1, decisions
        else:
            assert set(decisions) == {"vectorized"}, decisions
        np.testing.assert_array_equal(ref.ids, res_p.ids)
        np.testing.assert_array_equal(ref.distances, res_p.distances)

    def test_unknown_plan_rejected(self):
        """The host strategy is the system's own: search takes no plan,
        kernel backend or execution mode per call."""
        ds = canonical_dataset()
        engine = build_canonical_engine("split-replicated")
        for stale in ("plan", "kernel_backend", "execution"):
            with pytest.raises(TypeError, match=stale):
                engine.search(ds.queries[:4], **{stale: "auto"})

    def test_search_params_plan_validated(self):
        """No retired knob is a SearchParams field (``batch_size`` is
        the one round-size knob), ``kernel_backend`` is no
        PimSystemConfig field and ``dispatch`` no BatchingPolicy field:
        a config saved with one fails loudly on load instead of being
        silently dropped, and the kernel accessor rejects the retired
        ``numba`` mode."""
        from repro.core.config import EngineConfig
        from repro.core.params import SearchParams
        from repro.core.serving import BatchingPolicy
        from repro.pim.backend import resolve_backend
        from repro.pim.config import PimSystemConfig
        from repro.testing.goldens import canonical_config

        saved = canonical_config("split-replicated").to_dict()
        for stale in ("plan", "kernel_backend", "execution"):
            with pytest.raises(TypeError, match=stale):
                SearchParams(**{stale: "auto"})
            old = json.loads(json.dumps(saved))
            old["search"][stale] = "auto"
            with pytest.raises(TypeError, match=stale):
                EngineConfig.from_dict(old)
        with pytest.raises(TypeError, match="dispatch"):
            BatchingPolicy(dispatch="per_query")
        with pytest.raises(TypeError, match="kernel_backend"):
            PimSystemConfig(kernel_backend="auto")
        old = json.loads(json.dumps(saved))
        old["system"]["kernel_backend"] = "auto"
        with pytest.raises(TypeError, match="kernel_backend"):
            EngineConfig.from_dict(old)
        with pytest.raises(ValueError, match="numba"):
            resolve_backend("numba")
