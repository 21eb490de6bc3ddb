import numpy as np
import pytest

from repro.core.autotune import BatchTuneResult, tune_batch_size


class TestTuneThroughput:
    def test_returns_best_of_sweep(self, small_engine, small_ds):
        res = tune_batch_size(
            small_engine,
            small_ds.queries[:80],
            candidates=(16, 64),
            apply=False,
        )
        assert res.best_batch_size in (16, 64)
        assert len(res.sweep) == 2
        best_score = res.score_of(res.best_batch_size)
        assert all(best_score >= s for _, s in res.sweep)

    def test_apply_installs_winner(self, small_ds, small_quantized, small_params):
        from repro.core import DrimAnnEngine, EngineConfig, SearchParams
        from repro.pim.config import PimSystemConfig

        eng = DrimAnnEngine.from_config(
            small_ds.base,
            EngineConfig(
                index=small_params,
                search=SearchParams(batch_size=32),
                system=PimSystemConfig(num_dpus=8),
            ),
            prebuilt_quantized=small_quantized,
            seed=0,
        )
        res = tune_batch_size(
            eng, small_ds.queries[:60], candidates=(16, 64), apply=True
        )
        assert eng.search_params.batch_size == res.best_batch_size

    def test_no_apply_restores_original(self, small_engine, small_ds):
        before = small_engine.search_params.batch_size
        tune_batch_size(
            small_engine, small_ds.queries[:40], candidates=(16,), apply=False
        )
        assert small_engine.search_params.batch_size == before

    def test_results_unaffected_by_tuning(self, small_engine, small_ds):
        ref = small_engine.reference_search(small_ds.queries[:30])
        tune_batch_size(
            small_engine, small_ds.queries[:30], candidates=(8, 32), apply=True
        )
        res, _ = small_engine.search(small_ds.queries[:30])
        np.testing.assert_allclose(
            np.sort(res.distances, axis=1), np.sort(ref.distances, axis=1)
        )


class TestTuneP99:
    def test_p99_objective(self, small_engine, small_ds):
        res = tune_batch_size(
            small_engine,
            small_ds.queries[:80],
            objective="p99",
            arrival_rate_qps=20_000,
            candidates=(8, 64),
            apply=False,
        )
        assert res.objective == "p99"
        best_score = res.score_of(res.best_batch_size)
        assert all(best_score <= s for _, s in res.sweep)

    def test_p99_requires_rate(self, small_engine, small_ds):
        with pytest.raises(ValueError, match="arrival_rate_qps"):
            tune_batch_size(
                small_engine, small_ds.queries[:10], objective="p99"
            )


class TestValidation:
    def test_bad_objective(self, small_engine, small_ds):
        with pytest.raises(ValueError, match="objective"):
            tune_batch_size(
                small_engine, small_ds.queries[:10], objective="latency"
            )

    def test_empty_candidates(self, small_engine, small_ds):
        with pytest.raises(ValueError, match="candidates"):
            tune_batch_size(
                small_engine, small_ds.queries[:10], candidates=()
            )

    def test_score_of_unknown(self):
        r = BatchTuneResult(best_batch_size=8, objective="throughput", sweep=((8, 1.0),))
        with pytest.raises(KeyError):
            r.score_of(99)
