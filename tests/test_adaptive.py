"""Conformance suite for query-adaptive probing (``repro.core.adaptive``).

The adaptive search path makes two promises this suite pins:

* **Exactness of the bound.** ``adaptive="bound"`` returns results
  bit-identical to the exhaustive scan — the triangle-inequality lower
  bound only elides work it can prove irrelevant. Checked differentially
  against the default path across every canonical config, round
  size, and randomized chunking/permutation (hypothesis).
* **Ledger honesty.** The cycle ledger charges exactly the clusters the
  adaptive run reports as executed: replaying ``AdaptiveReport.executed``
  through the fixed ``probes=`` path reproduces the RC/LC/DC kernel
  cycle totals *exactly* (they are integer-valued) and TS to within
  float accumulation order (``rel=1e-9`` — the adaptive path charges
  the log-term heap cost round by round instead of ``g * x``).

Plus unit coverage of the bound math, the gap-budget heuristic, the
radii persistence lifecycle, and the pin that engine and frontend both
merge through the one canonical ``merge_topk_pools`` helper, whose
round-by-round fold equals one canonical top-k over every candidate.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    DrimAnnEngine,
    EngineConfig,
    IndexParams,
    LayoutConfig,
    SearchParams,
)
from repro.core import adaptive as adaptive_mod
from repro.core.adaptive import (
    ADAPTIVE_MODES,
    BOUND_SLACK,
    STOP_REASONS,
    AdaptiveReport,
    cluster_radii_sq,
    codebook_norms_sq,
    lower_bounds,
    probe_budgets,
    reconstruction_norms_sq,
)
from repro.core.persist import index_info, save_index
from repro.faults import FaultConfig, FaultPlan
from repro.core.scheduler import RuntimeScheduler, SchedulerConfig
from repro.obs.observer import ObsConfig
from repro.pim.config import PimSystemConfig
from repro.testing import CANONICAL_CONFIGS, ROUND_SIZES, build_canonical_engine
from repro.testing import canonical_dataset
from repro.testing.goldens import _quantized
from repro.utils import merge_topk_pools, topk_canonical

NQ = 48
NLIST, NPROBE, M, CB = 32, 4, 8, 32

_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _config(k: int = 10, obs: bool = False) -> EngineConfig:
    return EngineConfig(
        index=IndexParams(
            nlist=NLIST, nprobe=NPROBE, k=k, num_subspaces=M, codebook_size=CB
        ),
        scheduler=SchedulerConfig(filter_threshold=None),
        system=PimSystemConfig(num_dpus=8),
        layout=LayoutConfig(min_split_size=200, max_copies=2),
        obs=ObsConfig(enabled=obs),
    )


def _build(k: int = 10, obs: bool = False) -> DrimAnnEngine:
    ds = canonical_dataset()
    return DrimAnnEngine.from_config(
        ds.base,
        _config(k=k, obs=obs),
        heat_queries=ds.queries[:50],
        prebuilt_quantized=_quantized(NLIST, M, CB),
        seed=0,
    )


@pytest.fixture(scope="module")
def engine():
    return _build()


@pytest.fixture(scope="module")
def queries():
    return canonical_dataset().queries[:NQ]


@pytest.fixture(scope="module")
def exhaustive(engine, queries):
    res, _ = engine.search(queries)
    return res


# ---------------------------------------------------------------------------
# Unit: bound math
# ---------------------------------------------------------------------------


class TestBoundMath:
    def test_codebook_norms_match_naive(self, engine):
        cb = engine.quantized.codebooks
        norms = codebook_norms_sq(cb)
        m, size, dsub = cb.shape
        for mi in (0, m - 1):
            for ci in (0, size // 2, size - 1):
                want = int(np.sum(cb[mi, ci].astype(np.int64) ** 2))
                assert int(norms[mi, ci]) == want

    def test_reconstruction_norms_match_decode(self, engine):
        q = engine.quantized
        norms = codebook_norms_sq(q.codebooks)
        cid = int(np.argmax(q.cluster_sizes()))
        codes = q.cluster_codes[cid][:16]
        got = reconstruction_norms_sq(norms, codes)
        dsub = q.codebooks.shape[2]
        for row, code in enumerate(codes):
            recon = np.concatenate(
                [
                    q.codebooks[mi, int(c)].astype(np.int64)
                    for mi, c in enumerate(code)
                ]
            )
            assert int(got[row]) == int(np.sum(recon**2))

    def test_cluster_radii_bound_every_row(self, engine):
        q = engine.quantized
        radii = cluster_radii_sq(q)
        norms = codebook_norms_sq(q.codebooks)
        assert radii.shape == (q.nlist,)
        assert radii.dtype == np.int64
        for cid in range(q.nlist):
            codes = q.cluster_codes[cid]
            if len(codes) == 0:
                assert radii[cid] == 0
            else:
                assert radii[cid] == reconstruction_norms_sq(norms, codes).max()

    def test_lower_bound_never_exceeds_any_adc_distance(self, engine):
        """The heart of exactness: for real query/cluster pairs the
        bound sits at or below the *minimum* exact ADC distance."""
        q = engine.quantized
        ds = canonical_dataset()
        radii = cluster_radii_sq(q)
        norms = codebook_norms_sq(q.codebooks)
        rng = np.random.default_rng(0)
        for qi in rng.choice(NQ, size=8, replace=False):
            query = ds.queries[qi].astype(np.int64)
            for cid in rng.choice(q.nlist, size=6, replace=False):
                codes = q.cluster_codes[cid]
                if len(codes) == 0:
                    continue
                resid = query - q.centroids[cid].astype(np.int64)
                rr = int(np.sum(resid**2))
                lb = lower_bounds(
                    np.array([rr]), np.array([radii[cid]])
                )[0]
                # exact ADC distances of every row in the cluster
                recon = np.stack(
                    [
                        np.concatenate(
                            [
                                q.codebooks[mi, int(c)].astype(np.int64)
                                for mi, c in enumerate(code)
                            ]
                        )
                        for code in codes
                    ]
                )
                dists = np.sum((resid[None, :] - recon) ** 2, axis=1)
                assert lb <= dists.min()

    def test_lower_bounds_values(self):
        # rr == radius: expansion gives 0, slack shifts below zero.
        assert lower_bounds(np.array([100]), np.array([100]))[0] == pytest.approx(
            -BOUND_SLACK
        )
        # far outside the radius: (sqrt(rr) - sqrt(R^2))^2 - slack.
        got = lower_bounds(np.array([400.0]), np.array([100.0]))[0]
        assert got == pytest.approx((20.0 - 10.0) ** 2 - BOUND_SLACK)
        # negative (padded) centroid distances never fire.
        assert lower_bounds(np.array([-1.0]), np.array([5.0]))[0] == -np.inf
        # rr < R^2: inside the reconstruction ball nothing positive can
        # be ruled out.
        rr = np.array([0.0, 1.0, 99.0, 100.0, 3.0e6])
        r2 = np.array([5.0, 400.0, 100.0, 1.0e4, 1.0e8])
        assert (lower_bounds(rr, r2) <= 0.0).all()

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        spread=st.sampled_from([0, 2, 30, 255]),
        scale=st.sampled_from([1, 20, 510]),
    )
    @_SETTINGS
    def test_bound_below_every_member_property(self, seed, spread, scale):
        """For random integer codebooks/codes/queries — residuals inside
        and outside the cluster's radius — the bound never exceeds the
        true minimum ADC distance of any cluster member."""
        rng = np.random.default_rng(seed)
        m, cb, dsub = 4, 8, 3
        books = rng.integers(-scale, scale + 1, size=(m, cb, dsub)).astype(
            np.int16
        )
        codes = rng.integers(0, cb, size=(20, m))
        radius_sq = int(
            reconstruction_norms_sq(codebook_norms_sq(books), codes).max()
        )
        resid = rng.integers(-spread, spread + 1, size=(5, m * dsub))
        recon = books[np.arange(m), codes].reshape(len(codes), m * dsub)
        adc = ((resid[:, None, :] - recon[None].astype(np.int64)) ** 2).sum(-1)
        rr = (resid.astype(np.int64) ** 2).sum(-1)
        lb = lower_bounds(rr, np.full(len(rr), radius_sq))
        assert (lb <= adc.min(axis=1)).all()

    def test_kth_pool_distance(self):
        """The bound reads a query's k-th distance from column ``k - 1``
        of the running top-k: ``inf`` until k candidates arrived."""
        best_i, best_d = _running(1, 3)
        assert best_d[0, 2] == np.inf
        merge_topk_pools(best_i, best_d, [0], [[4, 6]], [[1.0, 2.0]])
        assert best_d[0, 2] == np.inf
        for k, want in ((3, 5.0), (1, 1.0)):
            best_i, best_d = _running(1, k)
            merge_topk_pools(
                best_i, best_d, [0, 0], [[1, 2], [3, 4]], [[5.0, 1.0], [3.0, 9.0]]
            )
            assert best_d[0, k - 1] == want


class TestProbeBudgets:
    def test_sharp_gap_cuts_early(self):
        d = np.array([[1.0, 2.0, 3.0, 100.0, 101.0]])
        assert probe_budgets(d, 1, 2.0)[0] == 3

    def test_flat_profile_keeps_full_budget(self):
        d = np.arange(5, dtype=np.float64)[None, :]
        assert probe_budgets(d, 1, 2.0)[0] == 5

    def test_constant_profile_keeps_full_budget(self):
        d = np.full((1, 4), 7.0)
        assert probe_budgets(d, 1, 2.0)[0] == 4

    def test_nprobe_min_clamps(self):
        d = np.array([[1.0, 100.0, 101.0, 102.0]])
        assert probe_budgets(d, 1, 2.0)[0] == 1
        # A gap inside the mandatory prefix cannot cut: with the only
        # qualifying gap at position 0 < nprobe_min, the budget falls
        # back to the full probe list rather than cutting below the floor.
        assert probe_budgets(d, 3, 2.0)[0] == 4
        # A qualifying gap at/after the floor still cuts there.
        d2 = np.array([[1.0, 2.0, 3.0, 300.0, 301.0]])
        assert probe_budgets(d2, 3, 2.0)[0] == 3

    def test_single_probe_column(self):
        assert probe_budgets(np.array([[4.0]]), 1, 2.0)[0] == 1

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        p=st.integers(min_value=1, max_value=16),
        lo=st.integers(min_value=1, max_value=16),
        gap=st.floats(min_value=0.5, max_value=8.0),
    )
    @_SETTINGS
    def test_budgets_always_in_range(self, seed, p, lo, gap):
        rng = np.random.default_rng(seed)
        d = np.sort(rng.integers(0, 10_000, size=(5, p)), axis=1)
        b = probe_budgets(d, lo, gap)
        assert b.shape == (5,)
        assert (b >= min(lo, p)).all() and (b <= p).all()


# ---------------------------------------------------------------------------
# Params / search-argument validation
# ---------------------------------------------------------------------------


class TestAdaptiveParams:
    def test_modes_tuple(self):
        assert ADAPTIVE_MODES == ("off", "bound", "budget", "full")

    @pytest.mark.parametrize("mode", ADAPTIVE_MODES)
    def test_valid_modes_accepted(self, mode):
        assert SearchParams(adaptive=mode).adaptive == mode

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="adaptive"):
            SearchParams(adaptive="sometimes")

    def test_bad_nprobe_min_rejected(self):
        with pytest.raises(ValueError, match="nprobe_min"):
            SearchParams(nprobe_min=0)

    def test_bad_gap_rejected(self):
        with pytest.raises(ValueError, match="adaptive_gap"):
            SearchParams(adaptive_gap=0.0)

    def test_search_rejects_bad_mode(self, engine, queries):
        with pytest.raises(ValueError, match="adaptive"):
            engine.search(queries[:2], adaptive="sometimes")

    def test_report_to_dict(self):
        rep = AdaptiveReport(
            mode="bound",
            nprobe_max=8,
            budgets=np.array([8, 8]),
            probes_executed=np.array([3, 8]),
            stop_reasons=["bound", "exhausted"],
            executed=[[1, 2, 3], [0, 1, 2, 3, 4, 5, 6, 7]],
        )
        d = rep.to_dict()
        assert d["mode"] == "bound"
        assert d["nprobe_max"] == 8
        assert d["mean_probes_executed"] == 5.5
        assert d["total_probes_executed"] == 11
        assert d["stop_reasons"] == {"bound": 1, "budget": 0, "exhausted": 1}


# ---------------------------------------------------------------------------
# Tentpole: bound ≡ exhaustive, bit for bit
# ---------------------------------------------------------------------------


class TestBoundBitIdentity:
    def test_bound_matches_exhaustive(self, engine, queries, exhaustive):
        out = engine.search(queries, adaptive="bound")
        np.testing.assert_array_equal(out.results.ids, exhaustive.ids)
        np.testing.assert_array_equal(
            out.results.distances, exhaustive.distances
        )
        rep = out.adaptive
        assert rep is not None and rep.mode == "bound"
        assert (rep.budgets == NPROBE).all()
        assert (rep.probes_executed <= NPROBE).all()
        assert (rep.probes_executed >= 1).all()
        assert len(rep.stop_reasons) == NQ
        assert set(rep.stop_reasons) <= set(STOP_REASONS)
        assert "budget" not in rep.stop_reasons
        assert [len(e) for e in rep.executed] == list(rep.probes_executed)

    def test_bound_actually_elides_work(self, engine, queries):
        out = engine.search(queries, adaptive="bound")
        assert int(out.adaptive.probes_executed.sum()) < NQ * NPROBE

    @pytest.mark.parametrize(
        "batch_size",
        [
            pytest.param(None, id="batched"),
            pytest.param(16, id="chunked"),
            pytest.param(1, id="per_query"),
        ],
    )
    def test_bound_identity_across_execution_modes(
        self, engine, queries, exhaustive, batch_size
    ):
        original = engine.search_params
        engine.search_params = replace(original, batch_size=batch_size)
        try:
            out = engine.search(queries, adaptive="bound")
        finally:
            engine.search_params = original
        np.testing.assert_array_equal(out.results.ids, exhaustive.ids)
        np.testing.assert_array_equal(
            out.results.distances, exhaustive.distances
        )

    def test_bound_identity_through_filter_deferral(self, monkeypatch):
        """With the default load filter on, adaptive rounds defer tasks
        (carried into later rounds, then drained); bound stays exact."""
        name = "base-balanced"  # default SchedulerConfig: filter on
        q = canonical_dataset().queries[: CANONICAL_CONFIGS[name]["num_queries"]]
        deferred = []
        schedule = RuntimeScheduler.schedule_batch

        def spy(self, tasks, **flags):
            outcome = schedule(self, tasks, **flags)
            deferred.append(len(outcome.deferred))
            return outcome

        with build_canonical_engine(
            name, batch_size=ROUND_SIZES["chunked"]
        ) as eng:
            assert eng.scheduler.config.filter_threshold is not None
            off, _ = eng.search(q, adaptive="off")
            monkeypatch.setattr(RuntimeScheduler, "schedule_batch", spy)
            bound = eng.search(q, adaptive="bound")
        assert sum(deferred) > 0
        assert bound.adaptive is not None
        np.testing.assert_array_equal(bound.results.ids, off.ids)
        np.testing.assert_array_equal(bound.results.distances, off.distances)

    @pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
    def test_bound_identity_on_canonical_configs(self, name):
        c = CANONICAL_CONFIGS[name]
        ds = canonical_dataset()
        q = ds.queries[: c["num_queries"]]
        eng = build_canonical_engine(name)
        try:
            base, _ = eng.search(q)
            out = eng.search(q, adaptive="bound")
        finally:
            eng.close()
        np.testing.assert_array_equal(out.results.ids, base.ids)
        np.testing.assert_array_equal(out.results.distances, base.distances)

    def test_full_mode_respects_budgets(self, engine, queries):
        out = engine.search(queries, adaptive="full")
        rep = out.adaptive
        assert rep.mode == "full"
        assert (rep.budgets <= NPROBE).all()
        assert (rep.probes_executed <= rep.budgets).all()

    def test_budget_mode_reports_reasons(self, engine, queries):
        rep = engine.search(queries, adaptive="budget").adaptive
        assert rep.mode == "budget"
        # No bound checks in pure budget mode.
        assert "bound" not in rep.stop_reasons
        assert (rep.probes_executed == rep.budgets).all()

    def test_off_returns_no_report(self, engine, queries):
        assert engine.search(queries, adaptive="off").adaptive is None

    def test_explicit_probes_skip_budget_keep_bound(self, engine, queries):
        probes = engine.quantized.locate(queries, NPROBE)
        out = engine.search(queries, probes=probes, adaptive="full")
        rep = out.adaptive
        # The budget heuristic is the caller's job on this path.
        assert (rep.budgets == probes.shape[1]).all()
        res, _ = engine.search(queries, probes=probes)
        np.testing.assert_array_equal(out.results.ids, res.ids)


class TestAdaptiveProperties:
    @given(batch_size=st.integers(min_value=1, max_value=NQ))
    @_SETTINGS
    def test_chunking_invariance(
        self, engine, queries, exhaustive, batch_size
    ):
        original = engine.search_params
        engine.search_params = replace(original, batch_size=batch_size)
        try:
            out = engine.search(queries, adaptive="bound")
        finally:
            engine.search_params = original
        np.testing.assert_array_equal(out.results.ids, exhaustive.ids)
        np.testing.assert_array_equal(
            out.results.distances, exhaustive.distances
        )

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @_SETTINGS
    def test_permutation_invariance(self, engine, queries, seed):
        perm = np.random.default_rng(seed).permutation(NQ)
        base = engine.search(queries, adaptive="bound")
        out = engine.search(queries[perm], adaptive="bound")
        np.testing.assert_array_equal(out.results.ids, base.results.ids[perm])
        np.testing.assert_array_equal(
            out.adaptive.probes_executed, base.adaptive.probes_executed[perm]
        )

    def test_probes_monotone_in_k(self, queries):
        """A larger k keeps the k-th distance higher for longer, so the
        bound can only stop later: probes(k=5) <= probes(k=10) per query."""
        e5, e10 = _build(k=5), _build(k=10)
        try:
            p5 = e5.search(queries, adaptive="bound").adaptive.probes_executed
            p10 = e10.search(queries, adaptive="bound").adaptive.probes_executed
        finally:
            e5.close()
            e10.close()
        assert (p5 <= p10).all()


# ---------------------------------------------------------------------------
# Ledger honesty
# ---------------------------------------------------------------------------


class TestLedgerHonesty:
    """The ledger charges exactly the probes the report admits to.

    Replay ``AdaptiveReport.executed`` through a fresh engine's fixed
    ``probes=`` path: identical work must produce identical kernel
    cycles. RC/LC/DC charges are integer-valued per task, so equality
    is exact; TS accumulates the per-round heap log-term in a different
    association order than the batched ``g * x`` product, so it is
    compared at ``rel=1e-9`` (last-ulp float noise, not missing work).
    """

    @pytest.fixture(scope="class")
    def replayed(self, queries):
        a, b = _build(), _build()
        try:
            adaptive_out = a.search(queries, adaptive="bound")
            executed = adaptive_out.adaptive.executed
            width = max(len(e) for e in executed)
            probes = np.full((NQ, width), -1, dtype=np.int64)
            for i, e in enumerate(executed):
                probes[i, : len(e)] = e
            fixed_out = b.search(queries, probes=probes)
        finally:
            a.close()
            b.close()
        return adaptive_out, fixed_out

    def test_results_identical(self, replayed):
        adaptive_out, fixed_out = replayed
        np.testing.assert_array_equal(
            adaptive_out.results.ids, fixed_out.results.ids
        )
        np.testing.assert_array_equal(
            adaptive_out.results.distances, fixed_out.results.distances
        )

    def test_scan_kernels_charge_exactly(self, replayed):
        adaptive_out, fixed_out = replayed
        got = adaptive_out.breakdown.kernel_cycles
        want = fixed_out.breakdown.kernel_cycles
        assert set(got) == set(want) == {"RC", "LC", "DC", "TS"}
        for kernel in ("RC", "LC", "DC"):
            assert got[kernel] == want[kernel], (
                f"{kernel} cycles dishonest: adaptive charged "
                f"{got[kernel]}, replaying its probes charged {want[kernel]}"
            )
        assert got["TS"] == pytest.approx(want["TS"], rel=1e-9)

    def test_replay_was_a_real_reduction(self, replayed):
        adaptive_out, _ = replayed
        assert int(adaptive_out.adaptive.probes_executed.sum()) < NQ * NPROBE

    def test_fault_uncovered_clusters_leave_the_report(self, queries):
        """Clusters a dead, unreplicated DPU could not serve were never
        charged, so the report must not count them as executed."""
        fault_plan = FaultPlan(
            num_dpus=8, config=FaultConfig(), fail_at_batch={3: 0}
        )
        config = replace(
            _config(),
            layout=LayoutConfig(min_split_size=200, max_copies=0),
            faults=fault_plan,
        )
        ds = canonical_dataset()
        with DrimAnnEngine.from_config(
            ds.base,
            config,
            heat_queries=ds.queries[:50],
            prebuilt_quantized=_quantized(NLIST, M, CB),
            seed=0,
        ) as eng:
            out = eng.search(queries, adaptive="bound")
        uncovered = out.breakdown.faults.uncovered
        assert uncovered
        for q, cid in uncovered:
            assert cid not in out.adaptive.executed[q]
        assert list(out.adaptive.probes_executed) == [
            len(e) for e in out.adaptive.executed
        ]


# ---------------------------------------------------------------------------
# Radii lifecycle: persistence, upgrade, mutation
# ---------------------------------------------------------------------------


class TestRadiiLifecycle:
    def test_save_persists_radii(self, tmp_path):
        eng = _build()
        path = str(tmp_path / "with_radii.drimidx")
        want = eng.cluster_radii_sq().copy()
        try:
            eng.save(path)
        finally:
            eng.close()
        info = index_info(path)
        assert info["has_cluster_radii"] is True
        assert info["optional_segments"]["cluster_radii"] is True
        loaded = DrimAnnEngine.load(path, config=_config())
        try:
            np.testing.assert_array_equal(loaded.cluster_radii_sq(), want)
        finally:
            loaded.close()

    def test_loaded_engine_bound_identity(self, tmp_path, queries):
        eng = _build()
        path = str(tmp_path / "roundtrip.drimidx")
        try:
            eng.save(path)
        finally:
            eng.close()
        loaded = DrimAnnEngine.load(path, config=_config())
        try:
            base, _ = loaded.search(queries)
            out = loaded.search(queries, adaptive="bound")
        finally:
            loaded.close()
        assert out.adaptive is not None
        np.testing.assert_array_equal(out.results.ids, base.ids)
        np.testing.assert_array_equal(out.results.distances, base.distances)

    def test_radii_less_file_gracefully_disables_bound(
        self, tmp_path, queries
    ):
        """Old index files predate the segment: adaptive='bound' must
        fall back to the exhaustive path, not recompute or crash."""
        eng = _build()
        path = str(tmp_path / "no_radii.drimidx")
        try:
            save_index(eng.quantized, path)  # no cluster_radii
            base, _ = eng.search(queries)
        finally:
            eng.close()
        info = index_info(path)
        assert info["has_cluster_radii"] is False
        assert info["optional_segments"]["cluster_radii"] is False
        loaded = DrimAnnEngine.load(path, config=_config())
        try:
            assert loaded.cluster_radii_sq() is None
            out = loaded.search(queries, adaptive="bound")
        finally:
            loaded.close()
        # Degenerate fallback: exhaustive results, no adaptive report.
        assert out.adaptive is None
        np.testing.assert_array_equal(out.results.ids, base.ids)

    def test_save_upgrades_radii_less_file(self, tmp_path):
        eng = _build()
        path = str(tmp_path / "upgrade.drimidx")
        try:
            save_index(eng.quantized, path)
        finally:
            eng.close()
        loaded = DrimAnnEngine.load(path, config=_config())
        path2 = str(tmp_path / "upgraded.drimidx")
        try:
            assert loaded.cluster_radii_sq() is None
            loaded.save(path2)
            # Saving computed fresh radii and re-enabled the bound path.
            assert loaded.cluster_radii_sq() is not None
        finally:
            loaded.close()
        assert index_info(path2)["has_cluster_radii"] is True

    def test_add_keeps_radii_an_upper_bound(self, queries):
        # add() mutates the quantized index in place; the module-cached
        # _quantized object is shared with the golden-run configs, so
        # this test builds its engine on a private compacted copy.
        ds = canonical_dataset()
        eng = DrimAnnEngine.from_config(
            ds.base,
            _config(),
            heat_queries=ds.queries[:50],
            prebuilt_quantized=_quantized(NLIST, M, CB).compact(),
            seed=0,
        )
        try:
            eng.cluster_radii_sq()  # populate the cache pre-add
            rng = np.random.default_rng(7)
            eng.add(rng.integers(0, 256, size=(64, eng.quantized.dim)).astype(
                np.uint8
            ))
            cached = eng.cluster_radii_sq()
            fresh = cluster_radii_sq(eng.quantized)
            assert (cached >= fresh).all()
            # And the bound stays exact on the mutated engine.
            base, _ = eng.search(queries)
            out = eng.search(queries, adaptive="bound")
        finally:
            eng.close()
        np.testing.assert_array_equal(out.results.ids, base.ids)
        np.testing.assert_array_equal(
            out.results.distances, base.distances
        )


# ---------------------------------------------------------------------------
# Canonical merge helper is the single merge implementation
# ---------------------------------------------------------------------------


def _running(nq, k):
    """An empty running top-k: ``-1`` ids, ``inf`` distances."""
    return np.full((nq, k), -1, dtype=np.int64), np.full((nq, k), np.inf)


class TestCanonicalMergePinned:
    def test_merge_topk_pools_canonical_tiebreak(self):
        best_i, best_d = _running(1, 3)
        merge_topk_pools(
            best_i, best_d, [0, 0], [[7, 3], [5, -1]], [[2.0, 1.0], [1.0, np.inf]]
        )
        # Tie at distance 1.0 broken by smaller id.
        np.testing.assert_array_equal(best_i[0], [3, 5, 7])
        np.testing.assert_array_equal(best_d[0], [1.0, 1.0, 2.0])

    def test_merge_topk_pools_fill_values(self):
        best_i, best_d = _running(1, 4)
        merge_topk_pools(
            best_i, best_d, np.empty(0, dtype=np.int64),
            np.empty((0, 4), dtype=np.int64), np.empty((0, 4)),
        )
        assert (best_i == -1).all() and np.isinf(best_d).all()

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_round_fold_equals_one_canonical_topk(self, data):
        """Folding task blocks round by round equals one
        :func:`topk_canonical` per query over every candidate: under
        forced distance ties, with ``-1`` / ``inf`` padded block rows,
        for any split into rounds and any arrival order."""
        nq = data.draw(st.integers(1, 5), label="nq")
        k = data.draw(st.integers(1, 6), label="k")
        width = data.draw(st.integers(1, 6), label="width")
        num_rows = data.draw(st.integers(0, 12), label="rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        rows = rng.integers(0, nq, size=num_rows)
        # Few distinct distances force ties; ids are unique per query
        # (disjoint shards), and each row keeps a padded tail.
        ids = rng.permutation(1000)[: num_rows * width].reshape(num_rows, width)
        dists = rng.integers(0, 3, size=(num_rows, width)).astype(np.float64)
        fill = rng.integers(0, width + 1, size=num_rows)
        pad = np.arange(width) >= fill[:, None]
        ids[pad] = -1
        dists[pad] = np.inf
        want_i, want_d = _running(nq, k)
        for q in range(nq):
            live = (rows[:, None] == q) & ~pad
            sel_i, sel_d = topk_canonical(dists[live], ids[live], k)
            want_i[q, : len(sel_i)] = sel_i
            want_d[q, : len(sel_d)] = sel_d
        order = rng.permutation(num_rows)
        cuts = np.sort(rng.integers(0, num_rows + 1, size=rng.integers(0, 4)))
        best_i, best_d = _running(nq, k)
        for part in np.split(order, cuts):
            merge_topk_pools(best_i, best_d, rows[part], ids[part], dists[part])
        np.testing.assert_array_equal(best_i, want_i)
        np.testing.assert_array_equal(best_d, want_d)

    def test_engine_routes_through_helper(self, queries, monkeypatch):
        import repro.core.engine as engine_mod

        calls = {"n": 0}
        real = engine_mod.merge_topk_pools

        def spy(*a, **kw):
            calls["n"] += 1
            return real(*a, **kw)

        monkeypatch.setattr(engine_mod, "merge_topk_pools", spy)
        eng = _build()
        try:
            eng.search(queries[:4])
            assert calls["n"] == 1  # one round, one fold
            eng.search(queries[:4], adaptive="bound")
            assert calls["n"] >= 2  # one fold per adaptive round
        finally:
            eng.close()

    def test_frontend_routes_through_helper(self, monkeypatch):
        import repro.cluster.frontend as frontend_mod

        calls = {"n": 0}
        real = frontend_mod.merge_topk_pools

        def spy(*a, **kw):
            calls["n"] += 1
            return real(*a, **kw)

        monkeypatch.setattr(frontend_mod, "merge_topk_pools", spy)
        res = frontend_mod.merge_shard_results([], 2, 3)
        assert calls["n"] == 1
        assert (res.ids == -1).all()


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


class TestAdaptiveObservability:
    def test_adaptive_metrics_recorded(self, queries):
        eng = _build(obs=True)
        try:
            out = eng.search(queries, adaptive="bound")
        finally:
            eng.close()
        snap = out.metrics
        hist = snap.find("drimann_probes_executed")
        assert hist is not None and hist["count"] == NQ
        assert hist["sum"] == int(out.adaptive.probes_executed.sum())
        stops = sum(
            snap.value("drimann_adaptive_stops_total", reason=r)
            for r in STOP_REASONS
        )
        assert stops == NQ

    def test_off_records_no_adaptive_metrics(self, queries):
        eng = _build(obs=True)
        try:
            out = eng.search(queries)
        finally:
            eng.close()
        assert out.metrics.find("drimann_probes_executed") is None
