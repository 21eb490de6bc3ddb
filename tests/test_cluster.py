"""Cluster tier: sharding, scatter-gather bit-exactness, failover.

The load-bearing claim is structural: shards own **disjoint** cluster
sets and the merge uses the canonical ``(distance, id)`` tie-break, so
the cluster result is bit-identical to the single-engine oracle
whenever every probed shard answers — regardless of round size,
shard count, replication, or response arrival order. The fault tests
then show that claim surviving a crash (with replication) and
degrading with *accurate* coverage (without).
"""

import asyncio
import json
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ann import IVFPQIndex
from repro.utils import topk_canonical
from repro.cli import main as cli_main
from repro.cluster import (
    ClusterConfig,
    ClusterFrontend,
    FrontendConfig,
    ShardResponse,
    build_cluster_index,
    merge_shard_results,
    partition_clusters,
    simulate_cluster_serving,
)
from repro.core import (
    DrimAnnEngine,
    EngineConfig,
    IndexParams,
    LayoutConfig,
)
from repro.core.adaptive import probe_budgets
from repro.core.quantized import build_quantized_index
from repro.core.serving import BatchingPolicy
from repro.data.synthetic import SyntheticSpec, make_clustered_dataset
from repro.faults.plan import NodeFaultConfig, NodeFaultPlan
from repro.pim.config import PimSystemConfig
from repro.utils import BackoffPolicy

_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(scope="module")
def engine_config(small_params):
    return EngineConfig(
        index=small_params,
        system=PimSystemConfig(num_dpus=16),
        layout=LayoutConfig(min_split_size=400, max_copies=2),
    )


@pytest.fixture(scope="module")
def replicated_cluster(small_ds, small_quantized, engine_config):
    """3 shards x 2 replicas over the shared 20k corpus."""
    with build_cluster_index(
        small_ds.base,
        engine_config,
        ClusterConfig(num_shards=3, replication=2),
        heat_queries=small_ds.queries[:50],
        prebuilt_quantized=small_quantized,
        seed=0,
    ) as cluster:
        yield cluster


@pytest.fixture(scope="module")
def unreplicated_cluster(small_ds, small_quantized, engine_config):
    with build_cluster_index(
        small_ds.base,
        engine_config,
        ClusterConfig(num_shards=3, replication=1),
        heat_queries=small_ds.queries[:50],
        prebuilt_quantized=small_quantized,
        seed=0,
    ) as cluster:
        yield cluster


@pytest.fixture(scope="module")
def queries(small_ds):
    return small_ds.queries[:32]


@pytest.fixture(scope="module")
def gold(replicated_cluster, queries):
    return replicated_cluster.oracle_search(queries)


def crash_plan(cluster, node_ids, round_index=0):
    return NodeFaultPlan(
        num_nodes=cluster.num_nodes,
        config=NodeFaultConfig(),
        crash_at_round={n: round_index for n in node_ids},
    )


class TestFrontendBoundaryValidation:
    @pytest.mark.parametrize(
        "kind, value",
        [("finite", np.inf), ("integer values", 7.25), (r"\[0, 255\]", -1.0)],
    )
    def test_search_rejects(self, replicated_cluster, queries, kind, value):
        bad = queries[:3].astype(np.float64)
        bad[1, 2] = value
        with pytest.raises(ValueError, match=f"queries.*{kind}"):
            ClusterFrontend(replicated_cluster, seed=0).search(bad)


class TestPartitionClusters:
    def test_disjoint_and_complete(self, rng):
        heat = rng.random(64)
        owner = partition_clusters(heat, 4)
        assert owner.shape == (64,)
        assert set(np.unique(owner)) == {0, 1, 2, 3}

    def test_deterministic(self, rng):
        heat = rng.random(64)
        np.testing.assert_array_equal(
            partition_clusters(heat, 4), partition_clusters(heat.copy(), 4)
        )

    def test_balances_heat(self, rng):
        heat = rng.random(256)
        owner = partition_clusters(heat, 4)
        loads = np.array([heat[owner == s].sum() for s in range(4)])
        # Greedy least-loaded-first lands within a few percent of even.
        assert loads.max() / loads.min() < 1.1

    def test_single_shard_owns_everything(self, rng):
        owner = partition_clusters(rng.random(16), 1)
        assert np.all(owner == 0)


class TestClusterTopology:
    def test_shards_partition_the_clusters(self, replicated_cluster):
        owned = np.concatenate(
            [s.global_cids for s in replicated_cluster.shards]
        )
        assert sorted(owned) == list(range(replicated_cluster.router.nlist))

    def test_node_grid(self, replicated_cluster):
        c = replicated_cluster
        assert c.num_nodes == c.num_shards * c.replication
        for s in range(c.num_shards):
            for r in range(c.replication):
                node = c.node_id(s, r)
                assert c.shard_of_node(node) == s

    def test_local_probe_routing(self, replicated_cluster, queries):
        c = replicated_cluster
        probes = c.locate(queries)
        for shard in c.shards:
            lp = shard.local_probes(probes)
            owned = lp >= 0
            # Exactly the probes this shard owns map to local ids.
            np.testing.assert_array_equal(
                owned, c.owner[probes] == shard.shard_id
            )
            if np.any(owned):
                assert lp[owned].max() < len(shard.global_cids)

    def test_padding_probes_stay_padding(self, replicated_cluster, queries):
        """A ``-1`` (budget-truncated) slot never wraps to the last
        cluster's owner."""
        probes = replicated_cluster.locate(queries).copy()
        probes[:, 2:] = -1
        for shard in replicated_cluster.shards:
            lp = shard.local_probes(probes)
            assert (lp[:, 2:] == -1).all()


class TestBitExactness:
    def test_healthy_matches_oracle(self, replicated_cluster, queries, gold):
        res, rep = ClusterFrontend(replicated_cluster, seed=0).search(queries)
        np.testing.assert_array_equal(res.ids, gold.ids)
        np.testing.assert_array_equal(res.distances, gold.distances)
        assert rep.mean_coverage == 1.0
        assert rep.failed_shards == []

    @pytest.mark.parametrize(
        "batch_size",
        [
            pytest.param(None, id="batched"),
            pytest.param(16, id="chunked"),
            pytest.param(1, id="per_query"),
        ],
    )
    def test_every_execution_mode_matches_oracle(
        self, replicated_cluster, queries, gold, batch_size
    ):
        """Node engines running rounds of any size answer alike."""
        engines = [
            replicated_cluster.node_engine(n)
            for n in range(replicated_cluster.num_nodes)
        ]
        originals = [e.search_params for e in engines]
        for e in engines:
            e.search_params = replace(e.search_params, batch_size=batch_size)
        try:
            res, _ = ClusterFrontend(replicated_cluster, seed=0).search(queries)
        finally:
            for e, sp in zip(engines, originals):
                e.search_params = sp
        np.testing.assert_array_equal(res.ids, gold.ids)
        np.testing.assert_array_equal(res.distances, gold.distances)

    def test_unreplicated_healthy_matches_oracle(
        self, unreplicated_cluster, queries, gold
    ):
        res, _ = ClusterFrontend(unreplicated_cluster, seed=0).search(queries)
        np.testing.assert_array_equal(res.ids, gold.ids)


class TestAdaptiveRouting:
    """Adaptive probing composes with the rack tier.

    Shard-local bound termination is globally safe (a shard's candidate
    pool is a subset of the global pool, so its k-th distance is an
    overestimate), hence ``adaptive="bound"`` stays bit-identical to
    the exhaustive oracle even when scattered across shards. Budget
    modes truncate the probe matrix *before* the scatter, so coverage
    accounting must only count the probes that were actually requested.
    """

    def test_bound_matches_oracle(self, replicated_cluster, queries, gold):
        res, rep = ClusterFrontend(replicated_cluster, seed=0).search(
            queries, adaptive="bound"
        )
        np.testing.assert_array_equal(res.ids, gold.ids)
        np.testing.assert_array_equal(res.distances, gold.distances)
        assert rep.mean_coverage == 1.0

    def test_bound_matches_oracle_unreplicated(
        self, unreplicated_cluster, queries, gold
    ):
        res, _ = ClusterFrontend(unreplicated_cluster, seed=0).search(
            queries, adaptive="bound"
        )
        np.testing.assert_array_equal(res.ids, gold.ids)

    @pytest.mark.parametrize("mode", ["budget", "full"])
    def test_budget_modes_serve_with_full_coverage(
        self, replicated_cluster, queries, mode
    ):
        res, rep = ClusterFrontend(replicated_cluster, seed=0).search(
            queries, adaptive=mode
        )
        # Truncated probes are elided work, not failed coverage.
        assert rep.mean_coverage == 1.0
        assert rep.failed_shards == []
        assert (res.ids >= 0).all()

    @pytest.mark.parametrize("nprobe_min, gap", [(None, 2.0), (1, 0.5), (8, 2.0)])
    def test_budgets_follow_node_search_params(
        self, small_ds, small_quantized, engine_config, monkeypatch,
        nprobe_min, gap,
    ):
        """Rack budgets use the nodes' ``nprobe_min``/``adaptive_gap``,
        like a single engine: the shards see exactly the budgeted
        probes, and a floor of ``nprobe`` keeps every probe, so
        ``"budget"`` then answers exactly like ``"off"``."""
        config = engine_config.replace(
            search=replace(
                engine_config.search, nprobe_min=nprobe_min, adaptive_gap=gap
            )
        )
        scattered = []
        search = DrimAnnEngine.search

        def spy(self, queries, **kw):
            scattered.append(int((kw["probes"] >= 0).sum()))
            return search(self, queries, **kw)

        queries = small_ds.queries
        with build_cluster_index(
            small_ds.base,
            config,
            ClusterConfig(num_shards=2, replication=1),
            heat_queries=small_ds.queries[:50],
            prebuilt_quantized=small_quantized,
            seed=0,
        ) as cluster:
            _, rr = cluster.locate_with_distances(queries)
            monkeypatch.setattr(DrimAnnEngine, "search", spy)
            budget, _ = ClusterFrontend(cluster, seed=0).search(
                queries, adaptive="budget"
            )
            budget_probes = sum(scattered)
            off, _ = ClusterFrontend(cluster, seed=0).search(
                queries, adaptive="off"
            )
        want = probe_budgets(rr, nprobe_min, gap)
        assert budget_probes == want.sum()
        if nprobe_min == engine_config.index.nprobe:
            assert (want == nprobe_min).all()
            np.testing.assert_array_equal(budget.ids, off.ids)
            np.testing.assert_array_equal(budget.distances, off.distances)

    def test_off_matches_default(self, replicated_cluster, queries, gold):
        res, _ = ClusterFrontend(replicated_cluster, seed=0).search(
            queries, adaptive="off"
        )
        np.testing.assert_array_equal(res.ids, gold.ids)

    def test_bad_mode_rejected(self, replicated_cluster, queries):
        with pytest.raises(ValueError, match="adaptive"):
            ClusterFrontend(replicated_cluster, seed=0).search(
                queries, adaptive="sometimes"
            )

    def test_shard_count_invariance(
        self, small_ds, small_quantized, engine_config, queries, gold
    ):
        with build_cluster_index(
            small_ds.base,
            engine_config,
            ClusterConfig(num_shards=2, replication=1),
            heat_queries=small_ds.queries[:50],
            prebuilt_quantized=small_quantized,
            seed=0,
        ) as two_shards:
            res, _ = ClusterFrontend(two_shards, seed=0).search(queries)
        np.testing.assert_array_equal(res.ids, gold.ids)
        np.testing.assert_array_equal(res.distances, gold.distances)

    def test_repeated_rounds_are_deterministic(
        self, replicated_cluster, queries
    ):
        f1 = ClusterFrontend(replicated_cluster, seed=0)
        f2 = ClusterFrontend(replicated_cluster, seed=0)
        for _ in range(3):
            r1, rep1 = f1.search(queries)
            r2, rep2 = f2.search(queries)
            np.testing.assert_array_equal(r1.ids, r2.ids)
            np.testing.assert_array_equal(r1.distances, r2.distances)
            # f2 searches engines f1 has already searched: modeled
            # latencies must not depend on that history.
            d1, d2 = rep1.to_dict(), rep2.to_dict()
            assert d1 == d2


class TestFailover:
    def test_replicated_crash_stays_exact(
        self, replicated_cluster, queries, gold
    ):
        c = replicated_cluster
        frontend = ClusterFrontend(
            c, node_faults=crash_plan(c, [c.node_id(0, 0)]), seed=0
        )
        res, rep = frontend.search(queries)
        np.testing.assert_array_equal(res.ids, gold.ids)
        np.testing.assert_array_equal(res.distances, gold.distances)
        assert rep.mean_coverage == 1.0
        assert rep.node_retries >= 1
        assert frontend.dead_nodes == {c.node_id(0, 0)}
        # Next round the dead node is skipped outright: no new retries.
        res, rep = frontend.search(queries)
        np.testing.assert_array_equal(res.ids, gold.ids)

    def test_unreplicated_crash_degrades_with_accurate_coverage(
        self, unreplicated_cluster, queries, gold
    ):
        c = unreplicated_cluster
        frontend = ClusterFrontend(
            c, node_faults=crash_plan(c, [c.node_id(0, 0)]), seed=0
        )
        res, rep = frontend.search(queries)
        assert rep.failed_shards == [0]
        assert rep.mean_coverage < 1.0
        probes = c.locate(queries)
        predicted = (c.owner[probes] != 0).mean(axis=1)
        np.testing.assert_allclose(rep.coverage, predicted)
        assert rep.degraded_queries == [
            int(q) for q in np.flatnonzero(predicted < 1.0)
        ]
        # Fully-covered queries are still bit-exact.
        full = np.flatnonzero(predicted == 1.0)
        np.testing.assert_array_equal(res.ids[full], gold.ids[full])

    def test_all_shards_down_returns_empty_not_raises(
        self, unreplicated_cluster, queries
    ):
        c = unreplicated_cluster
        frontend = ClusterFrontend(
            c, node_faults=crash_plan(c, range(c.num_nodes)), seed=0
        )
        res, rep = frontend.search(queries)
        assert np.all(res.ids == -1)
        assert np.all(np.isinf(res.distances))
        np.testing.assert_array_equal(rep.coverage, np.zeros(len(queries)))
        assert rep.mean_coverage == 0.0
        assert sorted(rep.failed_shards) == list(range(c.num_shards))
        assert rep.degraded_queries == list(range(len(queries)))

    def test_both_replicas_down_degrades(
        self, replicated_cluster, queries, gold
    ):
        c = replicated_cluster
        dead = [c.node_id(0, r) for r in range(c.replication)]
        frontend = ClusterFrontend(c, node_faults=crash_plan(c, dead), seed=0)
        res, rep = frontend.search(queries)
        assert rep.failed_shards == [0]
        assert rep.mean_coverage < 1.0
        assert frontend.dead_nodes == set(dead)

    def test_partition_suspends_then_recovers(
        self, replicated_cluster, queries, gold
    ):
        c = replicated_cluster
        node = c.node_id(1, 0)
        plan = NodeFaultPlan(
            num_nodes=c.num_nodes,
            config=NodeFaultConfig(),
            partitions=frozenset({(node, 0), (node, 1)}),
        )
        frontend = ClusterFrontend(
            c,
            FrontendConfig(suspend_after=2, suspend_rounds=1),
            node_faults=plan,
            seed=0,
        )
        for _ in range(4):
            res, rep = frontend.search(queries)
            np.testing.assert_array_equal(res.ids, gold.ids)
        # Partitions are transient: nothing is permanently dead.
        assert frontend.dead_nodes == set()
        assert not frontend._node_available(node) or frontend.round_index >= 3

    def test_straggler_hedging_bounds_latency(
        self, replicated_cluster, queries, gold
    ):
        c = replicated_cluster
        healthy = ClusterFrontend(c, seed=0)
        _, rep = healthy.search(queries)
        budget = 1.5 * max(rep.shard_latencies_s.values())
        slow = np.ones(c.num_nodes)
        slow[0] = 16.0
        plan = NodeFaultPlan(
            num_nodes=c.num_nodes,
            config=NodeFaultConfig(),
            slow_factors=slow,
        )
        hedged = ClusterFrontend(
            c,
            FrontendConfig(hedge_after_s=budget),
            node_faults=plan,
            seed=0,
        )
        res_h, rep_h = hedged.search(queries)
        unhedged = ClusterFrontend(
            c,
            FrontendConfig(hedge_after_s=None),
            node_faults=plan,
            seed=0,
        )
        res_u, rep_u = unhedged.search(queries)
        # Same bits either way; hedging only changes the clock.
        np.testing.assert_array_equal(res_h.ids, gold.ids)
        np.testing.assert_array_equal(res_u.ids, gold.ids)
        assert rep_h.hedged_requests >= 1
        assert rep_h.e2e_seconds < rep_u.e2e_seconds

    def test_mismatched_fault_plan_rejected(self, replicated_cluster):
        with pytest.raises(ValueError, match="nodes"):
            ClusterFrontend(
                replicated_cluster,
                node_faults=NodeFaultPlan.none(99),
            )


@pytest.fixture(scope="module")
def turn_rack():
    """4 shards x 3 replicas over a small synthetic corpus, 8 queries."""
    ds = make_clustered_dataset(
        SyntheticSpec(num_vectors=2048, dim=16, num_components=32),
        num_queries=8,
        seed=0,
    )
    index = IVFPQIndex.build(
        ds.base, nlist=32, num_subspaces=4, codebook_size=64, seed=0
    )
    config = EngineConfig(
        index=IndexParams(
            nlist=32, nprobe=8, k=10, num_subspaces=4, codebook_size=64
        ),
        system=PimSystemConfig(num_dpus=8, dpus_per_rank=8),
        layout=LayoutConfig(max_copies=2),
    )
    with build_cluster_index(
        ds.base,
        config,
        ClusterConfig(num_shards=4, replication=3),
        heat_queries=ds.queries,
        prebuilt_quantized=build_quantized_index(index),
        seed=0,
    ) as cluster:
        yield cluster, ds.queries


def split_turns(calls):
    """Cut a node-call sequence into turns: a turn restarts the shards."""
    turns = []
    for shard, _node in calls:
        if not turns or shard <= turns[-1][-1]:
            turns.append([])
        turns[-1].append(shard)
    return turns


class TestTurnOrder:
    """Scatter-gather runs in explicit round-robin turns over shards."""

    @pytest.fixture(scope="class")
    def recorded(self, turn_rack):
        """Per round: the ``(shard, node)`` node-call sequence and report.

        Seeded crashes, partitions and stragglers over the 12 nodes,
        with jittered backoff so the float sum ``backoff_seconds``
        depends on the order shards retry in.
        """
        cluster, queries = turn_rack
        _, healthy = ClusterFrontend(cluster, seed=0).search(queries)
        plan = NodeFaultPlan.generate(
            cluster.num_nodes,
            NodeFaultConfig(
                crash_fraction=0.25,
                crash_max_round=3,
                partition_rate=0.3,
                slow_fraction=0.25,
                slow_factor=(4.0, 8.0),
                horizon_rounds=16,
            ),
            seed=7,
        )
        frontend = ClusterFrontend(
            cluster,
            FrontendConfig(
                hedge_after_s=1.5 * max(healthy.shard_latencies_s.values()),
                backoff=BackoffPolicy(jitter=0.5),
            ),
            node_faults=plan,
            seed=0,
        )
        calls = []
        call_node = frontend._call_node

        def spy(node_id, *args, **kwargs):
            calls.append([cluster.shard_of_node(node_id), node_id])
            return call_node(node_id, *args, **kwargs)

        frontend._call_node = spy
        rounds = []
        for _ in range(6):
            start = len(calls)
            res, rep = frontend.search(queries)
            rounds.append(
                {
                    "calls": calls[start:],
                    "failed_shards": list(rep.failed_shards),
                    "backoff_seconds": rep.backoff_seconds,
                    "node_retries": rep.node_retries,
                    "hedged_requests": rep.hedged_requests,
                    "ids": res.ids.tolist(),
                    "distances": res.distances.tolist(),
                }
            )
        return rounds

    def test_scenario_interleaves_failover_and_hedges(self, recorded):
        # The pin is only meaningful if >= 2 shards take more than one
        # node call (failover or hedge) in the same round.
        assert max(
            sum(n > 1 for n in Counter(s for s, _ in r["calls"]).values())
            for r in recorded
        ) >= 2
        assert sum(r["node_retries"] for r in recorded) > 0
        assert sum(r["hedged_requests"] for r in recorded) > 0
        # Some round lists its failed shards out of shard order: a shard
        # with no live replica fails in turn 0, before a shard whose
        # failovers ran out later. A plain per-shard loop would sort it.
        assert any(
            r["failed_shards"] != sorted(r["failed_shards"])
            for r in recorded
        )

    def test_calls_are_round_robin_in_shard_order(self, recorded):
        for r in recorded:
            turns = split_turns(r["calls"])
            for turn in turns:
                # One call per pending shard per turn, in shard order.
                assert turn == sorted(set(turn))
            for prev, nxt in zip(turns, turns[1:]):
                # A shard that answered leaves the rotation for good.
                assert set(nxt) <= set(prev)

    def test_matches_pinned_record(self, recorded):
        with open(
            os.path.join(_FIXTURES, "cluster_turn_order.json"),
            encoding="utf-8",
        ) as f:
            assert recorded == json.load(f)


class TestSynchronousFrontend:
    def test_search_inside_running_event_loop(
        self, replicated_cluster, queries, gold
    ):
        frontend = ClusterFrontend(replicated_cluster, seed=0)

        async def main():
            return frontend.search(queries)

        res, rep = asyncio.run(main())
        np.testing.assert_array_equal(res.ids, gold.ids)
        np.testing.assert_array_equal(res.distances, gold.distances)
        assert rep.mean_coverage == 1.0


class TestClusterChaosOutput:
    def test_smoke_json_is_frozen(self, capsys):
        assert cli_main(["chaos", "--cluster", "--smoke", "--json"]) == 0
        with open(
            os.path.join(_FIXTURES, "chaos_cluster_smoke.json"),
            encoding="utf-8",
        ) as f:
            assert capsys.readouterr().out == f.read()


def _merge_oracle(pools, k):
    """Brute-force global top-k over per-query candidate pools."""
    nq = len(pools)
    out_ids = np.full((nq, k), -1, dtype=np.int64)
    out_dist = np.full((nq, k), np.inf)
    for qi, (ids, dists) in enumerate(pools):
        if len(ids) == 0:
            continue
        kk = min(k, len(ids))
        sel_i, sel_d = topk_canonical(
            np.asarray(dists, dtype=np.float64),
            np.asarray(ids, dtype=np.int64),
            kk,
        )
        out_ids[qi, :kk] = sel_i
        out_dist[qi, :kk] = sel_d
    return out_ids, out_dist


class TestMergeProperties:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_merge_invariant_to_sharding_and_order(self, data):
        """Sharded merge == global top-k, for any shard split/arrival order.

        Candidates are drawn with possibly-duplicated distances (ties
        exercise the canonical tie-break) but ids unique per query, as
        disjoint shard ownership guarantees in the real system.
        """
        nq = data.draw(st.integers(1, 4), label="nq")
        k = data.draw(st.integers(1, 8), label="k")
        num_shards = data.draw(st.integers(1, 5), label="shards")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))

        pools = []
        per_shard_rows = [[] for _ in range(num_shards)]
        per_shard_ids = [[] for _ in range(num_shards)]
        per_shard_dists = [[] for _ in range(num_shards)]
        for qi in range(nq):
            n_cand = int(rng.integers(0, 24))
            ids = rng.choice(1000, size=n_cand, replace=False)
            dists = rng.integers(0, 6, size=n_cand).astype(np.float64)
            pools.append((ids, dists))
            shard_of = rng.integers(0, num_shards, size=n_cand)
            for s in range(num_shards):
                mine = shard_of == s
                per_shard_rows[s].append(qi)
                per_shard_ids[s].append(ids[mine])
                per_shard_dists[s].append(dists[mine])

        responses = []
        for s in range(num_shards):
            # Each shard reports its local top-k, padded to k like the
            # engine does.
            ids_mat = np.full((nq, k), -1, dtype=np.int64)
            dist_mat = np.full((nq, k), np.inf)
            for row, (ids, dists) in enumerate(
                zip(per_shard_ids[s], per_shard_dists[s])
            ):
                kk = min(k, len(ids))
                if kk:
                    sel_i, sel_d = topk_canonical(dists, ids, kk)
                    ids_mat[row, :kk] = sel_i
                    dist_mat[row, :kk] = sel_d
            responses.append(
                ShardResponse(
                    shard_id=s,
                    query_rows=np.array(per_shard_rows[s]),
                    ids=ids_mat,
                    distances=dist_mat,
                )
            )
        order = rng.permutation(num_shards)
        merged = merge_shard_results(
            [responses[i] for i in order], nq, k
        )
        want_ids, want_dist = _merge_oracle(pools, k)
        np.testing.assert_array_equal(merged.ids, want_ids)
        np.testing.assert_array_equal(merged.distances, want_dist)

    def test_failed_responses_contribute_nothing(self):
        ok = ShardResponse(
            shard_id=0,
            query_rows=np.array([0]),
            ids=np.array([[3, 1]]),
            distances=np.array([[1.0, 2.0]]),
        )
        failed = ShardResponse(
            shard_id=1, query_rows=np.array([0]), failed=True
        )
        res = merge_shard_results([ok, failed], 1, 2)
        np.testing.assert_array_equal(res.ids, [[3, 1]])

    def test_no_responses_yields_sentinel_fill(self):
        res = merge_shard_results([], 2, 3)
        assert np.all(res.ids == -1)
        assert np.all(np.isinf(res.distances))


class TestClusterServing:
    def test_serving_healthy_stream(self, replicated_cluster, queries, gold):
        frontend = ClusterFrontend(replicated_cluster, seed=0)
        arrivals = np.linspace(0.0, 0.05, len(queries))
        outcome = simulate_cluster_serving(
            frontend,
            queries,
            arrivals,
            BatchingPolicy(batch_size=8, max_wait_s=5e-3),
            return_results=True,
        )
        rep = outcome.report
        assert rep.num_queries == len(queries)
        assert rep.admission_rejected == 0
        assert rep.mean_coverage == 1.0
        np.testing.assert_array_equal(outcome.results.ids, gold.ids)

    def test_admission_control_rejects_overflow(
        self, replicated_cluster, queries
    ):
        frontend = ClusterFrontend(
            replicated_cluster,
            FrontendConfig(admission_queue_limit=8),
            seed=0,
        )
        # Everyone arrives at once: only the limit's worth may queue.
        arrivals = np.zeros(len(queries))
        outcome = simulate_cluster_serving(
            frontend,
            queries,
            arrivals,
            BatchingPolicy(batch_size=64, max_wait_s=1e-3),
            return_results=True,
        )
        rep = outcome.report
        assert rep.admission_rejected > 0
        assert rep.num_queries + rep.admission_rejected == len(queries)
        assert rep.num_offered == len(queries)
        # Rejected queries keep the sentinel fill.
        rejected_rows = np.all(outcome.results.ids == -1, axis=1)
        assert rejected_rows.sum() == rep.admission_rejected

    def test_serving_report_carries_cluster_ledger(
        self, replicated_cluster, queries
    ):
        c = replicated_cluster
        frontend = ClusterFrontend(
            c, node_faults=crash_plan(c, [c.node_id(0, 0)]), seed=0
        )
        arrivals = np.linspace(0.0, 0.01, len(queries))
        outcome = simulate_cluster_serving(frontend, queries, arrivals)
        rep = outcome.report
        assert rep.node_retries >= 1
        assert rep.dead_nodes == 1
        assert rep.mean_coverage == 1.0
        d = rep.to_dict()
        for key in (
            "admission_rejected",
            "hedged_requests",
            "node_retries",
            "dead_nodes",
            "mean_coverage",
        ):
            assert key in d
