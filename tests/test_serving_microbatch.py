"""Micro-batch serving: coalescing is a latency knob, never a result knob.

Two layers:

* :class:`~repro.core.serving.MicroBatcher` window-formation
  invariants, property-tested over random arrival streams without an
  engine (members contiguous, launches ordered, every query served
  exactly once, no window outlives its size/timeout bound);
* end-to-end: a coalescing policy and the ``batch_size=1``
  no-batching baseline return bit-identical per-query ids/distances
  (via ``return_results=True``), and deadlines are honored by both
  overload policies.
"""

import numpy as np
import pytest

from repro.core.serving import (
    BatchingPolicy,
    MicroBatcher,
    PoissonArrivals,
    simulate_serving,
)
from repro.testing import build_canonical_engine, canonical_dataset


def _random_policy(rng):
    return BatchingPolicy(
        batch_size=int(rng.integers(1, 20)),
        max_wait_s=float(rng.uniform(0, 5e-3)),
    )


def _drive(batcher, n, rng):
    """Run the window former over the whole stream, collecting batches."""
    batches = []
    free_at = 0.0
    i = 0
    while i < n:
        b = batcher.next_batch(i, free_at)
        batches.append(b)
        free_at = b.launch + float(rng.uniform(0, 2e-3))  # service time
        i = b.next_index
    return batches


class TestMicroBatcherProperties:
    @pytest.mark.parametrize("trial", range(10))
    def test_window_invariants(self, rng, trial):
        n = int(rng.integers(1, 200))
        arrivals = np.sort(rng.uniform(0, 0.05, size=n))
        policy = _random_policy(rng)
        batches = _drive(MicroBatcher(arrivals, policy), n, rng)
        covered = np.concatenate([b.members for b in batches])
        # Every query served exactly once, in arrival order.
        np.testing.assert_array_equal(covered, np.arange(n))
        prev_launch = -np.inf
        for b in batches:
            assert 1 <= len(b.members) <= policy.batch_size
            # Members are contiguous and all arrived by launch time.
            np.testing.assert_array_equal(
                b.members, np.arange(b.members[0], b.next_index)
            )
            assert float(arrivals[b.members].max()) <= b.launch
            # Launches are non-decreasing (single-tenant engine).
            assert b.launch >= prev_launch
            prev_launch = b.launch

    @pytest.mark.parametrize("trial", range(5))
    def test_oldest_waiter_bounded_by_window(self, rng, trial):
        """With a free engine, the oldest waiter never waits past the
        size-or-timeout bound: launch <= arrival + max_wait_s unless a
        full batch formed earlier."""
        n = 100
        arrivals = np.sort(rng.uniform(0, 0.02, size=n))
        policy = _random_policy(rng)
        batcher = MicroBatcher(arrivals, policy)
        i = 0
        while i < n:
            b = batcher.next_batch(i, 0.0)  # engine always free
            if len(b.members) < policy.batch_size:
                assert b.launch <= arrivals[i] + policy.max_wait_s + 1e-12
            i = b.next_index

    def test_per_query_windows_are_singletons(self, rng):
        n = 50
        arrivals = np.sort(rng.uniform(0, 0.01, size=n))
        policy = BatchingPolicy(batch_size=1)
        batches = _drive(MicroBatcher(arrivals, policy), n, rng)
        assert len(batches) == n
        assert all(len(b.members) == 1 for b in batches)

    def test_dispatch_validated(self):
        """``dispatch`` is retired (``batch_size=1`` is the no-batching
        baseline) and the round size is validated by name."""
        with pytest.raises(TypeError, match="dispatch"):
            BatchingPolicy(dispatch="psychic")
        with pytest.raises(ValueError, match="batch_size"):
            BatchingPolicy(batch_size=0)


@pytest.fixture(scope="module")
def serving_setup():
    ds = canonical_dataset()
    engine = build_canonical_engine("split-replicated")
    queries = ds.queries[:60]
    arrivals = PoissonArrivals(rate_qps=4000).sample(len(queries), seed=3)
    yield engine, queries, arrivals
    engine.close()


class TestDispatchEquivalence:
    def test_coalesce_matches_per_query_bitwise(self, serving_setup):
        engine, queries, arrivals = serving_setup
        out_c = simulate_serving(
            engine, queries, arrivals,
            BatchingPolicy(batch_size=16, max_wait_s=1e-3),
            return_results=True,
        )
        out_p = simulate_serving(
            engine, queries, arrivals,
            BatchingPolicy(batch_size=1, max_wait_s=1e-3),
            return_results=True,
        )
        assert max(out_c.batch_sizes) > 1  # coalescing actually happened
        assert set(out_p.batch_sizes) == {1}
        np.testing.assert_array_equal(out_c.results.ids, out_p.results.ids)
        np.testing.assert_array_equal(
            out_c.results.distances, out_p.results.distances
        )

    def test_serving_results_match_offline_search(self, serving_setup):
        """Micro-batched serving returns exactly what one offline
        search over the same queries returns."""
        engine, queries, arrivals = serving_setup
        out = simulate_serving(
            engine, queries, arrivals,
            BatchingPolicy(batch_size=16, max_wait_s=1e-3),
            return_results=True,
        )
        res, _ = engine.search(queries)
        np.testing.assert_array_equal(out.results.ids, res.ids)
        np.testing.assert_array_equal(out.results.distances, res.distances)

    def test_results_absent_by_default(self, serving_setup):
        engine, queries, arrivals = serving_setup
        out = simulate_serving(engine, queries, arrivals)
        assert out.results is None


class TestDeadlines:
    def test_shed_drops_only_hopeless_queries(self, serving_setup):
        """Shed queries are exactly those already past their deadline at
        launch; everything served is returned with the -1 fill absent."""
        engine, queries, arrivals = serving_setup
        policy = BatchingPolicy(
            batch_size=16, max_wait_s=1e-3, deadline_s=2e-3,
            overload_policy="shed",
        )
        out = simulate_serving(
            engine, queries, arrivals, policy, return_results=True
        )
        assert out.num_offered == len(queries)
        assert out.num_queries + out.shed_queries == len(queries)
        served_rows = out.results.ids[out.results.ids[:, 0] >= 0]
        assert len(served_rows) == out.num_queries

    def test_degrade_counts_misses_from_latencies(self, serving_setup):
        engine, queries, arrivals = serving_setup
        deadline = 1.5e-3
        policy = BatchingPolicy(
            batch_size=16, max_wait_s=1e-3, deadline_s=deadline,
        )
        out = simulate_serving(engine, queries, arrivals, policy)
        want = int(np.count_nonzero(out.latencies_s > deadline))
        assert out.deadline_misses == want
        assert out.shed_queries == 0  # degrade never drops

    def test_per_query_dispatch_respects_deadlines_too(self, serving_setup):
        engine, queries, arrivals = serving_setup
        deadline = 1.5e-3
        policy = BatchingPolicy(
            batch_size=1, deadline_s=deadline, overload_policy="shed",
        )
        out = simulate_serving(engine, queries, arrivals, policy)
        # Whatever was served arrived -> completed within accounting:
        # misses are exactly the served latencies past the deadline.
        want = int(np.count_nonzero(out.latencies_s > deadline))
        assert out.deadline_misses == want
        assert out.num_queries + out.shed_queries == len(queries)
