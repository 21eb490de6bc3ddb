"""Randomized batching invariants (hypothesis).

Property tests over the round size (``SearchParams.batch_size``):

* **batch-split invariance** — any chunking of the query stream
  (including one query per round) returns bit-identical results;
* **permutation invariance** — permuting the query matrix permutes the
  result rows and changes nothing else;
* **transfer conservation** — with the deferral filter off, aggregated
  transfer bytes in one whole-matrix round equal the sum over
  one-query rounds (broadcast ``nq*D``, scatter ``8`` per task part, gather
  ``16`` per returned candidate).

One engine is built per module (the deferral filter is disabled so
round membership is a pure function of the chunking) and reused across
examples; searches mutate no engine state in the fault-free setup.
"""

from contextlib import contextmanager
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
)
from repro.core.scheduler import SchedulerConfig
from repro.pim.config import PimSystemConfig
from repro.testing import canonical_dataset
from repro.testing.goldens import _quantized

NQ = 48


@contextmanager
def rounds_of(engine, batch_size):
    """Run ``engine`` with rounds of ``batch_size`` queries."""
    original = engine.search_params
    engine.search_params = replace(original, batch_size=batch_size)
    try:
        yield engine
    finally:
        engine.search_params = original

_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def prop_engine():
    ds = canonical_dataset()
    config = EngineConfig(
        index=IndexParams(
            nlist=32, nprobe=4, k=10, num_subspaces=8, codebook_size=32
        ),
        scheduler=SchedulerConfig(filter_threshold=None),
        system=PimSystemConfig(num_dpus=8),
        layout=LayoutConfig(min_split_size=200, max_copies=2),
    )
    return DrimAnnEngine.from_config(
        ds.base,
        config,
        heat_queries=ds.queries[:50],
        prebuilt_quantized=_quantized(32, 8, 32),
        seed=0,
    )


@pytest.fixture(scope="module")
def prop_queries():
    return canonical_dataset().queries[:NQ]


@pytest.fixture(scope="module")
def batched_result(prop_engine, prop_queries):
    res, _ = prop_engine.search(prop_queries)
    return res


class TestBatchSplitInvariance:
    @given(batch_size=st.integers(min_value=1, max_value=NQ))
    @_SETTINGS
    def test_any_chunking_is_bit_identical(
        self, prop_engine, prop_queries, batched_result, batch_size
    ):
        with rounds_of(prop_engine, batch_size):
            res, _ = prop_engine.search(prop_queries)
        np.testing.assert_array_equal(res.ids, batched_result.ids)
        np.testing.assert_array_equal(res.distances, batched_result.distances)

    def test_per_query_is_bit_identical(
        self, prop_engine, prop_queries, batched_result
    ):
        with rounds_of(prop_engine, 1):
            res, _ = prop_engine.search(prop_queries)
        np.testing.assert_array_equal(res.ids, batched_result.ids)
        np.testing.assert_array_equal(res.distances, batched_result.distances)


class TestPermutationInvariance:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @_SETTINGS
    def test_permuting_queries_permutes_results(
        self, prop_engine, prop_queries, batched_result, seed
    ):
        perm = np.random.default_rng(seed).permutation(NQ)
        res, _ = prop_engine.search(prop_queries[perm])
        np.testing.assert_array_equal(res.ids, batched_result.ids[perm])
        np.testing.assert_array_equal(
            res.distances, batched_result.distances[perm]
        )


class TestTransferConservation:
    @given(nq=st.integers(min_value=1, max_value=NQ))
    @_SETTINGS
    def test_batched_bytes_equal_sum_of_per_query_bytes(
        self, prop_engine, prop_queries, nq
    ):
        transfer = prop_engine.system.transfer

        def bytes_for(batch_size):
            before = transfer.total_bytes
            with rounds_of(prop_engine, batch_size):
                prop_engine.search(prop_queries[:nq])
            return transfer.total_bytes - before

        batched = bytes_for(None)
        per_query = bytes_for(1)
        assert batched == per_query

    def test_batched_bytes_decompose(self, prop_engine, prop_queries):
        """broadcast nq*D + scatter 8/task + gather 16/candidate.

        The gather carries *per-task* partial top-k candidates (merged
        on the host afterwards), so its byte count is a multiple of 16
        and at least 16 per finally-returned hit.
        """
        transfer = prop_engine.system.transfer
        n_before = len(transfer.events)
        res, _ = prop_engine.search(prop_queries)
        events = transfer.events[n_before:]
        by_kind = {}
        for ev in events:
            by_kind[ev.label] = by_kind.get(ev.label, 0.0) + ev.total_bytes
        assert by_kind["queries"] == prop_queries.nbytes
        returned = int(np.count_nonzero(res.ids >= 0))
        assert by_kind["results"] % 16 == 0
        assert by_kind["results"] >= returned * 16
        assert by_kind["task_lists"] % 8 == 0
