"""Property-based end-to-end checks: for random tiny corpora and random
engine configurations, the PIM execution must equal the integer host
reference exactly (up to ties at the k-th distance)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ann import IVFPQIndex
from repro.core import (
    DrimAnnEngine,
    EngineConfig,
    IndexParams,
    LayoutConfig,
    SearchParams,
)
from repro.core.quantized import build_quantized_index
from repro.pim.config import PimSystemConfig

config_strategy = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10_000),
        "num_dpus": st.sampled_from([1, 3, 8]),
        "nprobe": st.sampled_from([1, 3, 8]),
        "k": st.sampled_from([1, 5, 12]),
        "min_split": st.sampled_from([None, 20, 60]),
        "max_copies": st.sampled_from([0, 2]),
        "multiplier_less": st.booleans(),
        "with_scheduler": st.booleans(),
        "batch_size": st.sampled_from([None, 7]),
    }
)


@pytest.fixture(scope="module")
def tiny_corpus():
    rng = np.random.default_rng(42)
    centers = rng.integers(30, 220, size=(8, 16))
    assign = rng.integers(0, 8, size=600)
    base = np.clip(
        centers[assign] + rng.normal(0, 12, size=(600, 16)), 0, 255
    ).astype(np.uint8)
    queries = np.clip(
        base[rng.integers(0, 600, size=25)].astype(float)
        + rng.normal(0, 8, size=(25, 16)),
        0,
        255,
    ).astype(np.uint8)
    index = IVFPQIndex.build(base, nlist=8, num_subspaces=4, codebook_size=16, seed=0)
    return base, queries, build_quantized_index(index)


@given(cfg=config_strategy)
@settings(max_examples=25, deadline=None)
def test_engine_equals_reference_for_any_configuration(tiny_corpus, cfg):
    base, queries, quant = tiny_corpus
    params = IndexParams(
        nlist=8,
        nprobe=cfg["nprobe"],
        k=cfg["k"],
        num_subspaces=4,
        codebook_size=16,
    )
    engine = DrimAnnEngine.from_config(
        base,
        EngineConfig(
            index=params,
            search=SearchParams(
                batch_size=cfg["batch_size"], multiplier_less=cfg["multiplier_less"]
            ),
            system=PimSystemConfig(num_dpus=cfg["num_dpus"]),
            layout=LayoutConfig(
                min_split_size=cfg["min_split"], max_copies=cfg["max_copies"]
            ),
        ),
        prebuilt_quantized=quant,
        seed=cfg["seed"],
    )
    res, bd = engine.search(queries, with_scheduler=cfg["with_scheduler"])
    ref = engine.reference_search(queries)
    np.testing.assert_allclose(
        np.sort(res.distances, axis=1), np.sort(ref.distances, axis=1)
    )
    # Where distances are strictly inside the k-th boundary, ids match.
    for qi in range(len(queries)):
        kth = ref.distances[qi, -1]
        strict = ref.distances[qi] < kth
        assert set(ref.ids[qi][strict]) <= set(res.ids[qi])
    assert bd.pim_seconds > 0
