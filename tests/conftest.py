"""Shared fixtures.

Expensive artifacts (datasets with ground truth, trained indexes,
built engines) are session-scoped: many test modules reuse one small
corpus and one engine configuration.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro.ann import IVFPQIndex
from repro.core import (
    DrimAnnEngine,
    EngineConfig,
    IndexParams,
    LayoutConfig,
)
from repro.core.quantized import build_quantized_index
from repro.data import load_dataset
from repro.pim.config import PimSystemConfig


@pytest.fixture(scope="session")
def small_ds():
    """20k x 128 uint8 corpus, 150 queries, exact top-10 ground truth."""
    return load_dataset(
        "sift-like-20k", seed=0, num_queries=150, ground_truth_k=10
    )


@pytest.fixture(scope="session")
def small_index(small_ds):
    """IVF-PQ trained on the small corpus (nlist=64, M=16, CB=64)."""
    return IVFPQIndex.build(
        small_ds.base, nlist=64, num_subspaces=16, codebook_size=64, seed=0
    )


@pytest.fixture(scope="session")
def small_quantized(small_index):
    return build_quantized_index(small_index)


@pytest.fixture(scope="session")
def small_params():
    return IndexParams(nlist=64, nprobe=8, k=10, num_subspaces=16, codebook_size=64)


@pytest.fixture(scope="session")
def small_engine(small_ds, small_quantized, small_params):
    """Engine over 16 simulated DPUs with splitting + duplication on."""
    config = EngineConfig(
        index=small_params,
        system=PimSystemConfig(num_dpus=16),
        layout=LayoutConfig(min_split_size=400, max_copies=2),
    )
    return DrimAnnEngine.from_config(
        small_ds.base,
        config,
        heat_queries=small_ds.queries[:50],
        prebuilt_quantized=small_quantized,
        seed=0,
    )


@pytest.fixture()
def v1_index(tmp_path):
    """Scratch copy of the committed legacy v1 ``.npz`` index.

    Nothing writes v1 any more; the committed file is what keeps the v1
    reader covered (recipe in ``tests/test_persist_v2.py::TestBackCompat``).
    The copy is safe to corrupt.
    """
    src = os.path.join(os.path.dirname(__file__), "fixtures", "index_v1.npz")
    dst = str(tmp_path / "index_v1.npz")
    shutil.copyfile(src, dst)
    return dst


@pytest.fixture()
def pool_takes_small_rounds(monkeypatch):
    """Drop the planner's pool floor for one test.

    Chunked and per-query rounds are too small for a warm pool to take
    at the measured floor; pool-parity tests on those round shapes use
    this so the pool really runs them.
    """
    from repro.pim import parallel

    monkeypatch.setattr(parallel, "POOL_MIN_POINTS", 0)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def _global_rng_guard():
    """Fail any test that mutates the global NumPy RNG.

    All repro code and tests must draw from explicit
    ``np.random.default_rng`` / ``repro.utils.rng`` generators; touching
    the legacy global state couples tests to execution order. The
    astlint ``rng-bypass`` rule polices src/; this guard polices the
    tests themselves.
    """
    before = np.random.get_state()
    yield
    after = np.random.get_state()
    clean = (
        before[0] == after[0]
        and np.array_equal(before[1], after[1])
        and before[2:] == after[2:]
    )
    assert clean, (
        "test mutated the global NumPy RNG state; use an explicit "
        "np.random.default_rng(seed) generator (e.g. the `rng` fixture)"
    )
