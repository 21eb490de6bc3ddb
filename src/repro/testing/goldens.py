"""Canonical configurations and golden-run capture.

Three small engine configurations exercise the main behavioural axes
(split+replicated layouts, multiplier-less vs multiplier LC, balanced
vs unreplicated placement) on the deterministic ``sift-like-20k``
preset. Everything is seeded, so a golden run — recall@10 against the
exact brute-force oracle plus per-kernel and end-to-end cycle counts —
is reproducible bit-for-bit and can be frozen in
``tests/fixtures/golden_cycles.json``.

The regression tests (``tests/test_golden_cycles.py``,
``tests/test_diff_exact.py``) and the regeneration script
(``tools/update_goldens.py``) both import from here; the definitions
cannot drift apart. See ``docs/testing.md`` for when regenerating the
goldens is legitimate.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional

import numpy as np

from repro.ann import IVFPQIndex
from repro.ann.heap import topk_smallest
from repro.core import (
    DrimAnnEngine,
    EngineConfig,
    IndexParams,
    LayoutConfig,
    SearchParams,
)
from repro.core.quantized import build_quantized_index
from repro.data import load_dataset
from repro.pim.config import PimSystemConfig

#: Dataset shared by every canonical config (fully seeded synthetic).
DATASET_PRESET = "sift-like-20k"
DATASET_SEED = 0
DATASET_QUERIES = 150
ENGINE_SEED = 0
K = 10
BATCH_SIZE = 32

#: The frozen configurations. Order and contents are part of the
#: golden contract: adding/renaming a config requires regenerating
#: the goldens (see tools/update_goldens.py).
CANONICAL_CONFIGS: Dict[str, dict] = {
    "base-balanced": dict(
        nlist=64, nprobe=8, m=16, cb=64, num_dpus=16, num_queries=120,
        layout=dict(min_split_size=400, max_copies=2),
        multiplier_less=True,
    ),
    "split-replicated": dict(
        nlist=32, nprobe=4, m=8, cb=32, num_dpus=8, num_queries=60,
        layout=dict(min_split_size=200, max_copies=3),
        multiplier_less=True,
    ),
    "mul-unreplicated": dict(
        nlist=64, nprobe=8, m=16, cb=64, num_dpus=16, num_queries=60,
        layout=dict(min_split_size=None, max_copies=0),
        multiplier_less=False,
    ),
}


@lru_cache(maxsize=1)
def canonical_dataset():
    """The dataset every canonical config runs on (process-cached)."""
    return load_dataset(
        DATASET_PRESET,
        seed=DATASET_SEED,
        num_queries=DATASET_QUERIES,
        ground_truth_k=K,
    )


@lru_cache(maxsize=None)
def _quantized(nlist: int, m: int, cb: int):
    ds = canonical_dataset()
    index = IVFPQIndex.build(
        ds.base, nlist=nlist, num_subspaces=m, codebook_size=cb, seed=0
    )
    return build_quantized_index(index)


def canonical_config(
    name: str,
    *,
    execution: Optional[str] = None,
    plan: Optional[str] = None,
    shard_workers: int = 0,
    kernel_backend: Optional[str] = None,
) -> EngineConfig:
    """The :class:`EngineConfig` for one canonical config name."""
    c = CANONICAL_CONFIGS[name]
    params = IndexParams(
        nlist=c["nlist"], nprobe=c["nprobe"], k=K,
        num_subspaces=c["m"], codebook_size=c["cb"],
    )
    search_kwargs = dict(
        batch_size=BATCH_SIZE, multiplier_less=c["multiplier_less"]
    )
    if execution is not None:
        search_kwargs["execution"] = execution
    if plan is not None:
        search_kwargs["plan"] = plan
    if kernel_backend is not None:
        search_kwargs["kernel_backend"] = kernel_backend
    search = SearchParams(**search_kwargs)
    return EngineConfig(
        index=params,
        search=search,
        system=PimSystemConfig(
            num_dpus=c["num_dpus"], shard_workers=shard_workers
        ),
        layout=LayoutConfig(**c["layout"]),
    )


def build_canonical_engine(
    name: str,
    *,
    execution: Optional[str] = None,
    plan: Optional[str] = None,
    shard_workers: int = 0,
    kernel_backend: Optional[str] = None,
    index_path: Optional[str] = None,
) -> DrimAnnEngine:
    """A fresh engine for one canonical config (index reuse is cached).

    With ``index_path``, the engine takes the durable round trip
    instead: build, ``save(index_path)``, close, and return
    ``DrimAnnEngine.load`` of the file — the engine every
    save/load-bit-exactness test compares against the frozen goldens.
    """
    c = CANONICAL_CONFIGS[name]
    ds = canonical_dataset()
    config = canonical_config(
        name,
        execution=execution,
        plan=plan,
        shard_workers=shard_workers,
        kernel_backend=kernel_backend,
    )
    engine = DrimAnnEngine.from_config(
        ds.base,
        config,
        heat_queries=ds.queries[:50],
        prebuilt_quantized=_quantized(c["nlist"], c["m"], c["cb"]),
        seed=ENGINE_SEED,
    )
    if index_path is None:
        return engine
    try:
        engine.save(index_path)
    finally:
        engine.close()
    return DrimAnnEngine.load(index_path, config=config)


def brute_force_topk(
    base: np.ndarray, queries: np.ndarray, k: int, block: int = 64
) -> np.ndarray:
    """Exact integer L2 top-k ids — the oracle the engine is graded on.

    Works in int64 throughout (uint8 inputs cannot overflow), blocked
    over queries to bound the distance matrix.
    """
    b = base.astype(np.int64)
    q = queries.astype(np.int64)
    bb = np.einsum("ij,ij->i", b, b)[None, :]
    out = np.empty((len(q), k), dtype=np.int64)
    for i0 in range(0, len(q), block):
        qc = q[i0 : i0 + block]
        d = np.einsum("ij,ij->i", qc, qc)[:, None] + bb - 2 * (qc @ b.T)
        sel, _ = topk_smallest(d, k, axis=1)
        out[i0 : i0 + block] = sel
    return out


def oracle_recall(result_ids: np.ndarray, oracle_ids: np.ndarray) -> float:
    """recall@k of engine ids against the brute-force oracle ids."""
    k = oracle_ids.shape[1]
    hits = sum(
        len(np.intersect1d(r[r >= 0], g))
        for r, g in zip(result_ids, oracle_ids)
    )
    return hits / (len(oracle_ids) * k)


def run_canonical(
    name: str,
    *,
    execution: Optional[str] = None,
    plan: Optional[str] = None,
    shard_workers: int = 0,
    adaptive: Optional[str] = None,
    kernel_backend: Optional[str] = None,
) -> dict:
    """One golden run: recall vs the oracle + frozen cycle counts.

    ``adaptive`` selects the query-adaptive probing mode for the run
    (``None`` leaves the engine default, i.e. ``"off"``). The
    ``adaptive="off"`` cells must stay bit-identical to the frozen
    goldens; the ``bound``/``budget`` cells are frozen separately in
    ``tests/fixtures/golden_adaptive.json``. ``kernel_backend``
    forces a kernel backend (``None`` leaves the default ``"auto"``);
    every backend must reproduce the same frozen goldens byte-equal.
    """
    c = CANONICAL_CONFIGS[name]
    ds = canonical_dataset()
    engine = build_canonical_engine(
        name, execution=execution, plan=plan, shard_workers=shard_workers,
        kernel_backend=kernel_backend,
    )
    queries = ds.queries[: c["num_queries"]]
    try:
        outcome = engine.search(queries, adaptive=adaptive)
        res, bd = outcome.results, outcome.breakdown
    finally:
        engine.close()
    oracle = brute_force_topk(ds.base, queries, K)
    per_dpu = np.array([d.total_cycles for d in engine.system.dpus])
    record = {
        "recall_at_10": oracle_recall(res.ids, oracle),
        "kernel_cycles": {
            kname: v for kname, v in sorted(bd.kernel_cycles.items())
        },
        "total_kernel_cycles": float(sum(bd.kernel_cycles.values())),
        "e2e_cycles_max_dpu": float(per_dpu.max()),
        "e2e_cycles_sum": float(per_dpu.sum()),
        "num_queries": int(c["num_queries"]),
    }
    if outcome.adaptive is not None:
        record["total_probes_executed"] = int(
            np.sum(outcome.adaptive.probes_executed)
        )
    return record


def run_all_canonical() -> Dict[str, dict]:
    """Golden runs for every canonical config, in definition order."""
    return {name: run_canonical(name) for name in CANONICAL_CONFIGS}


#: The adaptive modes frozen in tests/fixtures/golden_adaptive.json.
GOLDEN_ADAPTIVE_MODES = ("bound", "budget")


def run_all_adaptive() -> Dict[str, Dict[str, dict]]:
    """Golden adaptive runs: ``{config: {mode: record}}``."""
    return {
        name: {
            mode: run_canonical(name, adaptive=mode)
            for mode in GOLDEN_ADAPTIVE_MODES
        }
        for name in CANONICAL_CONFIGS
    }
