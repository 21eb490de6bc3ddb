"""Shared benchmark configuration and scaled workload constants.

The paper's platform is 2,530 DPUs over SIFT100M/DEEP100M with 10,000
queries. The simulator runs laptop-scale workloads with the governing
*ratios* preserved (see DESIGN.md §3):

==================== ================= =================
quantity             paper             this harness
==================== ================= =================
corpus               100M vectors      400k vectors
nlist sweep          2^13 .. 2^16      2^8 .. 2^11
points per cluster   ~1.5k .. 12.2k    ~195 .. 1562
nprobe sweep         32 .. 128         2 .. 16
DPUs                 2,530             64
clusters per DPU     3.2 .. 25.9       4 .. 32
queries per batch    10,000            1,000 (batch 128)
recall constraint    recall@10 >= 0.8  recall@10 >= 0.75 (scaled)
==================== ================= =================

The CPU (and GPU) comparison profiles are scaled to the same silicon
fraction as the 64-DPU system — see :func:`scaled_cpu_profile`.

Trained indexes are cached on disk (.cache/) keyed by dataset/params so
re-running individual figure benches doesn't retrain.
"""

from __future__ import annotations

import os
import pickle
import sys
from typing import Dict, Optional

import numpy as np

from repro.ann import IVFPQIndex
from repro.baselines import CpuIvfPqBaseline
from repro.core import DrimAnnEngine, IndexParams, LayoutConfig, SearchParams
from repro.core.config import EngineConfig
from repro.core.quantized import QuantizedIndexData, build_quantized_index
from repro.data import Dataset, load_dataset
from repro.pim.config import PimSystemConfig

# ---- scaled workload constants -------------------------------------------
SIFT_PRESET = "sift-like-400k"
DEEP_PRESET = "deep-like-400k"
NUM_QUERIES = 1000
BATCH_SIZE = 128
NUM_DPUS = 64
K = 10
M_DEFAULT = 32
CB_DEFAULT = 256
NLIST_SWEEP = (256, 512, 1024, 2048)  # ~ paper's 2^13..2^16
NPROBE_SWEEP = (2, 4, 8, 16)  # ~ paper's 32..128
NLIST_DEFAULT = 1024  # ~ paper's 2^14 regime (recall-feasible)
NPROBE_DEFAULT = 8  # ~ paper's 96
# The paper's constraint is recall@10 >= 0.8 on SIFT100M. On the scaled
# synthetic corpus the PQ ceiling at WRAM-feasible (M=32, CB=256) sits
# slightly lower; the harness enforces the same constraint mechanism at
# the scaled level (see EXPERIMENTS.md, "accuracy constraint" note).
RECALL_CONSTRAINT = 0.75
SEED = 0

CACHE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, ".cache")


def params_for(
    nlist: int = NLIST_DEFAULT,
    nprobe: int = NPROBE_DEFAULT,
    m: int = M_DEFAULT,
    cb: int = CB_DEFAULT,
    k: int = K,
) -> IndexParams:
    return IndexParams(
        nlist=nlist, nprobe=nprobe, k=k, num_subspaces=m, codebook_size=cb
    )


def _cache_path(tag: str) -> str:
    os.makedirs(CACHE_DIR, exist_ok=True)
    return os.path.join(CACHE_DIR, f"{tag}.pkl")


def cached(tag: str, builder):
    """Disk-backed memoization of expensive build artifacts.

    An entry that no longer unpickles (written by an older version of
    the classes it holds, or truncated) counts as a miss: it is rebuilt
    and overwritten, and its tag is printed to stderr.
    """
    path = _cache_path(tag)
    if os.path.exists(path):
        try:
            with open(path, "rb") as f:
                return pickle.load(f)
        except (
            pickle.UnpicklingError, EOFError, AttributeError, ImportError
        ) as exc:
            print(
                f"cache entry {tag!r} unreadable ({exc}); rebuilding",
                file=sys.stderr,
            )
    obj = builder()
    with open(path, "wb") as f:
        pickle.dump(obj, f)
    return obj


def bench_dataset(preset: str = SIFT_PRESET) -> Dataset:
    return cached(
        f"ds_{preset}_s{SEED}_q{NUM_QUERIES}",
        lambda: load_dataset(
            preset, seed=SEED, num_queries=NUM_QUERIES, ground_truth_k=K
        ),
    )


def bench_index(ds: Dataset, nlist: int, m: int = M_DEFAULT, cb: int = CB_DEFAULT) -> IVFPQIndex:
    return cached(
        f"idx_{ds.name}_n{nlist}_m{m}_cb{cb}_s{SEED}",
        lambda: IVFPQIndex.build(
            ds.base, nlist=nlist, num_subspaces=m, codebook_size=cb, seed=SEED
        ),
    )


def bench_quantized(ds: Dataset, nlist: int, m: int = M_DEFAULT, cb: int = CB_DEFAULT) -> QuantizedIndexData:
    return cached(
        f"quant_{ds.name}_n{nlist}_m{m}_cb{cb}_s{SEED}",
        lambda: build_quantized_index(bench_index(ds, nlist, m, cb)),
    )


def default_layout() -> LayoutConfig:
    return LayoutConfig(min_split_size=400, max_copies=2)


def unbalanced_layout() -> LayoutConfig:
    return LayoutConfig(min_split_size=None, max_copies=0, allocation="id_order")


def build_engine(
    ds: Dataset,
    params: IndexParams,
    *,
    num_dpus: int = NUM_DPUS,
    layout: Optional[LayoutConfig] = None,
    multiplier_less: bool = True,
    compute_scale: float = 1.0,
    shard_workers: int = 0,
) -> DrimAnnEngine:
    quant = bench_quantized(ds, params.nlist, params.num_subspaces, params.codebook_size)
    cfg = PimSystemConfig(
        num_dpus=num_dpus, shard_workers=shard_workers
    ).with_compute_scale(compute_scale)
    engine_cfg = EngineConfig(
        index=params,
        search=SearchParams(multiplier_less=multiplier_less),
        layout=layout if layout is not None else default_layout(),
        system=cfg,
    )
    return DrimAnnEngine.from_config(
        ds.base,
        engine_cfg,
        heat_queries=ds.queries[: NUM_QUERIES // 4],
        prebuilt_quantized=quant,
        cpu_profile=scaled_cpu_profile(num_dpus),
        seed=SEED,
    )


PAPER_NUM_DPUS = 2530


def scaled_cpu_profile(num_dpus: int = NUM_DPUS):
    """A silicon-fraction slice of the paper's Xeon baseline.

    The simulator runs ``num_dpus`` DPUs instead of the paper's 2,530;
    comparing that against a *full* 32-thread Xeon would understate PIM
    by the scale factor. Both sides are therefore scaled by the same
    fraction: the CPU keeps its 32-thread structure but its issue rate
    and bandwidths shrink by ``num_dpus / 2530`` — a 1/40 time-slice of
    the machine. Because the analytic model is linear in rate and
    bandwidth, speedup *ratios* equal the full-scale comparison.
    """
    from repro.core.perf_model import HardwareProfile

    frac = num_dpus / PAPER_NUM_DPUS
    return HardwareProfile.for_cpu(
        threads=32,
        frequency_hz=2.3e9 * frac,
        bandwidth_bytes_per_s=80e9 * frac,
        local_bandwidth_bytes_per_s=2e12 * frac,
    )


def cpu_baseline(ds: Dataset, params: IndexParams, *, num_dpus: int = NUM_DPUS) -> CpuIvfPqBaseline:
    return CpuIvfPqBaseline(
        bench_index(ds, params.nlist, params.num_subspaces, params.codebook_size),
        profile=scaled_cpu_profile(num_dpus),
    )


# In-process memo of engine runs: several figure benches share the same
# (params, layout) arms; one pytest session computes each arm once.
_RUN_CACHE: Dict[tuple, tuple] = {}


def engine_run(
    ds: Dataset,
    params: IndexParams,
    *,
    layout_tag: str = "balanced",
    multiplier_less: bool = True,
    compute_scale: float = 1.0,
    with_scheduler: bool = True,
    num_dpus: int = NUM_DPUS,
    num_queries: int = NUM_QUERIES,
):
    """Build-and-search an arm once per session; returns (recall, breakdown).

    ``layout_tag``: "balanced" (default layout), "unbalanced" (id-order,
    no split/dup), "alloc_only" (heat allocation, no split/dup), or
    "split<N>" / "dup<N>" for Fig. 12 sweeps.
    """
    from repro.ann import recall_at_k

    key = (
        ds.name, params, layout_tag, multiplier_less, compute_scale,
        with_scheduler, num_dpus, num_queries,
    )
    if key in _RUN_CACHE:
        return _RUN_CACHE[key]

    if layout_tag == "balanced":
        layout = default_layout()
    elif layout_tag == "unbalanced":
        layout = unbalanced_layout()
    elif layout_tag == "alloc_only":
        layout = LayoutConfig(min_split_size=None, max_copies=0)
    elif layout_tag.startswith("split"):
        layout = LayoutConfig(min_split_size=int(layout_tag[5:]), max_copies=0)
    elif layout_tag.startswith("dup"):
        layout = LayoutConfig(min_split_size=None, max_copies=int(layout_tag[3:]))
    else:
        raise ValueError(f"unknown layout_tag {layout_tag!r}")

    engine = build_engine(
        ds, params,
        num_dpus=num_dpus,
        layout=layout,
        multiplier_less=multiplier_less,
        compute_scale=compute_scale,
    )
    queries = ds.queries[:num_queries]
    res, bd = engine.search(queries, with_scheduler=with_scheduler)
    recall = (
        recall_at_k(res.ids, ds.ground_truth[:num_queries], K)
        if ds.ground_truth is not None
        else float("nan")
    )
    _RUN_CACHE[key] = (recall, bd)
    return _RUN_CACHE[key]


def write_bench_artifact(path: str, record: dict) -> None:
    """Write one machine-readable bench record (BENCH_*.json).

    The CI smoke gates emit these so the perf trajectory across PRs is
    diffable without parsing console output.
    """
    import json

    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")


def geomean(values) -> float:
    v = np.asarray(list(values), dtype=float)
    return float(np.exp(np.mean(np.log(v))))


def print_table(title: str, headers, rows) -> None:
    """Render one paper-style series as a fixed-width console table."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
