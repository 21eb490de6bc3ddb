"""Ablation — workload drift and the inter-batch filter.

The paper's justification for the filter is non-stationarity: "a DPU
that had a long execution time in the previous batch may not
necessarily have a long execution time in the next". On a drift-free
stream the filter is nearly neutral; this ablation sweeps hot-set
drift and shows (a) drifting workloads hurt the static layout far more
than the scheduled one, and (b) the filter's contribution grows with
drift.
"""

import pytest

from benchmarks.common import (
    BATCH_SIZE,
    NLIST_SWEEP,
    NUM_DPUS,
    SEED,
    bench_dataset,
    bench_quantized,
    default_layout,
    params_for,
    print_table,
    scaled_cpu_profile,
)
from repro.core import DrimAnnEngine, EngineConfig, SearchParams
from repro.core.scheduler import RuntimeScheduler, SchedulerConfig
from repro.data import make_query_workload
from repro.data.ground_truth import exact_topk
from repro.pim.config import PimSystemConfig

DRIFTS = (0.0, 0.5, 1.0)
NUM = 600


def _with(engine, policy, threshold):
    old = engine.scheduler.config
    return RuntimeScheduler(
        engine.plan,
        SchedulerConfig(
            lut_latency=old.lut_latency,
            per_point_calc=old.per_point_calc,
            per_point_sort=old.per_point_sort,
            filter_threshold=threshold,
            policy=policy,
        ),
    )


def _drift_sweep(ds):
    params = params_for(nlist=NLIST_SWEEP[2])
    quant = bench_quantized(
        ds, params.nlist, params.num_subspaces, params.codebook_size
    )
    rows = []
    results = {}
    for drift in DRIFTS:
        wl = make_query_workload(
            ds,
            num_queries=NUM,
            batch_size=BATCH_SIZE,
            zipf_skew=1.3,
            hot_fraction=0.05,
            drift=drift,
            noise_scale=5.0,
            seed=11,
        )
        engine = DrimAnnEngine.from_config(
            ds.base,
            EngineConfig(
                index=params,
                search=SearchParams(batch_size=BATCH_SIZE),
                system=PimSystemConfig(num_dpus=NUM_DPUS),
                layout=default_layout(),
            ),
            heat_queries=wl.queries[:150],
            prebuilt_quantized=quant,
            cpu_profile=scaled_cpu_profile(NUM_DPUS),
            seed=SEED,
        )
        times = {}
        for label, policy, threshold in (
            ("static", "static", None),
            ("pred", "predictor", None),
            ("pred+filter", "predictor", 1.3),
        ):
            engine.scheduler = _with(engine, policy, threshold)
            _, bd = engine.search(wl.queries)
            times[label] = bd.pim_seconds
        results[drift] = times
        rows.append(
            (
                drift,
                f"{times['static'] * 1e3:.2f} ms",
                f"{times['static'] / times['pred']:.2f}x",
                f"{times['static'] / times['pred+filter']:.2f}x",
            )
        )
    return rows, results


def test_ablation_drift(sift_ds, benchmark):
    rows, results = benchmark.pedantic(
        _drift_sweep, args=(sift_ds,), rounds=1, iterations=1
    )
    print_table(
        "Drift ablation (speedup over static replica choice)",
        ("drift", "static time", "predictor", "predictor+filter"),
        rows,
    )
    # The scheduler must help at every drift level, filter never hurting
    # materially.
    for drift, times in results.items():
        assert times["pred"] <= times["static"] * 1.02
        assert times["pred+filter"] <= times["pred"] * 1.10
