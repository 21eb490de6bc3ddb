"""Ablation — runtime-scheduler policies (DESIGN.md design-choice list).

Separates the contributions of the two §IV-D mechanisms on a fixed,
fully-duplicated layout:

* static      — always replica 0 (no choice), no filter;
* predictor   — Eq. 15 least-predicted-load replica choice, no filter;
* pred+filter — the full scheduler (paper configuration).

The paper attributes the big duplication win ("2-3x when copies go
0 -> 1") to online scheduling; this bench shows how much of that is the
predictor versus the inter-batch filter.
"""

import pytest

from benchmarks.common import (
    NLIST_SWEEP,
    build_engine,
    default_layout,
    params_for,
    print_table,
)
from repro.core.scheduler import RuntimeScheduler, SchedulerConfig


def _with_policy(engine, policy, threshold):
    old = engine.scheduler
    return RuntimeScheduler(
        engine.plan,
        SchedulerConfig(filter_threshold=threshold, policy=policy),
        old.lut_weight,
        old.point_weight,
    )


def _policies(ds):
    params = params_for(nlist=NLIST_SWEEP[2])
    engine = build_engine(ds, params, layout=default_layout())
    arms = (
        ("static", "static", None),
        ("predictor", "predictor", None),
        ("pred+filter", "predictor", 1.5),
    )
    rows = []
    times = {}
    for label, policy, threshold in arms:
        engine.scheduler = _with_policy(engine, policy, threshold)
        _, bd = engine.search(ds.queries)
        times[label] = bd.pim_seconds
        rows.append(
            (label, f"{bd.pim_seconds * 1e3:.2f} ms",
             f"{bd.mean_busy_fraction:.0%}")
        )
    return rows, times


def test_ablation_scheduler(sift_ds, benchmark):
    rows, times = benchmark.pedantic(_policies, args=(sift_ds,), rounds=1, iterations=1)
    print_table(
        "Scheduler ablation (fixed balanced layout)",
        ("policy", "pim time", "DPU busy"),
        rows,
    )
    # The predictor must beat static replica choice; the filter must not hurt.
    assert times["predictor"] <= times["static"]
    assert times["pred+filter"] <= times["predictor"] * 1.1
