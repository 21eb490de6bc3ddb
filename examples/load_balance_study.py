#!/usr/bin/env python
"""Anatomy of the load balancer (the paper's §IV, Figs. 11/12).

Builds the same index four ways and shows how each mechanism
contributes to closing the gap between the slowest and average DPU:

  A. id-order layout, no splitting/duplication, static scheduling
     (the paper's baseline — "clusters allocated to DPUs in ID order");
  B. + heat-aware greedy allocation;
  C. + cluster splitting;
  D. + duplication and runtime scheduling (full DRIM-ANN).

Run:  python examples/load_balance_study.py
"""

from repro import (
    DrimAnnEngine,
    EngineConfig,
    IndexParams,
    LayoutConfig,
    PimSystemConfig,
    load_dataset,
)


def build_and_run(ds, params, quant, layout, with_scheduler, label):
    engine = DrimAnnEngine.from_config(
        ds.base,
        EngineConfig(index=params, system=PimSystemConfig(num_dpus=32), layout=layout),
        heat_queries=ds.queries[:100],
        prebuilt_quantized=quant,
        seed=0,
    )
    _, timing = engine.search(ds.queries, with_scheduler=with_scheduler)
    return engine, timing


def main() -> None:
    print("Loading sift-like-20k with skewed queries ...")
    ds = load_dataset("sift-like-20k", seed=0, num_queries=300)
    params = IndexParams(
        nlist=128, nprobe=8, k=10, num_subspaces=32, codebook_size=128
    )

    arms = [
        (
            "A: id-order baseline",
            LayoutConfig(min_split_size=None, max_copies=0, allocation="id_order"),
            False,
        ),
        (
            "B: + heat allocation",
            LayoutConfig(min_split_size=None, max_copies=0),
            False,
        ),
        (
            "C: + splitting",
            LayoutConfig(min_split_size=250, max_copies=0),
            False,
        ),
        (
            "D: + duplication + runtime scheduling",
            LayoutConfig(min_split_size=250, max_copies=2),
            True,
        ),
    ]

    quant = None
    baseline_time = None
    print(f"\n{'arm':<40s} {'PIM ms':>9s} {'busy':>6s} {'speedup':>8s}")
    for label, layout, sched in arms:
        engine, timing = build_and_run(ds, params, quant, layout, sched, label)
        if quant is None:
            quant = engine.quantized  # reuse training across arms
        if baseline_time is None:
            baseline_time = timing.pim_seconds
        print(
            f"{label:<40s} {timing.pim_seconds * 1e3:9.2f} "
            f"{timing.mean_busy_fraction:6.1%} "
            f"{baseline_time / timing.pim_seconds:7.2f}x"
        )

    print(
        "\nThe busy column is mean-DPU-cycles / max-DPU-cycles per batch: "
        "1.0 means no DPU waits (paper: the slowest DPU bounds every batch)."
    )


if __name__ == "__main__":
    main()
