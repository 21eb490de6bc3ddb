#!/usr/bin/env python
"""RAG-style retrieval workload on the PIM engine.

The paper motivates ANNS with retrieval-augmented generation: a stream
of embedding queries arrives in bursts, topics shift over time (hot
documents change), and the serving system must sustain throughput
under that skew. This example models exactly that:

* a DEEP-like corpus stands in for a passage-embedding store;
* queries arrive in batches whose hot topics drift between batches
  (``drift=0.3``) — the regime where the paper's inter-batch filter
  pays off;
* we compare the load-balanced engine against a naive id-order layout
  and report throughput plus per-batch DPU utilization.

Run:  python examples/rag_retrieval.py
"""

import numpy as np

from repro import (
    DrimAnnEngine,
    EngineConfig,
    IndexParams,
    LayoutConfig,
    PimSystemConfig,
    load_dataset,
    make_query_workload,
    recall_at_k,
)
from repro.data.ground_truth import exact_topk


def run(engine: DrimAnnEngine, workload, label: str, use_scheduler: bool):
    total_queries = len(workload.queries)
    result, timing = engine.search(workload.queries, with_scheduler=use_scheduler)
    qps = total_queries / timing.e2e_seconds
    print(
        f"  {label:<22s} {qps:>12,.0f} QPS   "
        f"DPU busy {timing.mean_busy_fraction:5.1%}   "
        f"PIM time {timing.pim_seconds * 1e3:8.2f} ms"
    )
    return result, timing


def main() -> None:
    print("Loading deep-like-20k passage-embedding corpus ...")
    ds = load_dataset("deep-like-20k", seed=7)

    print("Simulating a bursty RAG query stream (hot topics drift) ...")
    workload = make_query_workload(
        ds,
        num_queries=400,
        batch_size=64,
        zipf_skew=1.2,  # a few hot topics dominate each burst
        hot_fraction=0.08,
        drift=0.3,  # topics shift between bursts
        noise_scale=4.0,
        seed=8,
    )
    gt = exact_topk(ds.base, workload.queries, 10)

    params = IndexParams(
        nlist=128, nprobe=8, k=10, num_subspaces=32, codebook_size=128
    )
    system = PimSystemConfig(num_dpus=32)

    print("\nBuilding engines ...")
    balanced = DrimAnnEngine.from_config(
        ds.base,
        EngineConfig(
            index=params,
            system=system,
            layout=LayoutConfig(min_split_size=250, max_copies=2),
        ),
        heat_queries=workload.queries[:100],
        seed=0,
    )
    naive = DrimAnnEngine.from_config(
        ds.base,
        EngineConfig(
            index=params,
            system=system,
            layout=LayoutConfig(
                min_split_size=None, max_copies=0, allocation="id_order"
            ),
        ),
        prebuilt_quantized=balanced.quantized,
        seed=0,
    )

    print("\nServing the query stream:")
    res_bal, t_bal = run(balanced, workload, "load-balanced", True)
    res_naive, t_naive = run(naive, workload, "id-order layout", False)

    speedup = t_naive.pim_seconds / t_bal.pim_seconds
    print(f"\nload-balancing speedup on this stream: {speedup:.2f}x")

    r_bal = recall_at_k(res_bal.ids, gt, 10)
    r_naive = recall_at_k(res_naive.ids, gt, 10)
    print(f"recall@10: balanced={r_bal:.3f}, naive={r_naive:.3f} (identical math)")
    assert np.allclose(
        np.sort(res_bal.distances, axis=1), np.sort(res_naive.distances, axis=1)
    ), "layout must never change results"


if __name__ == "__main__":
    main()
