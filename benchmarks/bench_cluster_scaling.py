"""Extension — rack-scale throughput: QPS vs shard count.

The single-platform engine is host-synchronous: one batch occupies the
whole PIM, so sustained QPS is capped by one platform's batch time.
The cluster tier (``repro.cluster``) shards the IVF clusters across
engine replicas and scatter-gathers each batch, so S shards scan ~1/S
of the probed clusters each, in parallel — per-batch latency (and so
saturated throughput) scales with the shard count while results stay
**bit-identical** to the single-engine oracle (the merge is canonical;
shards own disjoint clusters).

Run with ``--smoke`` as the CI cluster-scaling gate: it serves the
same saturating stream through a 1-shard and a 4-shard cluster,
requires byte-equal results (equal recall by construction, also
re-measured against ground truth) and a >= 2.5x sustained-QPS gain,
and writes a machine-readable ``BENCH_cluster.json`` artifact.
"""

from repro.ann.recall import recall_at_k
from repro.cluster import (
    ClusterConfig,
    ClusterFrontend,
    build_cluster_index,
    simulate_cluster_serving,
)
from repro.core.serving import BatchingPolicy

MIN_QPS_RATIO = 2.5


def _serve_cluster(ds, quantized, engine_cfg, num_shards, num_queries, seed=0):
    """Saturated serving through a ``num_shards``-shard cluster."""
    import numpy as np

    queries = ds.queries[:num_queries]
    with build_cluster_index(
        ds.base,
        engine_cfg,
        ClusterConfig(num_shards=num_shards, replication=1),
        heat_queries=queries[: max(1, num_queries // 4)],
        prebuilt_quantized=quantized,
        seed=seed,
    ) as cluster:
        frontend = ClusterFrontend(cluster, seed=seed)
        # Everyone arrives at t=0: the stream saturates the cluster, so
        # achieved QPS measures capacity, not the arrival rate.
        arrivals = np.zeros(num_queries)
        outcome = simulate_cluster_serving(
            frontend,
            queries,
            arrivals,
            BatchingPolicy(batch_size=64, max_wait_s=1e-3),
            return_results=True,
        )
    return outcome


def _scaling_rows(ds, quantized, engine_cfg, shard_counts, num_queries):
    import numpy as np

    rows = []
    outcomes = {}
    for s in shard_counts:
        out = _serve_cluster(ds, quantized, engine_cfg, s, num_queries)
        outcomes[s] = out
        rep = out.report
        recall = recall_at_k(
            out.results.ids, ds.ground_truth[:num_queries], 10
        )
        base_qps = outcomes[shard_counts[0]].report.achieved_qps
        rows.append(
            (
                s,
                f"{rep.achieved_qps:,.0f}",
                f"{rep.achieved_qps / base_qps:.2f}x",
                f"{rep.percentile_ms(99):.2f}",
                f"{recall:.4f}",
            )
        )
        exact = np.array_equal(
            out.results.ids, outcomes[shard_counts[0]].results.ids
        )
        if not exact:
            raise AssertionError(
                f"{s}-shard cluster diverged from the 1-shard results"
            )
    return rows, outcomes


# ---------------------------------------------------------------- CLI
def run_smoke(num_queries: int = 256, min_qps_ratio: float = MIN_QPS_RATIO) -> dict:
    """CI gate: a 4-shard rack must sustain >= 2.5x the 1-shard QPS.

    Both arms serve the identical saturating stream; service times are
    the frontend's deterministic modeled batch times, so the ratio is
    noise-free. Results must be byte-equal across shard counts (the
    cluster's core claim), which makes "at equal recall" structural —
    the recall is also re-measured against ground truth for the
    artifact record.
    """
    import numpy as np

    from benchmarks.common import SEED, params_for
    from repro.core import EngineConfig, LayoutConfig
    from repro.core.quantized import build_quantized_index
    from repro.ann import IVFPQIndex
    from repro.data import load_dataset
    from repro.pim.config import PimSystemConfig

    ds = load_dataset(
        "sift-like-20k", seed=SEED, num_queries=num_queries, ground_truth_k=10
    )
    # Sharded engines see ~nprobe/S probes per query each, so the
    # workload needs enough per-shard parallelism for 16 DPUs to stay
    # busy: many small clusters (nlist=256), a deep probe list
    # (nprobe=16), fine split/duplication granularity, and 64-query
    # batches. Both arms use the identical config; only the shard
    # count varies.
    params = params_for(nlist=256, nprobe=16, m=16, cb=64)
    index = IVFPQIndex.build(
        ds.base,
        nlist=params.nlist,
        num_subspaces=params.num_subspaces,
        codebook_size=params.codebook_size,
        seed=SEED,
    )
    quantized = build_quantized_index(index)
    engine_cfg = EngineConfig(
        index=params,
        system=PimSystemConfig(num_dpus=16),
        layout=LayoutConfig(min_split_size=64, max_copies=4),
    )
    record = {
        "gate": "cluster_scaling_1_to_4_shards",
        "num_queries": num_queries,
        "min_qps_ratio": min_qps_ratio,
        "ok": False,
    }
    outcomes = {}
    for shards in (1, 4):
        out = _serve_cluster(ds, quantized, engine_cfg, shards, num_queries)
        outcomes[shards] = out
        rep = out.report
        recall = recall_at_k(
            out.results.ids, ds.ground_truth[:num_queries], 10
        )
        record[f"shards_{shards}"] = {
            "achieved_qps": rep.achieved_qps,
            "p99_ms": rep.percentile_ms(99),
            "recall_at_10": recall,
            "mean_coverage": rep.mean_coverage,
        }
        print(
            f"{shards} shard(s): {rep.achieved_qps:,.0f} QPS sustained, "
            f"p99 {rep.percentile_ms(99):.2f} ms, recall@10 {recall:.4f}"
        )
    one, four = outcomes[1], outcomes[4]
    if not (
        np.array_equal(one.results.ids, four.results.ids)
        and np.array_equal(one.results.distances, four.results.distances)
    ):
        print("FAIL: 4-shard results differ from 1-shard results")
        return record
    ratio = four.report.achieved_qps / one.report.achieved_qps
    record["qps_ratio"] = ratio
    print(
        f"4 shards sustain {ratio:.2f}x the 1-shard QPS at identical "
        f"results (floor {min_qps_ratio:.1f}x)"
    )
    if ratio < min_qps_ratio:
        print(f"FAIL: 4 shards only {ratio:.2f}x the 1-shard QPS")
        return record
    record["ok"] = True
    return record


def main(argv=None) -> int:
    import argparse

    from benchmarks.common import (
        bench_dataset,
        bench_quantized,
        default_layout,
        params_for,
        print_table,
        write_bench_artifact,
    )
    from repro.core import EngineConfig
    from repro.pim.config import PimSystemConfig

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI cluster-scaling gate: 4 shards must sustain >= 2.5x "
        "the 1-shard QPS with byte-equal results",
    )
    parser.add_argument("--queries", type=int, default=256)
    parser.add_argument("--min-qps-ratio", type=float, default=MIN_QPS_RATIO)
    parser.add_argument(
        "--artifact",
        default="BENCH_cluster.json",
        help="where the machine-readable smoke record is written",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        record = run_smoke(args.queries, args.min_qps_ratio)
        write_bench_artifact(
            args.artifact, {"bench": "cluster_scaling_smoke", "gates": [record]}
        )
        print("OK" if record["ok"] else "FAIL")
        return 0 if record["ok"] else 1

    # Full sweep on the scaled 400k corpus (cached index).
    ds = bench_dataset()
    params = params_for()
    quantized = bench_quantized(
        ds, params.nlist, params.num_subspaces, params.codebook_size
    )
    engine_cfg = EngineConfig(
        index=params,
        system=PimSystemConfig(num_dpus=64),
        layout=default_layout(),
    )
    rows, _ = _scaling_rows(ds, quantized, engine_cfg, (1, 2, 4), 512)
    print_table(
        "Cluster scaling: sustained QPS vs shard count (bit-equal results)",
        ("shards", "QPS", "speedup", "p99 ms", "recall@10"),
        rows,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
