"""Extension — query-adaptive probing: cycles saved at held recall.

Fixed ``nprobe`` spends the same cycle budget on every query; under a
skewed workload (``sift-like-20k-skewed``, zipf 2.5) most queries sit
on a hot cluster and finish long before the budget runs out. This
benchmark runs the same engine exhaustively and with
``adaptive="bound"`` / ``"budget"`` / ``"full"``
(``repro.core.adaptive``) and reports, per mode, the total
kernel-cycle ratio against the exhaustive arm, recall@10 against the
exact ground truth, and the mean probes actually executed.

Run with ``--smoke`` as the CI adaptive gate: ``adaptive="full"`` must
cut total kernel cycles by >= 1.3x while holding recall@10 within
0.5 pt of the exhaustive arm, and ``adaptive="bound"`` must be
bit-identical to exhaustive (it is exact by construction — losing that
here means the bound math regressed). Writes a machine-readable
``BENCH_adaptive.json`` artifact.
"""

MIN_CYCLE_RATIO = 1.3
MAX_RECALL_LOSS = 0.005  # 0.5 pt of recall@10
MODES = ("bound", "budget", "full")


def _recall(ids, ground_truth) -> float:
    import numpy as np

    k = ground_truth.shape[1]
    hits = sum(
        len(np.intersect1d(r[r >= 0], g)) for r, g in zip(ids, ground_truth)
    )
    return hits / (len(ground_truth) * k)


def run_smoke(
    num_queries: int = 128,
    min_cycle_ratio: float = MIN_CYCLE_RATIO,
    max_recall_loss: float = MAX_RECALL_LOSS,
) -> dict:
    """CI gate: full-mode cycles >= 1.3x cheaper at <= 0.5 pt recall."""
    import numpy as np

    from benchmarks.common import SEED, params_for
    from repro.core import EngineConfig, LayoutConfig, SearchParams
    from repro.core.engine import DrimAnnEngine
    from repro.data import load_dataset
    from repro.pim.config import PimSystemConfig

    ds = load_dataset(
        "sift-like-20k-skewed",
        seed=SEED,
        num_queries=num_queries,
        ground_truth_k=10,
    )
    nprobe = 16
    config = EngineConfig(
        index=params_for(nlist=128, nprobe=nprobe, m=16, cb=64),
        # The skewed workload's centroid-distance profiles flatten past
        # the hot cluster; a 1.5x-mean gap with a floor of 2 probes lets
        # the budget heuristic engage without measurable recall cost.
        search=SearchParams(adaptive_gap=1.5, nprobe_min=2),
        system=PimSystemConfig(num_dpus=16),
        layout=LayoutConfig(min_split_size=256, max_copies=2),
    )
    record = {
        "gate": "adaptive_cycles_at_held_recall",
        "preset": "sift-like-20k-skewed",
        "num_queries": num_queries,
        "nprobe": nprobe,
        "nprobe_min": 2,
        "adaptive_gap": 1.5,
        "min_cycle_ratio": min_cycle_ratio,
        "max_recall_loss": max_recall_loss,
        "modes": {},
        "ok": False,
    }

    engine = DrimAnnEngine.from_config(
        ds.base, config, heat_queries=ds.queries[:32], seed=SEED
    )
    try:
        base = engine.search(ds.queries)
        base_cycles = float(sum(base.breakdown.kernel_cycles.values()))
        base_recall = _recall(base.results.ids, ds.ground_truth)
        record["exhaustive"] = {
            "recall_at_10": base_recall,
            "total_kernel_cycles": base_cycles,
            "mean_probes": float(nprobe),
        }
        print(
            f"exhaustive: recall@10={base_recall:.4f} "
            f"cycles={base_cycles:,.0f} probes={nprobe}/{nprobe}"
        )

        bound_exact = False
        for mode in MODES:
            out = engine.search(ds.queries, adaptive=mode)
            cycles = float(sum(out.breakdown.kernel_cycles.values()))
            rec = _recall(out.results.ids, ds.ground_truth)
            rep = out.adaptive.to_dict()
            record["modes"][mode] = {
                "recall_at_10": rec,
                "total_kernel_cycles": cycles,
                "cycle_ratio": base_cycles / cycles,
                "mean_probes": rep["mean_probes_executed"],
                "stop_reasons": rep["stop_reasons"],
            }
            print(
                f"{mode}: recall@10={rec:.4f} cycles={cycles:,.0f} "
                f"({base_cycles / cycles:.2f}x) "
                f"probes={rep['mean_probes_executed']:.2f}/{nprobe}"
            )
            if mode == "bound":
                bound_exact = bool(
                    np.array_equal(out.results.ids, base.results.ids)
                    and np.array_equal(
                        out.results.distances, base.results.distances
                    )
                )
    finally:
        engine.close()

    record["bound_bit_identical"] = bound_exact
    if not bound_exact:
        print("FAIL: adaptive='bound' results differ from exhaustive")
        return record

    full = record["modes"]["full"]
    ratio, loss = full["cycle_ratio"], base_recall - full["recall_at_10"]
    record["recall_loss"] = loss
    print(
        f"full mode saves {ratio:.2f}x cycles at {loss * 100:.2f} pt recall "
        f"loss (floor {min_cycle_ratio:.1f}x at <= "
        f"{max_recall_loss * 100:.1f} pt)"
    )
    if ratio < min_cycle_ratio:
        print(f"FAIL: cycle ratio {ratio:.2f}x below {min_cycle_ratio:.1f}x")
        return record
    if loss > max_recall_loss:
        print(f"FAIL: recall loss {loss * 100:.2f} pt exceeds the gate")
        return record
    record["ok"] = True
    return record


def main(argv=None) -> int:
    import argparse

    from benchmarks.common import write_bench_artifact

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI adaptive gate: full mode >= 1.3x cheaper in kernel "
        "cycles at <= 0.5 pt recall@10 loss; bound mode bit-identical",
    )
    parser.add_argument("--queries", type=int, default=128)
    parser.add_argument("--min-cycle-ratio", type=float, default=MIN_CYCLE_RATIO)
    parser.add_argument(
        "--max-recall-loss", type=float, default=MAX_RECALL_LOSS
    )
    parser.add_argument(
        "--artifact",
        default="BENCH_adaptive.json",
        help="where the machine-readable smoke record is written",
    )
    args = parser.parse_args(argv)
    record = run_smoke(args.queries, args.min_cycle_ratio, args.max_recall_loss)
    if args.smoke:
        write_bench_artifact(
            args.artifact, {"bench": "adaptive_smoke", "gates": [record]}
        )
    print("OK" if record["ok"] else "FAIL")
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
