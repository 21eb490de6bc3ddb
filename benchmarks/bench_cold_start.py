"""Extension — durable-index cold start: mmap load vs full rebuild.

The v2 on-disk format (``repro.core.persist``) exists so a process
restart does not pay for IVF-PQ training again: ``DrimAnnEngine.save``
writes the quantized index *and* the cluster-heat vector the layout
was generated from, and ``DrimAnnEngine.load`` memory-maps the file
and feeds the segment views straight into shard placement — no decode,
no copy, and (because the stored heat reproduces the exact layout) a
bit-identical engine: same ids, same distances, same per-kernel cycle
ledger.

Run with ``--smoke`` as the CI cold-start gate: it times a full
train-and-assemble rebuild against ``save`` + mmap ``load`` of the
same index, requires the loaded engine's search results **and** kernel
cycle ledger to be byte-equal to the rebuilt engine's, requires the
load to be >= 5x faster than the rebuild, and writes a
machine-readable ``BENCH_coldstart.json`` artifact.
"""

import time

MIN_SPEEDUP = 5.0


def _ledger(outcome) -> dict:
    return dict(sorted(outcome.breakdown.kernel_cycles.items()))


def run_smoke(num_queries: int = 128, min_speedup: float = MIN_SPEEDUP) -> dict:
    """CI gate: mmap cold start >= 5x faster than rebuild, bit-equal."""
    import os
    import tempfile

    import numpy as np

    from benchmarks.common import SEED, params_for
    from repro.core import EngineConfig, LayoutConfig
    from repro.core.engine import DrimAnnEngine
    from repro.data import load_dataset
    from repro.pim.config import PimSystemConfig

    ds = load_dataset(
        "sift-like-20k", seed=SEED, num_queries=num_queries, ground_truth_k=10
    )
    params = params_for(nlist=128, nprobe=8, m=16, cb=64)
    config = EngineConfig(
        index=params,
        system=PimSystemConfig(num_dpus=16),
        layout=LayoutConfig(min_split_size=256, max_copies=2),
    )
    heat_queries = ds.queries[: max(1, num_queries // 4)]

    record = {
        "gate": "cold_start_mmap_vs_rebuild",
        "num_queries": num_queries,
        "min_speedup": min_speedup,
        "ok": False,
    }

    # Arm 1 — the price of a restart without persistence: train IVF-PQ,
    # quantize, and assemble the engine from the raw corpus.
    t0 = time.perf_counter()
    engine = DrimAnnEngine.from_config(
        ds.base, config, heat_queries=heat_queries, seed=SEED
    )
    rebuild_seconds = time.perf_counter() - t0

    fd, path = tempfile.mkstemp(suffix=".drim")
    os.close(fd)
    try:
        engine.save(path)
        record["index_bytes"] = os.path.getsize(path)
        try:
            gold = engine.search(ds.queries)
        finally:
            engine.close()

        # Arm 2 — restart with persistence: mmap the saved file and
        # reassemble. The stored cluster heat pins the layout, so this
        # engine is bit-identical, not merely equivalent.
        t0 = time.perf_counter()
        loaded = DrimAnnEngine.load(path, config=config)
        load_seconds = time.perf_counter() - t0
        try:
            warm = loaded.search(ds.queries)
        finally:
            loaded.close()
    finally:
        os.unlink(path)

    record["rebuild_seconds"] = rebuild_seconds
    record["load_seconds"] = load_seconds
    print(f"rebuild (train + assemble): {rebuild_seconds * 1e3:,.1f} ms")
    print(f"cold start (mmap load):     {load_seconds * 1e3:,.1f} ms")

    if not (
        np.array_equal(gold.results.ids, warm.results.ids)
        and np.array_equal(gold.results.distances, warm.results.distances)
    ):
        print("FAIL: loaded engine's results differ from the rebuilt engine")
        return record
    gold_cycles, warm_cycles = _ledger(gold), _ledger(warm)
    record["kernel_cycles"] = warm_cycles
    if gold_cycles != warm_cycles:
        print("FAIL: loaded engine's cycle ledger differs from rebuild:")
        print(f"  rebuild: {gold_cycles}")
        print(f"  loaded:  {warm_cycles}")
        return record
    speedup = rebuild_seconds / load_seconds
    record["speedup"] = speedup
    print(
        f"cold start is {speedup:.1f}x faster than rebuild at bit-equal "
        f"results and cycle ledger (floor {min_speedup:.1f}x)"
    )
    if speedup < min_speedup:
        print(f"FAIL: cold start only {speedup:.1f}x faster than rebuild")
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
        help="CI cold-start gate: mmap load must be >= 5x faster than a "
        "full rebuild with bit-equal results and cycle ledger",
    )
    parser.add_argument("--queries", type=int, default=128)
    parser.add_argument("--min-speedup", type=float, default=MIN_SPEEDUP)
    parser.add_argument(
        "--artifact",
        default="BENCH_coldstart.json",
        help="where the machine-readable smoke record is written",
    )
    args = parser.parse_args(argv)
    record = run_smoke(args.queries, args.min_speedup)
    if args.smoke:
        write_bench_artifact(
            args.artifact, {"bench": "cold_start_smoke", "gates": [record]}
        )
    print("OK" if record["ok"] else "FAIL")
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
