"""Fig. 6 — End-to-end performance vs the CPU baseline on SIFT-like data.

Paper: Fig. 6(a) sweeps nlist at fixed nprobe (DRIM-ANN 2.35–3.65x over
Faiss-CPU, geomean 2.92x, peaking at moderate nlist); Fig. 6(b) sweeps
nprobe at fixed nlist (throughput falls as nprobe grows for both
systems). The simulator reproduces the sweep at the scaled workload
(see benchmarks/common.py): modeled CPU time comes from the same
five-phase model on a silicon-fraction slice of the Xeon, PIM time from
the cycle-accounted simulator with the full load-balancing stack.

Run directly for a console report, or with ``--smoke`` as the CI
perf-regression gate. The smoke run stacks two checks on reduced
workloads, verifies each is bit-identical across the compared
strategies, and exits non-zero when either fails:

* whole-matrix rounds (``batch_size=None``) vs one-query rounds
  (``batch_size=1``) must be >= ``--min-speedup`` (2x) on host
  wall-clock;
* the persistent shard pool must ship no shard data per round: the
  bytes pickled down the worker pipes must stay within the round's
  query-row bytes plus :data:`POOL_BYTES_PER_JOB` per job (a
  deterministic byte count, not a timing; see docs/data_plane.md for
  why single-query-row rounds are the shape where shipping a shard's
  residents would dominate).

It also writes a machine-readable ``BENCH_fig06.json`` artifact with
both measurements so the perf trajectory is diffable across PRs.
"""

import pytest

from benchmarks.common import (
    NLIST_DEFAULT,
    NLIST_SWEEP,
    NPROBE_DEFAULT,
    NPROBE_SWEEP,
    NUM_QUERIES,
    cpu_baseline,
    engine_run,
    geomean,
    params_for,
    print_table,
)


def _sweep(ds, sweep_axis):
    rows = []
    speedups = []
    if sweep_axis == "nlist":
        configs = [params_for(nlist=n) for n in NLIST_SWEEP]
    else:
        configs = [
            params_for(nlist=NLIST_DEFAULT, nprobe=p) for p in NPROBE_SWEEP
        ]
    for params in configs:
        recall, bd = engine_run(ds, params)
        cpu = cpu_baseline(ds, params)
        cpu_s = cpu.model_timing(NUM_QUERIES, params).seconds
        speedup = cpu_s / bd.e2e_seconds
        speedups.append(speedup)
        rows.append(
            (
                params.nlist,
                params.nprobe,
                f"{NUM_QUERIES / bd.e2e_seconds:,.0f}",
                f"{NUM_QUERIES / cpu_s:,.0f}",
                f"{speedup:.2f}x",
                f"{recall:.3f}",
            )
        )
    return rows, speedups


def test_fig06a_nlist_sweep(sift_ds, benchmark):
    rows, speedups = benchmark.pedantic(
        _sweep, args=(sift_ds, "nlist"), rounds=1, iterations=1
    )
    print_table(
        f"Fig. 6(a): SIFT-like, nprobe={NPROBE_DEFAULT}, nlist sweep",
        ("nlist", "nprobe", "pim QPS", "cpu QPS", "speedup", "recall@10"),
        rows,
    )
    print(f"geomean speedup: {geomean(speedups):.2f}x (paper: 2.92x on SIFT100M)")
    # Shape assertions: PIM wins, and the peak is at moderate nlist.
    assert max(speedups) > 1.0


def test_fig06b_nprobe_sweep(sift_ds, benchmark):
    rows, speedups = benchmark.pedantic(
        _sweep, args=(sift_ds, "nprobe"), rounds=1, iterations=1
    )
    print_table(
        f"Fig. 6(b): SIFT-like, nlist={NLIST_DEFAULT}, nprobe sweep",
        ("nlist", "nprobe", "pim QPS", "cpu QPS", "speedup", "recall@10"),
        rows,
    )
    qps = [float(r[2].replace(",", "")) for r in rows]
    # Paper: throughput decreases as nprobe increases.
    assert qps[0] > qps[-1]


# ---------------------------------------------------------------- CLI
#: Descriptor allowance per job on top of its query-row bytes: the
#: shard key, ``k``, the dead-row slot and the pickle framing of one job.
POOL_BYTES_PER_JOB = 256


def run_pool_smoke(rounds: int = 5) -> dict:
    """CI gate: the persistent pool ships query rows, never shard arrays.

    Every worker connection's ``send`` is wrapped to count the bytes it
    pickles; each round must stay within the round's query-row bytes
    (each product job's query row and int64 row term) plus
    :data:`POOL_BYTES_PER_JOB` per job. The shape is chosen where shard
    shipping would dominate: single-query-row rounds (the serving
    steady state) over many modest shards, where re-shipping the
    resident decoded residuals, point terms and ids would cost over
    4,000x the rows. Every round must also be bit-identical to in-process
    :func:`~repro.pim.parallel.scan_shard_group`.
    """
    import numpy as np
    from multiprocessing.reduction import ForkingPickler

    from repro.pim.backend import resolve_backend
    from repro.pim.backend.numpy_backend import (
        CodebookTerms,
        decode_table,
        gather_offsets,
    )
    from repro.pim.parallel import PersistentShardPool, scan_shard_group

    NSHARDS, PTS, M, CB, DSUB, K, WORKERS = 32, 4096, 8, 64, 4, 10, 2
    rng = np.random.default_rng(0)
    backend = resolve_backend("auto")
    terms = CodebookTerms(rng.integers(-200, 201, size=(M, CB, DSUB)))
    table = decode_table(terms, 255)
    shards = {}
    for s in range(NSHARDS):
        off = gather_offsets(rng.integers(0, CB, size=(PTS, M)), CB)
        decoded = backend.decode(off, table)
        centroid = rng.integers(0, 256, size=(1, M * DSUB))
        pts = backend.residual_terms(
            centroid, np.zeros(PTS, dtype=np.intp), off, decoded, terms
        )
        ids = rng.permutation(PTS * 10)[:PTS].astype(np.int64)
        shards[f"shard{s}"] = (decoded, pts, ids)
    keys = list(shards)
    shard_bytes = sum(a.nbytes for arrays in shards.values() for a in arrays)

    record = {
        "gate": "persistent_pool_round_bytes",
        "round_shape": {
            "num_shards": NSHARDS, "points_per_shard": PTS,
            "num_subspaces": M, "codebook_size": CB, "dim": M * DSUB,
            "query_rows": 1, "workers": WORKERS, "rounds": rounds,
        },
        "bytes_per_job_allowance": POOL_BYTES_PER_JOB,
        "shard_bytes_per_round": shard_bytes,
        "ok": False,
    }
    sent = [0]
    pool = PersistentShardPool(WORKERS)
    pool.host_shards(shards)
    try:
        if not pool.wait_warm():
            print("FAIL: persistent pool never became warm")
            return record
        for conn in pool._conns:
            def counted(obj, _send=conn.send):
                sent[0] += len(ForkingPickler.dumps(obj))
                _send(obj)

            conn.send = counted
        max_sent = row_bytes = 0
        for i in range(rounds):
            r = np.random.default_rng(i)
            jobs = [
                (r.integers(0, 256, size=(1, M * DSUB)).astype(table.dtype),
                 decoded, ids, K, pts,
                 r.integers(0, 1 << 20, size=1, dtype=np.int64), None)
                for decoded, pts, ids in shards.values()
            ]
            row_bytes = sum(job[0].nbytes + job[5].nbytes for job in jobs)
            sent[0] = 0
            got = pool.scan_groups(jobs, keys, backend)
            if pool.take_fallback_events() or sent[0] < row_bytes:
                print("FAIL: the round did not run on the pool workers")
                return record
            for job, top in zip(jobs, got):
                want = scan_shard_group(*job, backend=backend)
                if not all(np.array_equal(p, w) for p, w in zip(top, want)):
                    print("FAIL: pool results differ from in-process scan")
                    return record
            max_sent = max(max_sent, sent[0])
    finally:
        pool.close()
    per_job = (max_sent - row_bytes) / NSHARDS
    record.update(
        query_row_bytes_per_round=row_bytes, max_sent_bytes_per_round=max_sent,
        overhead_bytes_per_job=per_job, ok=per_job <= POOL_BYTES_PER_JOB,
    )
    print(
        f"persistent pool shipped {max_sent} B per round for "
        f"{row_bytes} query-row bytes: "
        f"{per_job:.0f} B per job over the rows (allowance "
        f"{POOL_BYTES_PER_JOB} B; shard arrays would be {shard_bytes} B)"
    )
    if not record["ok"]:
        print(f"FAIL: {per_job:.0f} B per job exceeds the allowance")
    return record


def run_smoke(
    num_queries: int = 400, min_speedup: float = 2.0, repeats: int = 3
) -> dict:
    """CI perf gate: batched vs per-query host wall-clock.

    Batched is the whole query matrix in one PIM round
    (``batch_size=None``), per-query one query per round
    (``batch_size=1``); the round size is swapped on one engine the way
    ``tune_batch_size`` sweeps it. Uses a reduced workload (the 20k
    test preset) so the gate runs in seconds; both produce
    bit-identical results, so the only thing compared is simulator
    host wall-clock. Each mode is timed
    ``repeats`` times interleaved and scored by its best run — the
    standard noise shield for a shared CI box, where one descheduled
    slice would otherwise flip the gate.
    """
    import time
    from dataclasses import replace

    import numpy as np

    from benchmarks.common import SEED, build_engine
    from repro.data import load_dataset

    record = {
        "gate": "batched_vs_per_query",
        "num_queries": num_queries,
        "floor": min_speedup,
        "ok": False,
    }
    ds = load_dataset(
        "sift-like-20k", seed=SEED, num_queries=num_queries, ground_truth_k=10
    )
    params = params_for(nlist=128, nprobe=8, m=16, cb=64)
    engine = build_engine(ds, params, num_dpus=16)
    queries = ds.queries[:num_queries]
    engine.search(queries[:8])  # warm caches outside the timed region
    batched = replace(engine.search_params, batch_size=None)
    per_query = replace(batched, batch_size=1)

    res_b = res_q = None
    t_batched = t_per_query = float("inf")
    for _ in range(max(repeats, 1)):
        engine.search_params = batched
        t0 = time.perf_counter()
        res_b, _ = engine.search(queries)
        t_batched = min(t_batched, time.perf_counter() - t0)

        engine.search_params = per_query
        t0 = time.perf_counter()
        res_q, _ = engine.search(queries)
        t_per_query = min(t_per_query, time.perf_counter() - t0)
    engine.close()

    if not (
        np.array_equal(res_b.ids, res_q.ids)
        and np.array_equal(res_b.distances, res_q.distances)
    ):
        print("FAIL: batched and per-query results differ")
        return record
    speedup = t_per_query / t_batched
    record.update(
        t_batched_s=t_batched, t_per_query_s=t_per_query,
        speedup=speedup, ok=speedup >= min_speedup,
    )
    print(
        f"batched {t_batched:.3f}s vs per-query {t_per_query:.3f}s "
        f"(best of {max(repeats, 1)}) over {num_queries} queries "
        f"-> {speedup:.2f}x (floor {min_speedup:.1f}x)"
    )
    if not record["ok"]:
        print(f"FAIL: batched execution only {speedup:.2f}x faster")
    return record


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced perf-regression gate: batched must beat per-query "
        "by --min-speedup on host wall-clock, and the shard pool must ship "
        "only query-row bytes per round",
    )
    parser.add_argument("--queries", type=int, default=400)
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--artifact",
        default="BENCH_fig06.json",
        help="where the machine-readable smoke record is written",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        from benchmarks.common import write_bench_artifact

        batched = run_smoke(args.queries, args.min_speedup, args.repeats)
        pool = run_pool_smoke()
        write_bench_artifact(
            args.artifact,
            {"bench": "fig06_smoke", "gates": [batched, pool]},
        )
        ok = batched["ok"] and pool["ok"]
        print("OK" if ok else "FAIL")
        return 0 if ok else 1
    from benchmarks.common import bench_dataset

    ds = bench_dataset()
    for axis, title in (
        ("nlist", f"Fig. 6(a): SIFT-like, nprobe={NPROBE_DEFAULT}, nlist sweep"),
        ("nprobe", f"Fig. 6(b): SIFT-like, nlist={NLIST_DEFAULT}, nprobe sweep"),
    ):
        rows, speedups = _sweep(ds, axis)
        print_table(
            title,
            ("nlist", "nprobe", "pim QPS", "cpu QPS", "speedup", "recall@10"),
            rows,
        )
        print(f"geomean speedup: {geomean(speedups):.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
