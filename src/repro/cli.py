"""Command-line interface.

::

    python -m repro info
    python -m repro index build   --preset sift-like-20k --nlist 128 \
                                  --out index.drim
    python -m repro index info    index.drim
    python -m repro index verify  index.drim
    python -m repro index compact index.drim
    python -m repro search --preset sift-like-20k --nlist 128 --nprobe 8
    python -m repro model  --points 100000000 --dim 128 --queries 10000 \
                           --nlist 16384 --nprobe 96
    python -m repro tune   --preset sift-like-20k --constraint 0.7
    python -m repro serve  --rate 5000 --metrics-out metrics.json
    python -m repro chaos  --smoke
    python -m repro lint   --strict
    python -m repro sanitize --json

`index` is the durable-lifecycle group: `index build` trains +
quantizes and writes the v2 binary index file (the mmap cold-start
path of ``DrimAnnEngine.load``),
`index info` reads the header without decoding payloads,
`index verify` checks structure + per-segment checksums, and
`index compact` drops tombstoned points and atomically rewrites the
file; legacy v1 ``.npz`` files stay readable by every reader.
`search`/`serve`/`chaos` accept ``--index PATH`` to run from a saved
index instead of retraining; `search` runs the simulated engine end to
end and reports recall and the timing breakdown (``--profile`` adds
the per-phase metrics profile); `model` evaluates the analytic
performance model at any scale (no simulation); `tune` runs the
Bayesian-optimization DSE against measured recall; `serve` replays an
open-loop stream (``--metrics-out`` dumps the observability snapshot);
`lint` runs the static analyzer (resource contracts, cost-claim
cross-checks, AST rules, the drimsan concurrency rules, trace
invariants — see ``docs/static_analysis.md``; ``--sanitize`` folds the
dynamic sanitizer's findings in); `sanitize` runs the drimsan dynamic
prong standalone — an instrumented pool-backed search whose arena
lifecycle events are replayed through a vector-clock happens-before
checker.

Every subcommand accepts ``--json``, which prints one machine-readable
envelope on stdout::

    {"command": ..., "config": ..., "results": ..., "metrics": ...}

``config`` echoes the exact configuration the results came from (for
engine-backed commands, an :class:`~repro.core.config.EngineConfig`
dict round-trippable via ``EngineConfig.from_dict``); ``metrics`` is a
:class:`~repro.obs.registry.MetricsSnapshot` dict when observability
was on, else ``null``. Human-readable progress moves to stderr so
stdout stays parseable.

Flag spellings are canonical across subcommands (``--nlist``,
``--nprobe``, ``--seed``, ``--out``, ``--dpus``, ``--queries``); the
long index spellings ``--num-subspaces`` / ``--codebook-size`` /
``--topk`` are accepted as aliases of ``--m`` / ``--cb`` / ``--k``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional


def _add_index_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nlist", type=int, default=128, help="IVF cluster count")
    p.add_argument("--nprobe", type=int, default=8,
                   help="clusters probed per query")
    p.add_argument("--k", "--topk", dest="k", type=int, default=10,
                   help="neighbors returned")
    p.add_argument("--m", "--num-subspaces", dest="m", type=int, default=32,
                   help="PQ sub-spaces (M)")
    p.add_argument("--cb", "--codebook-size", dest="cb", type=int, default=128,
                   help="codebook entries (CB)")


def _add_json_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--json", action="store_true", dest="as_json",
        help='machine-readable {"command","config","results","metrics"} '
             "envelope on stdout",
    )


def _say(args, msg: str) -> None:
    """Progress/human output; moves to stderr under ``--json``."""
    print(msg, file=sys.stderr if args.as_json else sys.stdout)


def _emit(
    args,
    config: Dict[str, Any],
    results: Dict[str, Any],
    metrics: Optional[Dict[str, Any]] = None,
) -> None:
    """Print the shared ``--json`` envelope (no-op in text mode)."""
    if not args.as_json:
        return
    print(json.dumps(
        {
            "command": args.command,
            "config": config,
            "results": results,
            "metrics": metrics,
        },
        indent=2,
    ))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DRIM-ANN reproduction: ANN search on simulated DRAM-PIMs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    i = sub.add_parser("info", help="version, presets, default hardware")
    _add_json_arg(i)

    ix = sub.add_parser(
        "index",
        help="durable index lifecycle: build, inspect, verify, compact",
    )
    ixs = ix.add_subparsers(dest="index_command", required=True)

    ib = ixs.add_parser(
        "build", help="train + quantize, write the v2 binary index file"
    )
    ib.add_argument("--preset", default="sift-like-20k")
    ib.add_argument("--seed", type=int, default=0)
    ib.add_argument("--out", required=True, help="output index path")
    _add_index_args(ib)
    _add_json_arg(ib)

    ii = ixs.add_parser(
        "info", help="header-only inspection of an index file"
    )
    ii.add_argument("path", help="index file (v1 .npz or v2 binary)")
    _add_json_arg(ii)

    iv = ixs.add_parser(
        "verify",
        help="structural + checksum validation; non-zero exit on corruption",
    )
    iv.add_argument("path", help="index file (v1 .npz or v2 binary)")
    _add_json_arg(iv)

    ic = ixs.add_parser(
        "compact",
        help="drop tombstoned points and rewrite the file atomically",
    )
    ic.add_argument("path", help="index file to compact")
    ic.add_argument("--out",
                    help="write the compacted index here instead of "
                         "replacing the input in place")
    _add_json_arg(ic)

    s = sub.add_parser("search", help="run the simulated engine end to end")
    s.add_argument("--preset", default="sift-like-20k")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--index", help="prebuilt index file (`repro index build` "
                                   "v2 binary or legacy v1 .npz)")
    s.add_argument("--dpus", type=int, default=32)
    s.add_argument("--queries", type=int, default=200)
    s.add_argument("--shard-workers", type=int, default=0,
                   help="worker processes for shard scans (0 or 1 = no "
                        "pool, every round scans in process; results are "
                        "bit-identical either way)")
    s.add_argument("--adaptive", default="off",
                   choices=("off", "bound", "budget", "full"),
                   help="query-adaptive probing: off (fixed nprobe), "
                        "bound (exact early termination, bit-identical "
                        "results), budget (per-query nprobe from the "
                        "centroid-distance gap profile), or full (both)")
    s.add_argument("--no-balance", action="store_true",
                   help="id-order layout, static scheduling (Fig. 11 baseline)")
    s.add_argument("--opq", action="store_true", help="OPQ preprocessing")
    s.add_argument("--profile", action="store_true",
                   help="enable observability; print the per-phase profile")
    s.add_argument("--metrics-out", metavar="PATH",
                   help="write the metrics snapshot (.prom -> Prometheus "
                        "text, else JSON); implies observability")
    _add_index_args(s)
    _add_json_arg(s)

    m = sub.add_parser("model", help="evaluate the analytic model (any scale)")
    m.add_argument("--points", "--num-points", dest="points", type=int,
                   required=True)
    m.add_argument("--dim", type=int, default=128)
    m.add_argument("--queries", type=int, default=10000)
    m.add_argument("--dpus", type=int, default=2530)
    m.add_argument("--compute-scale", type=float, default=1.0)
    m.add_argument("--with-mul", action="store_true",
                   help="disable the multiplier-less conversion")
    _add_index_args(m)
    _add_json_arg(m)

    t = sub.add_parser("tune", help="Bayesian-optimization DSE")
    t.add_argument("--preset", default="sift-like-20k")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--constraint", type=float, default=0.7,
                   help="recall@k constraint")
    t.add_argument("--iterations", type=int, default=16)
    t.add_argument("--dpus", type=int, default=32)
    _add_json_arg(t)

    v = sub.add_parser("serve", help="simulate an open-loop query stream")
    v.add_argument("--preset", default="sift-like-20k")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--index", help="prebuilt index file to serve from "
                                   "(skips training)")
    v.add_argument("--rate", "--qps", dest="rate", type=float, default=5000,
                   help="arrival QPS")
    v.add_argument("--queries", type=int, default=300)
    v.add_argument("--dpus", type=int, default=32)
    v.add_argument("--batch-size", type=int, default=64,
                   help="micro-batch size cap; 1 serves every arrival in "
                        "its own engine round (the no-batching baseline)")
    v.add_argument("--max-wait-ms", type=float, default=2.0)
    v.add_argument("--deadline-ms", type=float, default=None,
                   help="per-query arrival->completion deadline; served "
                        "queries past it count as misses")
    v.add_argument("--shard-workers", type=int, default=0,
                   help="worker processes for shard scans (0 or 1 = no "
                        "pool, every round scans in process)")
    v.add_argument("--metrics-out", metavar="PATH",
                   help="write the metrics snapshot (.prom -> Prometheus "
                        "text, else JSON); implies observability")
    _add_index_args(v)
    _add_json_arg(v)

    be = sub.add_parser(
        "bench", help="host-side microbenchmarks (host kernels)"
    )
    bes = be.add_subparsers(dest="bench_command", required=True)
    bk = bes.add_parser(
        "kernels",
        help="time the host kernels against the staged reference "
             "kernels and check bit-exactness",
    )
    bk.add_argument("--repeats", type=int, default=5,
                    help="timing repetitions per kernel (best-of)")
    bk.add_argument("--seed", type=int, default=0)
    bk.add_argument("--artifact", metavar="PATH",
                    help="also write the record as a bench artifact JSON")
    _add_json_arg(bk)

    c = sub.add_parser(
        "characterize", help="measure the paper's Observations 1-3 on a preset"
    )
    c.add_argument("--preset", default="sift-like-20k")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--nlist", type=int, default=128)
    c.add_argument("--nprobe", type=int, default=8)
    _add_json_arg(c)

    f = sub.add_parser(
        "frontier", help="recall/throughput Pareto frontier over a small grid"
    )
    f.add_argument("--preset", default="sift-like-20k")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--dpus", type=int, default=32)
    _add_json_arg(f)

    def _float_list(text: str):
        return tuple(float(v) for v in text.split(",") if v)

    ch = sub.add_parser(
        "chaos",
        help="fault-injection sweep: recall/availability vs fail-stop rate",
    )
    ch.add_argument("--smoke", action="store_true",
                    help="seconds-scale sweep for CI (overrides sizes)")
    ch.add_argument("--index", help="prebuilt index file to sweep over "
                                    "(skips training; geometry must match)")
    ch.add_argument("--seed", type=int, default=0)
    ch.add_argument("--dpus", type=int, default=64)
    ch.add_argument("--vectors", type=int, default=4096)
    ch.add_argument("--queries", type=int, default=64)
    ch.add_argument("--nlist", type=int, default=64, help="IVF cluster count")
    ch.add_argument("--nprobe", type=int, default=8,
                    help="clusters probed per query")
    ch.add_argument("--k", "--topk", dest="k", type=int, default=10,
                    help="neighbors returned")
    ch.add_argument("--m", "--num-subspaces", dest="m", type=int, default=8,
                    help="PQ sub-spaces (M)")
    ch.add_argument("--cb", "--codebook-size", dest="cb", type=int,
                    default=256, help="codebook entries (CB)")
    ch.add_argument("--rates", type=_float_list, default=None,
                    metavar="R,R,...",
                    help="fail-stop fractions to sweep (default 0,0.02,0.05,0.1)")
    ch.add_argument("--stragglers", type=float, default=0.0,
                    help="fraction of DPUs running derated")
    ch.add_argument("--transient-rate", type=float, default=0.0,
                    help="per-(DPU, batch) transient kernel fault probability")
    ch.add_argument("--timeout-rate", type=float, default=0.0,
                    help="per-batch results-gather timeout probability")
    ch.add_argument("--no-dup", action="store_true",
                    help="disable cluster duplication (no failover replicas)")
    ch.add_argument("--cluster", action="store_true",
                    help="rack-tier chaos instead: dead-shard failover, "
                         "graceful degradation, and straggler hedging "
                         "across sharded engine replicas")
    ch.add_argument("--shards", type=int, default=4,
                    help="engine shards behind the frontend (--cluster)")
    ch.add_argument("--slow-factor", type=float, default=8.0,
                    help="straggler node latency multiplier (--cluster)")
    _add_json_arg(ch)

    def _int_list(text: str):
        return tuple(int(v) for v in text.split(",") if v)

    li = sub.add_parser(
        "lint",
        help="static analysis: resource contracts, cost claims, AST rules",
    )
    li.add_argument("--strict", action="store_true",
                    help="exit non-zero on any error-severity finding")
    li.add_argument("--select",
                    help="comma list of checker families to run "
                         "(resources,costs,ast,concurrency,trace)")
    li.add_argument("--sanitize", action="store_true",
                    help="also run the dynamic drimsan pass (instrumented "
                         "pool-backed search) and merge its findings")
    li.add_argument("--trace",
                    help="check a Chrome trace JSON's timeline invariants "
                         "(runs only the trace family unless --select is given)")
    li.add_argument("--kernel-module", action="append", default=[],
                    metavar="MODULE",
                    help="extra contract module to cross-check "
                         "(dotted name or .py path; repeatable)")
    li.add_argument("--root",
                    help="package directory to AST-lint "
                         "(default: the installed repro package)")
    li.add_argument("--min-severity", default="info",
                    choices=["info", "warning", "error"],
                    help="hide findings below this severity in text output")
    li.add_argument("--grid-nlist", type=_int_list, default=None,
                    metavar="N,N,...", help="DSE grid nlist values to vet")
    li.add_argument("--grid-m", type=_int_list, default=None,
                    metavar="M,M,...", help="DSE grid M values to vet")
    li.add_argument("--grid-cb", type=_int_list, default=None,
                    metavar="CB,CB,...", help="DSE grid CB values to vet")
    li.add_argument("--grid-tasklets", type=_int_list, default=None,
                    metavar="T,T,...", help="tasklet counts to vet the grid at")
    _add_json_arg(li)

    sa = sub.add_parser(
        "sanitize",
        help="dynamic concurrency sanitizer: instrumented pool-backed "
             "search + happens-before checks on the arena lifecycle",
    )
    sa.add_argument("--strict", action="store_true",
                    help="exit non-zero on any error-severity finding")
    sa.add_argument("--config", default="split-replicated",
                    help="canonical engine config to drive (default: "
                         "split-replicated)")
    sa.add_argument("--workers", type=int, default=2,
                    help="persistent pool workers for the sanitized run "
                         "(at least 2)")
    sa.add_argument("--trace-out", metavar="PATH",
                    help="also export the arena event timeline as Chrome "
                         "trace JSON")
    sa.add_argument("--min-severity", default="info",
                    choices=["info", "warning", "error"],
                    help="hide findings below this severity in text output")
    _add_json_arg(sa)
    return parser


def _write_metrics(path: str, snapshot) -> None:
    """``.prom`` suffix -> Prometheus text exposition, else JSON."""
    if path.endswith(".prom"):
        snapshot.write_prometheus(path)
    else:
        snapshot.write_json(path)


# ---------------------------------------------------------------- commands
def _cmd_info(args) -> int:
    import repro
    from repro.data import list_presets
    from repro.pim.config import DpuConfig, PimSystemConfig

    dpu = DpuConfig()
    cfg = PimSystemConfig()
    _say(args, f"repro {repro.__version__} — DRIM-ANN reproduction (SC 2025)")
    _say(args, f"dataset presets: {', '.join(list_presets())}")
    _say(
        args,
        f"default DPU: {dpu.frequency_hz / 1e6:.0f} MHz, "
        f"{dpu.num_tasklets} tasklets, "
        f"{dpu.mram_bytes // 2**20} MB MRAM, {dpu.wram_bytes // 1024} KB WRAM, "
        f"mul={32}x add",
    )
    _say(
        args,
        f"default system: {cfg.num_dpus} DPUs, "
        f"host channel {cfg.transfer.host_bandwidth_bytes_per_s / 1e9:.1f} GB/s",
    )
    _emit(
        args,
        config={},
        results={
            "version": repro.__version__,
            "presets": list(list_presets()),
            "dpu": {
                "frequency_hz": dpu.frequency_hz,
                "num_tasklets": dpu.num_tasklets,
                "mram_bytes": dpu.mram_bytes,
                "wram_bytes": dpu.wram_bytes,
            },
            "system": {
                "num_dpus": cfg.num_dpus,
                "host_bandwidth_bytes_per_s":
                    cfg.transfer.host_bandwidth_bytes_per_s,
            },
        },
    )
    return 0


def _params(args):
    from repro.core import IndexParams

    return IndexParams(
        nlist=args.nlist,
        nprobe=args.nprobe,
        k=args.k,
        num_subspaces=args.m,
        codebook_size=args.cb,
    )


def _cmd_index_build(args) -> int:
    """Train + quantize, then write the v2 binary index file."""
    from dataclasses import asdict

    from repro.ann import IVFPQIndex
    from repro.core.adaptive import cluster_radii_sq
    from repro.core.persist import save_index
    from repro.core.quantized import build_quantized_index
    from repro.data import load_dataset

    params = _params(args)
    _say(args, f"loading {args.preset} ...")
    ds = load_dataset(args.preset, seed=args.seed)
    _say(args, f"training IVF-PQ (nlist={params.nlist}, M={params.num_subspaces}, "
               f"CB={params.codebook_size}) ...")
    index = IVFPQIndex.build(
        ds.base,
        nlist=params.nlist,
        num_subspaces=params.num_subspaces,
        codebook_size=params.codebook_size,
        seed=args.seed,
    )
    quant = build_quantized_index(index)
    save_index(quant, args.out, cluster_radii=cluster_radii_sq(quant))
    _say(args, f"wrote {args.out} (v2): {quant.num_points} points, "
               f"{quant.nlist} clusters, dim {quant.dim}")
    _emit(
        args,
        config={
            "preset": args.preset,
            "seed": args.seed,
            "format": "v2",
            "index": asdict(params),
        },
        results={
            "out": args.out,
            "format": "v2",
            "num_points": quant.num_points,
            "nlist": quant.nlist,
            "dim": quant.dim,
        },
    )
    return 0


def _cmd_index(args) -> int:
    args.command = f"index {args.index_command}"
    if args.index_command == "build":
        return _cmd_index_build(args)
    if args.index_command == "info":
        return _cmd_index_info(args)
    if args.index_command == "verify":
        return _cmd_index_verify(args)
    return _cmd_index_compact(args)


def _cmd_index_info(args) -> int:
    from repro.core.persist import index_info

    info = index_info(args.path)
    _say(args, f"{args.path}: {info['container']} "
               f"(format v{info['format_version']})")
    _say(args, f"  {info['num_points']} points, {info['nlist']} clusters, "
               f"dim {info['dim']}, M={info['num_subspaces']}, "
               f"CB={info['codebook_size']}")
    _say(args, f"  tombstones: {info['num_tombstones']} "
               f"({info['tombstone_ratio']:.1%})")
    _say(args, f"  cluster heat: {'yes' if info['has_cluster_heat'] else 'no'}"
               f", OPQ: {'yes' if info['has_opq'] else 'no'}"
               f", radii: {'yes' if info['has_cluster_radii'] else 'no'}"
               f", {info['file_bytes']} bytes on disk")
    _emit(args, config={"path": args.path}, results=info)
    return 0


def _cmd_index_verify(args) -> int:
    from repro.core.persist import verify_index

    report = verify_index(args.path)
    if report["ok"]:
        _say(args, f"{args.path}: OK "
                   f"({report['checked_segments']} segments verified)")
    else:
        for err in report["errors"]:
            _say(args, f"{args.path}: {err}")
    _emit(args, config={"path": args.path}, results=report)
    return 0 if report["ok"] else 1


def _cmd_index_compact(args) -> int:
    from repro.core.persist import load_index_bundle, save_index

    from repro.core.adaptive import cluster_radii_sq

    bundle = load_index_bundle(args.path, mmap=False)
    removed = bundle.index.num_tombstones
    compacted = bundle.index.compact()
    target = args.out or args.path
    save_index(
        compacted,
        target,
        cluster_heat=bundle.cluster_heat,
        preprocessor=bundle.preprocessor,
        cluster_radii=cluster_radii_sq(compacted),
    )
    _say(args, f"compacted {args.path} -> {target}: dropped {removed} "
               f"tombstones, {compacted.num_points} points remain")
    _emit(
        args,
        config={"path": args.path, "out": args.out},
        results={
            "out": target,
            "removed_tombstones": removed,
            "num_points": compacted.num_points,
        },
    )
    return 0


def _profile_lines(snapshot) -> List[str]:
    """Per-phase profile rows from the ``drimann_phase_seconds`` series."""
    rows = [f"{'phase':>6s} {'total ms':>10s} {'mean ms':>9s} "
            f"{'batches':>8s}"]
    for s in snapshot.series("drimann_phase_seconds"):
        n = s["count"]
        if not n:
            continue
        rows.append(
            f"{s['labels']['phase']:>6s} {s['sum'] * 1e3:>10.3f} "
            f"{s['sum'] / n * 1e3:>9.3f} {n:>8d}"
        )
    return rows


def _cmd_search(args) -> int:
    from repro.ann import recall_at_k
    from repro.core import DrimAnnEngine, EngineConfig, LayoutConfig, SearchParams
    from repro.core.persist import load_index
    from repro.data import load_dataset
    from repro.obs import ObsConfig
    from repro.pim.config import PimSystemConfig

    params = _params(args)
    _say(args, f"loading {args.preset} ...")
    ds = load_dataset(
        args.preset, seed=args.seed, num_queries=args.queries, ground_truth_k=params.k
    )
    quant = load_index(args.index) if args.index else None
    layout = (
        LayoutConfig(min_split_size=None, max_copies=0, allocation="id_order")
        if args.no_balance
        else LayoutConfig()
    )
    obs_on = bool(args.profile or args.metrics_out or args.as_json)
    config = EngineConfig(
        index=params,
        search=SearchParams(adaptive=args.adaptive),
        layout=layout,
        system=PimSystemConfig(
            num_dpus=args.dpus, shard_workers=args.shard_workers,
        ),
        use_opq=args.opq,
        obs=ObsConfig(enabled=obs_on),
    )
    _say(args, f"building engine ({args.dpus} DPUs) ...")
    engine = DrimAnnEngine.from_config(
        ds.base,
        config,
        heat_queries=None if args.no_balance else ds.queries[: args.queries // 4],
        prebuilt_quantized=quant,
        seed=args.seed,
    )
    try:
        outcome = engine.search(ds.queries, with_scheduler=not args.no_balance)
    finally:
        engine.close()
    rec = recall_at_k(outcome.results.ids, ds.ground_truth, params.k)
    _say(args, f"\nrecall@{params.k} = {rec:.3f}")
    _say(args, outcome.breakdown.summary())
    if args.profile and outcome.metrics is not None and not args.as_json:
        print("\nper-phase profile:")
        for line in _profile_lines(outcome.metrics):
            print(line)
    if args.metrics_out and outcome.metrics is not None:
        _write_metrics(args.metrics_out, outcome.metrics)
        _say(args, f"wrote metrics snapshot to {args.metrics_out}")
    _emit(
        args,
        config={
            "preset": args.preset,
            "seed": args.seed,
            "queries": args.queries,
            "index_path": args.index,
            "no_balance": args.no_balance,
            "engine": config.to_dict(),
        },
        results={
            "recall_at_k": rec,
            "k": params.k,
            "breakdown": outcome.breakdown.to_dict(),
            "adaptive": (
                None if outcome.adaptive is None
                else outcome.adaptive.to_dict()
            ),
        },
        metrics=None if outcome.metrics is None else outcome.metrics.to_dict(),
    )
    return 0


def _cmd_model(args) -> int:
    from dataclasses import asdict

    from repro.core import AnalyticPerfModel, DatasetShape, HardwareProfile
    from repro.pim.config import PimSystemConfig

    params = _params(args)
    shape = DatasetShape(
        num_points=args.points, dim=args.dim, num_queries=args.queries
    )
    cfg = PimSystemConfig(num_dpus=args.dpus).with_compute_scale(args.compute_scale)
    pim = AnalyticPerfModel(
        shape,
        HardwareProfile.for_pim(cfg),
        multiplier_less=not args.with_mul,
    )
    cpu = AnalyticPerfModel(shape, HardwareProfile.for_cpu())
    t_pim = pim.split_seconds(params)
    t_cpu = cpu.total_seconds(params)
    estimates = pim.estimate(params)
    _say(args, f"{'phase':>6s} {'pim ms':>10s} {'bound':>8s} {'c2io':>8s}")
    for phase, est in estimates.items():
        _say(
            args,
            f"{phase:>6s} {est.seconds * 1e3:>10.3f} "
            f"{'compute' if est.compute_bound else 'IO':>8s} {est.c2io:>8.3f}",
        )
    _say(args, f"\npim (CL on host, overlapped): {t_pim * 1e3:.2f} ms "
               f"({args.queries / t_pim:,.0f} QPS)")
    _say(args, f"cpu baseline:                 {t_cpu * 1e3:.2f} ms "
               f"({args.queries / t_cpu:,.0f} QPS)")
    _say(args, f"modeled speedup:              {t_cpu / t_pim:.2f}x")
    _emit(
        args,
        config={
            "points": args.points,
            "dim": args.dim,
            "queries": args.queries,
            "dpus": args.dpus,
            "compute_scale": args.compute_scale,
            "multiplier_less": not args.with_mul,
            "index": asdict(params),
        },
        results={
            "phases": {
                phase: {
                    "seconds": est.seconds,
                    "compute_bound": est.compute_bound,
                    "c2io": est.c2io,
                }
                for phase, est in estimates.items()
            },
            "pim_seconds": t_pim,
            "cpu_seconds": t_cpu,
            "pim_qps": args.queries / t_pim,
            "cpu_qps": args.queries / t_cpu,
            "speedup": t_cpu / t_pim,
        },
    )
    return 0


def _cmd_tune(args) -> int:
    from dataclasses import asdict

    from repro.ann import IVFPQIndex, recall_at_k
    from repro.core import DatasetShape, DesignSpaceExplorer, HardwareProfile
    from repro.core.quantized import build_quantized_index
    from repro.data import load_dataset
    from repro.pim.config import PimSystemConfig

    _say(args, f"loading {args.preset} ...")
    ds = load_dataset(args.preset, seed=args.seed, num_queries=150, ground_truth_k=10)
    shape = DatasetShape(num_points=ds.num_base, dim=ds.dim, num_queries=150)
    dse = DesignSpaceExplorer(
        shape,
        HardwareProfile.for_pim(PimSystemConfig(num_dpus=args.dpus)),
        nlist_values=[64, 128, 256],
        nprobe_values=[2, 4, 8, 16],
        m_values=[16, 32],
        cb_values=[64, 128],
    )
    cache = {}

    def oracle(params) -> float:
        key = (params.nlist, params.num_subspaces, params.codebook_size)
        if key not in cache:
            idx = IVFPQIndex.build(
                ds.base,
                nlist=params.nlist,
                num_subspaces=params.num_subspaces,
                codebook_size=params.codebook_size,
                seed=args.seed,
            )
            cache[key] = build_quantized_index(idx)
        res = cache[key].reference_search(ds.queries, params.k, params.nprobe)
        rec = recall_at_k(res.ids, ds.ground_truth, params.k)
        _say(args, f"  nlist={params.nlist} nprobe={params.nprobe} "
                   f"M={params.num_subspaces} CB={params.codebook_size}: "
                   f"recall {rec:.3f}")
        return rec

    result = dse.explore(
        oracle, args.constraint, num_iterations=args.iterations, seed=args.seed
    )
    tune_config = {
        "preset": args.preset,
        "seed": args.seed,
        "constraint": args.constraint,
        "iterations": args.iterations,
        "dpus": args.dpus,
    }
    if not result.found_feasible:
        _say(args, "no feasible configuration found — relax the constraint")
        _emit(
            args,
            config=tune_config,
            results={
                "found_feasible": False,
                "oracle_calls": result.oracle_calls,
            },
        )
        return 1
    p = result.best_params
    _say(
        args,
        f"\nbest: nlist={p.nlist} nprobe={p.nprobe} M={p.num_subspaces} "
        f"CB={p.codebook_size} (recall {result.best_accuracy:.3f}, "
        f"modeled {result.best_modeled_seconds * 1e3:.2f} ms/batch, "
        f"{result.oracle_calls} oracle calls)",
    )
    _emit(
        args,
        config=tune_config,
        results={
            "found_feasible": True,
            "best_params": asdict(p),
            "best_recall": result.best_accuracy,
            "best_modeled_seconds": result.best_modeled_seconds,
            "oracle_calls": result.oracle_calls,
        },
    )
    return 0


def _cmd_serve(args) -> int:
    from repro.core import (
        BatchingPolicy,
        DrimAnnEngine,
        EngineConfig,
        PoissonArrivals,
        simulate_serving,
    )
    from repro.data import load_dataset
    from repro.obs import ObsConfig
    from repro.pim.config import PimSystemConfig

    params = _params(args)
    _say(args, f"loading {args.preset} ...")
    ds = load_dataset(args.preset, seed=args.seed, num_queries=args.queries)
    obs_on = bool(args.metrics_out or args.as_json)
    config = EngineConfig(
        index=params,
        system=PimSystemConfig(
            num_dpus=args.dpus, shard_workers=args.shard_workers,
        ),
        obs=ObsConfig(enabled=obs_on),
    )
    quant = None
    if args.index:
        from repro.core.persist import load_index

        quant = load_index(args.index)
    _say(args, f"building engine ({args.dpus} DPUs) ...")
    engine = DrimAnnEngine.from_config(
        ds.base,
        config,
        heat_queries=ds.queries[: args.queries // 4],
        prebuilt_quantized=quant,
        seed=args.seed,
    )
    arrivals = PoissonArrivals(args.rate).sample(args.queries, seed=args.seed)
    try:
        outcome = simulate_serving(
            engine,
            ds.queries,
            arrivals,
            BatchingPolicy(
                batch_size=args.batch_size,
                max_wait_s=args.max_wait_ms * 1e-3,
                deadline_s=(
                    None if args.deadline_ms is None
                    else args.deadline_ms * 1e-3
                ),
            ),
        )
    finally:
        engine.close()
    _say(args, f"\nserving at {args.rate:,.0f} QPS Poisson:")
    _say(args, outcome.report.summary())
    if args.metrics_out and outcome.metrics is not None:
        _write_metrics(args.metrics_out, outcome.metrics)
        _say(args, f"wrote metrics snapshot to {args.metrics_out}")
    _emit(
        args,
        config={
            "preset": args.preset,
            "seed": args.seed,
            "rate_qps": args.rate,
            "queries": args.queries,
            "batch_size": args.batch_size,
            "max_wait_ms": args.max_wait_ms,
            "deadline_ms": args.deadline_ms,
            "engine": config.to_dict(),
        },
        results=outcome.report.to_dict(),
        metrics=None if outcome.metrics is None else outcome.metrics.to_dict(),
    )
    return 0


def _cmd_characterize(args) -> int:
    from repro.ann import IVFIndex
    from repro.data import (
        AccessStats,
        ClusterSizeStats,
        intrinsic_dimension_estimate,
        load_dataset,
    )

    _say(args, f"loading {args.preset} ...")
    ds = load_dataset(args.preset, seed=args.seed, num_queries=300)
    idim = intrinsic_dimension_estimate(ds.base)
    _say(args, f"intrinsic dimension: {idim:.1f} of {ds.dim} ambient")
    ivf = IVFIndex.build(ds.base, nlist=args.nlist, seed=args.seed)
    s = ClusterSizeStats.from_sizes(ivf.list_sizes())
    _say(
        args,
        f"cluster sizes: mean {s.mean:.0f}, max {s.max:.0f}, "
        f"imbalance {s.imbalance_factor:.2f}, gini {s.gini:.2f}",
    )
    probes = ivf.locate(ds.queries.astype(float), args.nprobe)
    a = AccessStats.from_probes(probes, ivf.nlist, batch_size=64)
    _say(
        args,
        f"access skew: top cluster {a.top1_share:.1%}, hottest 10% "
        f"{a.top10pct_share:.1%}, zipf {a.zipf_exponent:.2f}, "
        f"batch contention {a.mean_batch_contention:.1f}",
    )
    _emit(
        args,
        config={
            "preset": args.preset,
            "seed": args.seed,
            "nlist": args.nlist,
            "nprobe": args.nprobe,
        },
        results={
            "intrinsic_dimension": idim,
            "ambient_dimension": ds.dim,
            "cluster_sizes": {
                "mean": s.mean,
                "max": s.max,
                "imbalance_factor": s.imbalance_factor,
                "gini": s.gini,
            },
            "access": {
                "top1_share": a.top1_share,
                "top10pct_share": a.top10pct_share,
                "zipf_exponent": a.zipf_exponent,
                "mean_batch_contention": a.mean_batch_contention,
            },
        },
    )
    return 0


def _cmd_frontier(args) -> int:
    from dataclasses import asdict

    from repro.core import DatasetShape, HardwareProfile
    from repro.core.accuracy import measure_accuracy_table
    from repro.core.frontier import knee_point, pareto_frontier
    from repro.core.perf_model import AnalyticPerfModel
    from repro.data import load_dataset
    from repro.pim.config import PimSystemConfig

    _say(args, f"loading {args.preset} ...")
    ds = load_dataset(args.preset, seed=args.seed, num_queries=150, ground_truth_k=10)
    _say(args, "measuring the accuracy table (one index per nlist/M/CB) ...")
    table = measure_accuracy_table(
        ds.base,
        ds.queries,
        ds.ground_truth,
        nlist_values=[64, 128],
        nprobe_values=[1, 2, 4, 8, 16],
        m_values=[16, 32],
        cb_values=[64],
        seed=args.seed,
    )
    model = AnalyticPerfModel(
        DatasetShape(num_points=ds.num_base, dim=ds.dim, num_queries=150),
        HardwareProfile.for_pim(PimSystemConfig(num_dpus=args.dpus)),
        multiplier_less=True,
    )
    frontier = pareto_frontier(table, model)
    _say(args, f"\n{'recall@10':>10s} {'ms/batch':>9s}  configuration")
    for p in frontier:
        _say(
            args,
            f"{p.recall:>10.3f} {p.modeled_seconds * 1e3:>9.2f}  "
            f"nlist={p.params.nlist} nprobe={p.params.nprobe} "
            f"M={p.params.num_subspaces} CB={p.params.codebook_size}",
        )
    knee = knee_point(frontier)
    _say(
        args,
        f"\nknee (suggested default): nlist={knee.params.nlist} "
        f"nprobe={knee.params.nprobe} M={knee.params.num_subspaces} "
        f"CB={knee.params.codebook_size} (recall {knee.recall:.3f})",
    )
    _emit(
        args,
        config={"preset": args.preset, "seed": args.seed, "dpus": args.dpus},
        results={
            "frontier": [
                {
                    "recall": p.recall,
                    "modeled_seconds": p.modeled_seconds,
                    "params": asdict(p.params),
                }
                for p in frontier
            ],
            "knee": {
                "recall": knee.recall,
                "modeled_seconds": knee.modeled_seconds,
                "params": asdict(knee.params),
            },
        },
    )
    return 0


def _cmd_chaos(args) -> int:
    import dataclasses

    from repro.faults.chaos import ChaosConfig, run_chaos

    if args.cluster:
        return _cmd_chaos_cluster(args)
    prebuilt = None
    if args.index:
        from repro.core.persist import load_index

        prebuilt = load_index(args.index)
    if args.smoke:
        config = ChaosConfig.smoke(duplicate=not args.no_dup, seed=args.seed)
        if args.rates:
            config = dataclasses.replace(config, fail_stop_rates=args.rates)
    else:
        config = ChaosConfig(
            num_dpus=args.dpus,
            num_vectors=args.vectors,
            num_queries=args.queries,
            nlist=args.nlist,
            nprobe=args.nprobe,
            k=args.k,
            num_subspaces=args.m,
            codebook_size=args.cb,
            fail_stop_rates=args.rates or (0.0, 0.02, 0.05, 0.10),
            straggler_fraction=args.stragglers,
            transient_rate=args.transient_rate,
            transfer_timeout_rate=args.timeout_rate,
            duplicate=not args.no_dup,
            seed=args.seed,
        )
    report = run_chaos(config, prebuilt_quantized=prebuilt)
    _say(args, report.summary())
    d = report.to_dict()
    _emit(args, config=d["config"], results={"points": d["points"]})
    # The sweep is diagnostic: degraded points are expected output, not
    # a failure. Only a crash (exception) fails the command.
    return 0


def _cmd_chaos_cluster(args) -> int:
    from repro.cluster.chaos import ClusterChaosConfig, run_cluster_chaos

    if args.smoke:
        config = ClusterChaosConfig.smoke(seed=args.seed)
    else:
        config = ClusterChaosConfig(
            num_shards=args.shards,
            num_vectors=args.vectors,
            num_queries=args.queries,
            nlist=args.nlist,
            nprobe=args.nprobe,
            k=args.k,
            num_subspaces=args.m,
            codebook_size=args.cb,
            slow_factor=args.slow_factor,
            seed=args.seed,
        )
    report = run_cluster_chaos(config)
    _say(args, report.summary())
    d = report.to_dict()
    _emit(args, config=d["config"], results={
        "arms": d["arms"],
        "healthy_e2e_ms_p99": d["healthy_e2e_ms_p99"],
        "straggler_unhedged_e2e_ms_p99": d["straggler_unhedged_e2e_ms_p99"],
    })
    # Unlike the diagnostic DPU sweep, the cluster arms carry hard
    # claims CI relies on: replicated failover stays bit-exact, an
    # unreplicated crash degrades (accurately, without raising), and
    # hedging bounds the straggler tail below the unhedged control.
    replicated = report.arm("replicated_crash")
    unreplicated = report.arm("unreplicated_crash")
    straggler = report.arm("straggler_hedged")
    ok = (
        replicated.exact
        and not replicated.raised
        and not unreplicated.raised
        and unreplicated.mean_coverage < 1.0
        and unreplicated.coverage_accurate
        and not straggler.raised
        and straggler.exact
        and straggler.e2e_ms_p99 < report.straggler_unhedged_e2e_ms_p99
    )
    if not ok:
        _say(args, "cluster chaos claims FAILED")
    return 0 if ok else 1


def _cmd_lint(args) -> int:
    from repro.analysis.findings import Severity
    from repro.analysis.runner import FAMILIES, LintOptions, run_lint

    if args.select:
        families = tuple(f.strip() for f in args.select.split(",") if f.strip())
        bad = set(families) - set(FAMILIES)
        if bad:
            _say(args, f"unknown checker families: {', '.join(sorted(bad))} "
                       f"(expected a subset of {', '.join(FAMILIES)})")
            _emit(
                args,
                config={"families": sorted(families)},
                results={"error": "unknown checker families"},
            )
            return 2
    elif args.trace:
        # --trace alone runs the trace checker standalone.
        families = ("trace",)
    else:
        families = ("resources", "costs", "ast", "concurrency")

    defaults = LintOptions()
    options = LintOptions(
        families=families,
        root=args.root,
        trace_path=args.trace,
        kernel_modules=tuple(args.kernel_module),
        grid_nlist=args.grid_nlist or defaults.grid_nlist,
        grid_m=args.grid_m or defaults.grid_m,
        grid_cb=args.grid_cb or defaults.grid_cb,
        grid_tasklets=args.grid_tasklets or defaults.grid_tasklets,
    )
    report = run_lint(options)
    sanitize_stats = None
    if args.sanitize:
        from repro.analysis.sanitizer import run_sanitize

        _say(args, "running dynamic sanitizer (instrumented pool search)...")
        san_findings, sanitize_stats = run_sanitize()
        report.extend(san_findings)
    if args.as_json:
        results = json.loads(report.to_json())
        if sanitize_stats is not None:
            results["sanitize"] = sanitize_stats
        _emit(
            args,
            config={
                "families": list(families),
                "strict": args.strict,
                "sanitize": args.sanitize,
                "root": args.root,
                "trace": args.trace,
                "kernel_modules": list(args.kernel_module),
            },
            results=results,
        )
    else:
        print(report.format_text(min_severity=Severity.parse(args.min_severity)))
    return report.exit_code(strict=args.strict)


def _cmd_sanitize(args) -> int:
    from repro.analysis.findings import Report, Severity
    from repro.analysis.sanitizer import run_sanitize

    _say(
        args,
        f"sanitizing the shared-memory data plane "
        f"({args.config}, {args.workers} workers)...",
    )
    findings, stats = run_sanitize(
        config=args.config,
        shard_workers=args.workers,
        trace_path=args.trace_out,
    )
    report = Report()
    report.extend(findings)
    if args.as_json:
        results = json.loads(report.to_json())
        results["sanitize"] = stats
        _emit(
            args,
            config={
                "config": args.config,
                "workers": args.workers,
                "strict": args.strict,
                "trace_out": args.trace_out,
            },
            results=results,
        )
    else:
        _say(
            args,
            f"recorded {stats['num_events']} arena events across "
            f"{stats['num_processes']} processes",
        )
        print(report.format_text(min_severity=Severity.parse(args.min_severity)))
    return report.exit_code(strict=args.strict)


def _cmd_bench(args) -> int:
    args.command = f"bench {args.bench_command}"
    return _cmd_bench_kernels(args)


def _cmd_bench_kernels(args) -> int:
    from repro.pim.backend.microbench import format_record, run_microbench

    _say(args, "timing the host kernels against the staged reference ...")
    record = run_microbench(repeats=args.repeats, seed=args.seed)
    if not args.as_json:
        print(format_record(record))
    if args.artifact:
        with open(args.artifact, "w") as f:
            json.dump(record, f, indent=2, sort_keys=True)
            f.write("\n")
        _say(args, f"wrote {args.artifact}")
    _emit(
        args,
        config={"repeats": args.repeats, "seed": args.seed},
        results=record,
    )
    return 0 if record["gate_ok"] else 1


_COMMANDS = {
    "info": _cmd_info,
    "index": _cmd_index,
    "search": _cmd_search,
    "model": _cmd_model,
    "tune": _cmd_tune,
    "serve": _cmd_serve,
    "bench": _cmd_bench,
    "characterize": _cmd_characterize,
    "frontier": _cmd_frontier,
    "chaos": _cmd_chaos,
    "lint": _cmd_lint,
    "sanitize": _cmd_sanitize,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
