"""Command line of the repository benchmark (see README.md).

    python -m benchmarks.suite run --seed S [--workload W] [--seconds N]
                                   [--trace [0|1]] [--quick] [--out FILE]
    python -m benchmarks.suite stability [--sets 2] [--runs 3] [--records DIR]

``run`` starts one child process per workload (``worker.py``), attaches
the units ``BENCHMARK.json`` declares and prints one JSON result as the
last line of stdout. This process never imports NumPy or ``repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
WORKLOADS = ("lut-heavy", "scan-heavy", "rack-frontend", "mutate-persist")
#: A child running longer is killed: a run must end within 180 s.
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def git_state() -> dict:
    """Commit and dirty flag, or ``None`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}

    def git(*args: str) -> Optional[str]:
        try:
            out = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def run_child(
    workload: str, seed: int, seconds: float, trace: bool, quick: bool
) -> dict:
    """Run one workload in its own process and return its record."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"nothing to benchmark: {src / 'repro'} is missing")
    work = SUITE / ".work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work))
    result = tmp / "result.json"
    cmd = [
        sys.executable, "-m", "benchmarks.suite.worker",
        "--workload", workload, "--seed", str(seed), "--workdir", str(tmp),
        "--seconds", str(seconds), "--trace", str(int(trace)),
        "--result", str(result),
    ] + (["--quick"] if quick else [])
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=2,  # stdout carries only this process's result
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"{workload}: worker exited {proc.returncode}")
        with open(result) as f:
            record = json.load(f)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result in {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not record["trace_restored"]:
        raise BenchError(f"{workload}: a traced attribute was not restored")
    return record


def result_line(record: dict, spec: dict) -> dict:
    """The printed result object of one workload's record."""
    section = "per_layer" if record["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    metrics = record["metrics"]
    correct = record["failed"] == 0
    if correct and set(metrics) != set(units):
        raise BenchError(
            f"{record['workload']}: metrics differ from BENCHMARK.json "
            f"{section}: {sorted(set(metrics) ^ set(units))}"
        )
    return {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in sorted(metrics)
        },
    }


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = {
        name: run_child(name, args.seed, seconds, bool(args.trace), args.quick)
        for name in names
    }
    lines = {name: result_line(rec, spec) for name, rec in records.items()}
    for name, line in lines.items():
        print(f"{name}: attempted={line['attempted']} failed={line['failed']}")
        for metric, v in line["metrics"].items():
            print(f"  {metric:36s} {v['value']:14.6g} {v['unit']}")
        for failure in records[name]["failures"]:
            print(f"  FAILED: {failure}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(
                {"env": git_state(), "seconds": seconds, "workloads": records},
                f, indent=1, sort_keys=True,
            )
    if len(lines) == 1:
        line = lines[names[0]]
    else:
        line = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "workloads": lines,
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def relative_iqr(values: List[float]) -> Optional[float]:
    """Quartile distance as a share of the median (None below 2 runs)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cmd_stability(args: argparse.Namespace) -> int:
    """Sets of runs over the same seeds; their medians must agree."""
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out_dir = Path(args.records)
    out_dir.mkdir(parents=True, exist_ok=True)
    values: Dict[tuple, List[List[float]]] = {}
    for s in range(args.sets):
        runs = []
        for seed in range(args.runs):
            for name in WORKLOADS:
                rec = run_child(name, seed, seconds, False, False)
                if rec["failed"]:
                    raise BenchError(f"{name} seed {seed}: {rec['failures']}")
                runs.append(rec)
                for metric, v in rec["metrics"].items():
                    per_set = values.setdefault(
                        (name, metric), [[] for _ in range(args.sets)]
                    )
                    per_set[s].append(v)
                print(f"set {s + 1} seed {seed} {name}: done", file=sys.stderr)
        with open(out_dir / f"set-{s + 1}.json", "w") as f:
            json.dump(
                {"env": git_state(), "seconds": seconds, "runs": runs},
                f, indent=1, sort_keys=True,
            )
    rows = []
    for (name, metric), per_set in values.items():
        medians = [statistics.median(v) for v in per_set]
        iqrs = [relative_iqr(v) for v in per_set]
        between = max(abs(m - medians[0]) for m in medians) / medians[0]
        bound = bounds[metric]
        worst_iqr = max((q for q in iqrs if q is not None), default=0.0)
        ok = between <= bound and (metric == "setup_s" or worst_iqr <= bound)
        rows.append(
            {
                "workload": name, "metric": metric, "bound": bound,
                "set_medians": medians, "set_iqr_frac": iqrs,
                "between_sets_frac": between, "ok": ok,
            }
        )
        print(
            f"{'ok ' if ok else 'BAD'} {name:15s} {metric:14s} "
            + " ".join(f"{m:12.6g}" for m in medians)
            + f"  between={between:.4f} iqr={worst_iqr:.4f} bound={bound}"
        )
    with open(out_dir / "stability.json", "w") as f:
        json.dump(
            {"sets": args.sets, "runs": args.runs, "rows": rows},
            f, indent=1, sort_keys=True,
        )
    return 0 if all(r["ok"] for r in rows) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m benchmarks.suite")
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run workloads, print one JSON result")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--workload", choices=WORKLOADS)
    run.add_argument("--seconds", type=float, help="default: BENCHMARK.json")
    run.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="per-layer metrics from a traced run instead of end-to-end",
    )
    run.add_argument(
        "--quick", action="store_true",
        help="one set-up and at most 10 ops per workload (for tests)",
    )
    run.add_argument("--out", help="write the full record here")
    stab = sub.add_parser("stability", help="repeat runs, compare medians")
    stab.add_argument("--sets", type=int, default=2)
    stab.add_argument("--runs", type=int, default=3)
    stab.add_argument("--records", default=str(SUITE / "records"))
    args = ap.parse_args(argv)
    try:
        return cmd_run(args) if args.cmd == "run" else cmd_stability(args)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
