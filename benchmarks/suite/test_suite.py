"""Checks of the benchmark itself, on its ``--quick`` profile.

Not part of the tier-1 suite; run it explicitly (about a minute)::

    python -m pytest --noconftest benchmarks/suite/test_suite.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Quick untraced and traced runs of all four workloads, seed 0."""
    out = {}
    for trace in (0, 1):
        path = tmp_path_factory.mktemp("suite") / "record.json"
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.suite", "run", "--quick",
             "--seed", "0", "--trace", str(trace), "--out", str(path)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        out[trace] = (
            json.loads(proc.stdout.splitlines()[-1]),
            json.loads(path.read_text())["workloads"],
        )
    return out


def test_printed_metrics_match_benchmark_json(runs, spec):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line, _ = runs[trace]
        declared = {m["name"]: m["unit"] for m in spec[section]}
        for workload, result in line["workloads"].items():
            printed = result["metrics"]
            assert all(NAME.fullmatch(name) for name in printed), workload
            assert set(printed) == set(declared), workload
            for name, metric in printed.items():
                assert metric["unit"] == declared[name]


def test_no_op_fails(runs):
    for trace in (0, 1):
        line, records = runs[trace]
        assert line["correct"] and line["failed"] == 0
        for workload, record in records.items():
            assert record["attempted"] >= 1, workload
            assert record["failed"] == 0, (workload, record["failures"])


def test_tracing_changes_no_output(runs):
    plain, traced = runs[0][1], runs[1][1]
    for workload in plain:
        assert plain[workload]["digest"] == traced[workload]["digest"], workload
        assert traced[workload]["trace_restored"], workload


def test_install_restores_every_attribute():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from benchmarks.suite import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        sites = list(tracer._installed)
        assert all(vars(o)[a] is not raw for o, a, raw in sites)
        tracer.restore()
        assert sites and all(vars(o)[a] is raw for o, a, raw in sites)
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_self_times_add_up_to_the_outer_span():
    from benchmarks.suite import tracing

    ns = types.SimpleNamespace()
    ns.inner = lambda: sum(range(20000))
    ns.outer = lambda: [ns.inner() for _ in range(5)]
    tracer = tracing.Tracer()
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer")
    try:
        ns.outer()
    finally:
        tracer.restore()
    assert tracer.self_s["inner"] > 0 and tracer.self_s["outer"] > 0
    total = tracer.self_s["inner"] + tracer.self_s["outer"]
    assert total == pytest.approx(tracer.top_s, rel=1e-9)
