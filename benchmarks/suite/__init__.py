"""The repository benchmark: four workloads, two clocks, per-layer spans.

See ``README.md`` beside this file and ``BENCHMARK.json`` at the
repository root. Entry point: ``python -m benchmarks.suite``.
"""
