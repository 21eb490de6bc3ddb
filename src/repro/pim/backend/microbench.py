"""Shared scan/LUT microbenchmark for the host kernels.

Used by ``benchmarks/bench_kernels.py`` (the CI ``--smoke`` gate) and
the ``repro bench kernels`` CLI entry point. Measures the NumPy
kernels against the staged reference kernels
(:func:`repro.pim.kernels.scan_distances_stacked` and
:func:`repro.pim.kernels.run_lut_build` gathering every square from
the full square LUT) at fixed shapes, checks the
outputs are bit-identical, and reports best-of-N wall-clock speedups.
It also checks the kernel a search's compute plane runs, the
term-table scan (``query_terms`` rows scanned by ``scan_into``, plus
``point_terms`` and ``||q - c||^2``), against the staged LUT scan at
the LUT shape. The stacked scan's jobs are query-major and the term-table
scan is row-major (:func:`~repro.pim.backend.numpy_backend.scan_layout`).

Timing here never flows into engine results — the record is pure
observability, which is why the wall-clock reads are fine in this
module (the data plane itself stays deterministic).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict

import numpy as np

from repro.core.square_lut import SquareLut
from repro.pim.backend import resolve_backend
from repro.pim.backend.numpy_backend import (
    CodebookTerms,
    _gather_view,
    gather_offsets,
    scan_layout,
)
from repro.pim.kernels import run_lut_build, scan_distances_stacked
from repro.utils.rng import SeedLike, ensure_rng

#: The gate shape: 16 stacked shard groups of 32 LUT rows x 2000
#: points, M=16 subspaces, CB=128 — the steady-state round shape of
#: the canonical sift-like configs, large enough that gather traffic
#: (not dispatch overhead) dominates.
SCAN_SHAPE = {"jobs": 16, "g": 32, "n": 2000, "m": 16, "cb": 128}

#: LUT-build shape: one PIM round of the benchmark's lut-heavy cell
#: (25-query calls, nlist 128, nprobe 8): about 200 (query, shard)
#: task rows over 25 queries and 35 distinct centroids, against M=32,
#: CB=128, dsub=4 codebooks; the term-table scan runs every task over
#: one block of ``points`` codes.
LUT_SHAPE = {
    "tasks": 200, "queries": 25, "centroids": 35, "m": 32, "cb": 128, "dsub": 4,
    "points": 256,
}

#: The CI gate: the stacked scan must beat the staged reference by at
#: least this factor at bit-identical output.
MIN_SCAN_SPEEDUP = 3.0

#: The CI gate: the LUT build must beat the staged
#: square-LUT ``run_lut_build`` by at least this factor.
MIN_LUT_SPEEDUP = 3.0


def _best_seconds(fn: Callable[[], Any], repeats: int) -> float:
    """Best-of-N wall-clock for a timing harness.

    drimsan: allow wallclock-in-result — this module IS the stopwatch;
    nothing here flows into engine results or cycle ledgers.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_microbench(
    repeats: int = 5, seed: SeedLike = 0
) -> Dict[str, Any]:
    """Measure the host kernels; return the machine-readable record.

    The record's ``gate_ok`` is True when the kernels' output is
    bit-identical to the staged reference (a mismatch fails the gate
    outright; the term-table scan must equal the staged scan of the
    staged LUTs), the stacked scan clears :data:`MIN_SCAN_SPEEDUP` and
    the LUT build clears :data:`MIN_LUT_SPEEDUP`, and the two timed
    scans still take both gather layouts (``layouts``).
    """
    rng = ensure_rng(seed)
    sh = SCAN_SHAPE
    luts = rng.integers(
        0, 1 << 20, size=(sh["jobs"], sh["g"], sh["m"], sh["cb"])
    ).astype(np.int64)
    codes = rng.integers(
        0, sh["cb"], size=(sh["jobs"], sh["n"], sh["m"])
    ).astype(np.uint8)

    lh = LUT_SHAPE
    # The engine's operand ranges: uint8 queries and centroids,
    # codebooks clipped to +-CODEBOOK_CLIP (510). Task rows come in
    # shard-group order, so a centroid's tasks are contiguous.
    dim = lh["m"] * lh["dsub"]
    queries = rng.integers(0, 256, size=(lh["queries"], dim)).astype(np.uint8)
    centroids = rng.integers(0, 256, size=(lh["centroids"], dim)).astype(np.uint8)
    crows = np.sort(rng.integers(0, lh["centroids"], size=lh["tasks"]))
    qrows = rng.integers(0, lh["queries"], size=lh["tasks"])
    residuals = queries[qrows].astype(np.int32) - centroids[crows].astype(np.int32)
    codebooks = rng.integers(
        -510, 511, size=(lh["m"], lh["cb"], lh["dsub"])
    ).astype(np.int16)
    squares = SquareLut.for_bit_width(8, levels=3)
    lut_codes = rng.integers(0, lh["cb"], size=(lh["points"], lh["m"]))

    ref_scan = scan_distances_stacked(luts, codes)
    t_ref_scan = _best_seconds(
        lambda: scan_distances_stacked(luts, codes), repeats
    )
    ref_luts, _ = run_lut_build(residuals, codebooks, squares)
    t_ref_luts = _best_seconds(
        lambda: run_lut_build(residuals, codebooks, squares), repeats
    )

    backend = resolve_backend()
    terms = CodebookTerms(codebooks)
    got_scan = backend.scan_stacked(luts, codes)
    got_luts = backend.build_luts(queries, centroids, qrows, crows, terms)
    off = gather_offsets(lut_codes, lh["cb"])

    def term_scan() -> np.ndarray:
        tables = backend.query_terms(queries, terms)[qrows]
        out = np.empty((lh["tasks"], lh["points"]), dtype=np.int64)
        backend.scan_into(tables, off, out)
        pts = np.stack([backend.point_terms(c, off, terms) for c in centroids])
        res = queries[qrows].astype(np.int64) - centroids[crows]
        out += pts[crows] + np.einsum("td,td->t", res, res)[:, None]
        return out

    ref_terms = scan_distances_stacked(ref_luts[None], lut_codes[None])[0]
    # The LUTs come in the scans' gather dtype, int32 at these ranges.
    bit_identical = bool(
        got_scan.dtype == ref_scan.dtype
        and np.array_equal(got_scan, ref_scan)
        and got_luts.dtype == np.int32
        and np.array_equal(got_luts, ref_luts)
        and np.array_equal(term_scan(), ref_terms)
    )
    layouts = {
        "scan": scan_layout(*luts.shape[1:], sh["n"], _gather_view(luts).itemsize),
        "term_scan": scan_layout(
            lh["tasks"], lh["m"], lh["cb"], lh["points"],
            backend.query_terms(queries, terms).itemsize,
        ),
    }
    t_scan = _best_seconds(lambda: backend.scan_stacked(luts, codes), repeats)
    t_luts = _best_seconds(
        lambda: backend.build_luts(queries, centroids, qrows, crows, terms),
        repeats,
    )
    t_terms = _best_seconds(term_scan, repeats)
    scan_speedup = t_ref_scan / t_scan if t_scan > 0 else 0.0
    lut_speedup = t_ref_luts / t_luts if t_luts > 0 else 0.0
    return {
        "scan_shape": dict(sh),
        "lut_shape": dict(lh),
        "repeats": repeats,
        "min_scan_speedup": MIN_SCAN_SPEEDUP,
        "min_lut_speedup": MIN_LUT_SPEEDUP,
        "reference": {
            "scan_seconds": t_ref_scan,
            "lut_seconds": t_ref_luts,
        },
        "scan_seconds": t_scan,
        "scan_speedup": scan_speedup,
        "lut_seconds": t_luts,
        "lut_speedup": lut_speedup,
        "term_scan_seconds": t_terms,
        "bit_identical": bit_identical,
        "layouts": layouts,
        "gate_ok": bool(
            bit_identical
            and set(layouts.values()) == {"query-major", "row-major"}
            and scan_speedup >= MIN_SCAN_SPEEDUP
            and lut_speedup >= MIN_LUT_SPEEDUP
        ),
    }


def format_record(record: Dict[str, Any]) -> str:
    """Human-readable table of a :func:`run_microbench` record."""
    sh = record["scan_shape"]
    lh = record["lut_shape"]
    lines = [
        (
            f"stacked scan J={sh['jobs']} g={sh['g']} n={sh['n']} "
            f"M={sh['m']} CB={sh['cb']} ({record['layouts']['scan']}); reference "
            f"{record['reference']['scan_seconds'] * 1e3:.1f} ms"
        ),
        (
            f"LUT build T={lh['tasks']} queries={lh['queries']} "
            f"centroids={lh['centroids']} M={lh['m']} CB={lh['cb']} "
            f"dsub={lh['dsub']}; square-LUT reference "
            f"{record['reference']['lut_seconds'] * 1e3:.2f} ms; term-table "
            f"scan over {lh['points']} points "
            f"({record['layouts']['term_scan']}) "
            f"{record['term_scan_seconds'] * 1e3:.2f} ms"
        ),
        (
            f"  kernels  scan {record['scan_seconds'] * 1e3:7.1f} ms "
            f"({record['scan_speedup']:.2f}x, gate >= "
            f"{record['min_scan_speedup']:.1f}x)  lut "
            f"{record['lut_seconds'] * 1e3:6.2f} ms "
            f"({record['lut_speedup']:.2f}x, gate >= "
            f"{record['min_lut_speedup']:.1f}x)  "
            f"bit_identical={record['bit_identical']}: "
            f"{'OK' if record['gate_ok'] else 'FAIL'}"
        ),
    ]
    return "\n".join(lines)


__all__ = [
    "LUT_SHAPE",
    "MIN_LUT_SPEEDUP",
    "MIN_SCAN_SPEEDUP",
    "SCAN_SHAPE",
    "format_record",
    "run_microbench",
]
