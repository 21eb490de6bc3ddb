"""Shared scan/LUT microbenchmark for the host kernels.

Used by ``benchmarks/bench_kernels.py`` (the CI ``--smoke`` gate) and
the ``repro bench kernels`` CLI entry point. Measures the NumPy
kernels against the staged reference kernels
(:func:`repro.pim.kernels.scan_distances_stacked` and
:func:`repro.pim.kernels.run_lut_build` gathering every square from
the full square LUT) at fixed shapes, checks the
outputs are bit-identical, and reports best-of-N wall-clock speedups.
The stacked scan takes the jobs' gather view, then each job's
:func:`~repro.pim.backend.numpy_backend.gather_offsets` and one
``scan_into``. It also checks the term-table scan a search's compute
plane ran before its product DC (``query_terms`` rows scanned by
``scan_into``, plus ``point_terms`` and ``||q - c||^2``) against the
staged LUT scan at the LUT shape. The stacked scan's jobs are
query-major and the term-table scan is row-major
(:func:`~repro.pim.backend.numpy_backend.scan_layout`). The product DC
a search's compute plane runs (one exact ``product_scan_into`` per
centroid's run of tasks plus ``||q - c||^2``, over residents built
once by ``decode`` and ``residual_terms``, as a data shard keeps them)
runs at the LUT shape too, must equal the staged LUT scan and clear
:data:`MIN_SCAN_SPEEDUP` over that scan's time; the staged scan, the
term-table scan (whose timing includes its per-centroid point terms)
and the product are timed in interleaved repeats, by their medians,
so a slowdown of one shows against the others. The encoder
(``pq_encode``, ``add()``'s codes) runs at the add shape and must pick
the staged int64 LUT's first-minimum codes; its time is recorded with
no floor.

Timing here never flows into engine results — the record is pure
observability, which is why the wall-clock reads are fine in this
module (the data plane itself stays deterministic).
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from repro.core.square_lut import SquareLut
from repro.pim.backend import resolve_backend
from repro.pim.backend.numpy_backend import (
    CodebookTerms,
    _gather_view,
    decode_table,
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

#: Encode shape: one ``add()`` batch of the mutate-persist cell, 200
#: residuals against M=32, CB=128, dsub=4 codebooks.
ENCODE_SHAPE = {"vectors": 200, "m": 32, "cb": 128, "dsub": 4}

#: The CI gate: the stacked scan, and the product DC at the LUT shape,
#: must each beat their staged reference by at least this factor at
#: bit-identical output.
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


def _interleaved_medians(
    fns: Sequence[Callable[[], Any]], repeats: int
) -> List[float]:
    """Median wall-clock of each function, timed in interleaved rounds
    (one call of each per round), so machine drift hits all alike.

    drimsan: allow wallclock-in-result — this module IS the stopwatch;
    nothing here flows into engine results or cycle ledgers.
    """
    times: List[List[float]] = [[] for _ in fns]
    for _ in range(max(1, repeats)):
        for fn, spent in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            spent.append(time.perf_counter() - t0)
    return [statistics.median(spent) for spent in times]


def run_microbench(
    repeats: int = 5, seed: SeedLike = 0
) -> Dict[str, Any]:
    """Measure the host kernels; return the machine-readable record.

    The record's ``gate_ok`` is True when the kernels' output is
    bit-identical to the staged reference (a mismatch fails the gate
    outright; the term-table scan and the product DC must equal the
    staged scan of the staged LUTs, and the encoder's codes the staged
    LUTs' argmin), the stacked scan and the product DC clear
    :data:`MIN_SCAN_SPEEDUP` over their staged scans, the LUT build
    clears :data:`MIN_LUT_SPEEDUP`, and the two timed gather scans
    still take both gather layouts (``layouts``).
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

    eh = ENCODE_SHAPE
    enc_books = rng.integers(
        -510, 511, size=(eh["m"], eh["cb"], eh["dsub"])
    ).astype(np.int16)
    enc_residuals = rng.integers(
        -255, 256, size=(eh["vectors"], eh["m"] * eh["dsub"])
    ).astype(np.int16)

    ref_scan = scan_distances_stacked(luts, codes)
    t_ref_scan = _best_seconds(
        lambda: scan_distances_stacked(luts, codes), repeats
    )
    ref_luts, _ = run_lut_build(residuals, codebooks, squares)
    t_ref_luts = _best_seconds(
        lambda: run_lut_build(residuals, codebooks, squares), repeats
    )

    ref_codes = run_lut_build(enc_residuals, enc_books, squares)[0].argmin(axis=2)
    t_ref_encode = _best_seconds(
        lambda: run_lut_build(enc_residuals, enc_books, squares)[0].argmin(axis=2),
        repeats,
    )

    backend = resolve_backend()
    terms = CodebookTerms(codebooks)
    enc_terms = CodebookTerms(enc_books)

    def stacked_scan() -> np.ndarray:
        gather = _gather_view(luts)
        out = np.empty((sh["jobs"], sh["g"], sh["n"]), dtype=np.int64)
        for j in range(sh["jobs"]):
            backend.scan_into(gather[j], gather_offsets(codes[j], sh["cb"]), out[j])
        return out

    got_scan = stacked_scan()
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

    table = decode_table(terms, 255)  # uint8 queries
    # Each centroid's run of tasks is one product job.
    runs = np.append(np.flatnonzero(np.diff(crows, prepend=-1)), lh["tasks"])

    # The product's residents, built once as a data shard keeps them:
    # the points' decoded residuals and their terms under each centroid.
    decoded = backend.decode(off, table)
    pts = backend.residual_terms(
        centroids,
        np.repeat(np.arange(lh["centroids"]), lh["points"]),
        np.tile(off, lh["centroids"]),
        np.tile(decoded, (lh["centroids"], 1)),
        terms,
    ).reshape(lh["centroids"], lh["points"])

    def product_scan() -> np.ndarray:
        x = queries.astype(table.dtype)[qrows]
        out = np.empty((lh["tasks"], lh["points"]), dtype=np.int64)
        for a, b in zip(runs[:-1].tolist(), runs[1:].tolist()):
            backend.product_scan_into(x[a:b], decoded, pts[crows[a]], out[a:b])
        res = queries[qrows].astype(np.int64) - centroids[crows]
        out += np.einsum("td,td->t", res, res)[:, None]
        return out

    def staged_term_scan() -> np.ndarray:
        return scan_distances_stacked(ref_luts[None], lut_codes[None])[0]

    ref_terms = staged_term_scan()
    # The LUTs come in the scans' gather dtype, int32 at these ranges.
    bit_identical = bool(
        got_scan.dtype == ref_scan.dtype
        and np.array_equal(got_scan, ref_scan)
        and got_luts.dtype == np.int32
        and np.array_equal(got_luts, ref_luts)
        and np.array_equal(term_scan(), ref_terms)
        and np.array_equal(product_scan(), ref_terms)
        and np.array_equal(backend.pq_encode(enc_residuals, enc_terms), ref_codes)
    )
    layouts = {
        "scan": scan_layout(*luts.shape[1:], sh["n"], _gather_view(luts).itemsize),
        "term_scan": scan_layout(
            lh["tasks"], lh["m"], lh["cb"], lh["points"],
            backend.query_terms(queries, terms).itemsize,
        ),
    }
    t_scan = _best_seconds(stacked_scan, repeats)
    t_luts = _best_seconds(
        lambda: backend.build_luts(queries, centroids, qrows, crows, terms),
        repeats,
    )
    t_ref_terms, t_terms, t_product = _interleaved_medians(
        [staged_term_scan, term_scan, product_scan], repeats
    )
    t_encode = _best_seconds(
        lambda: backend.pq_encode(enc_residuals, enc_terms), repeats
    )
    scan_speedup = t_ref_scan / t_scan if t_scan > 0 else 0.0
    lut_speedup = t_ref_luts / t_luts if t_luts > 0 else 0.0
    product_speedup = t_ref_terms / t_product if t_product > 0 else 0.0
    return {
        "scan_shape": dict(sh),
        "lut_shape": dict(lh),
        "encode_shape": dict(eh),
        "repeats": repeats,
        "min_scan_speedup": MIN_SCAN_SPEEDUP,
        "min_lut_speedup": MIN_LUT_SPEEDUP,
        "reference": {
            "scan_seconds": t_ref_scan,
            "lut_seconds": t_ref_luts,
            "encode_seconds": t_ref_encode,
            "term_scan_seconds": t_ref_terms,
        },
        "scan_seconds": t_scan,
        "scan_speedup": scan_speedup,
        "lut_seconds": t_luts,
        "lut_speedup": lut_speedup,
        "term_scan_seconds": t_terms,
        "product_seconds": t_product,
        "product_speedup": product_speedup,
        "encode_seconds": t_encode,
        "bit_identical": bit_identical,
        "layouts": layouts,
        "gate_ok": bool(
            bit_identical
            and set(layouts.values()) == {"query-major", "row-major"}
            and scan_speedup >= MIN_SCAN_SPEEDUP
            and product_speedup >= MIN_SCAN_SPEEDUP
            and lut_speedup >= MIN_LUT_SPEEDUP
        ),
    }


def format_record(record: Dict[str, Any]) -> str:
    """Human-readable table of a :func:`run_microbench` record."""
    sh = record["scan_shape"]
    lh = record["lut_shape"]
    eh = record["encode_shape"]
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
            f"  product DC over {lh['points']} points "
            f"{record['product_seconds'] * 1e3:.2f} ms, staged term scan "
            f"{record['reference']['term_scan_seconds'] * 1e3:.2f} ms "
            f"({record['product_speedup']:.2f}x, gate >= "
            f"{record['min_scan_speedup']:.1f}x; medians of interleaved "
            f"repeats)"
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
        (
            f"  encode n={eh['vectors']} M={eh['m']} CB={eh['cb']} "
            f"dsub={eh['dsub']}: {record['encode_seconds'] * 1e3:.2f} ms, "
            f"staged LUT argmin "
            f"{record['reference']['encode_seconds'] * 1e3:.2f} ms (no floor)"
        ),
    ]
    return "\n".join(lines)


__all__ = [
    "ENCODE_SHAPE",
    "LUT_SHAPE",
    "MIN_LUT_SPEEDUP",
    "MIN_SCAN_SPEEDUP",
    "SCAN_SHAPE",
    "format_record",
    "run_microbench",
]
