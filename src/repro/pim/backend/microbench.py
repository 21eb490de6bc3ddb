"""Shared scan/LUT microbenchmark for the host kernels.

Used by ``benchmarks/bench_kernels.py`` (the CI ``--smoke`` gate) and
the ``repro bench kernels`` CLI entry point. Measures the NumPy
kernels against the staged reference kernels
(:func:`repro.pim.kernels.scan_distances_stacked` and
:func:`repro.pim.kernels.run_lut_build` gathering every square from
the full square LUT) at fixed shapes, checks the outputs are
bit-identical, and reports wall-clock speedups. The product DC every
search runs (one exact ``product_scan_into`` per centroid's run of
tasks plus ``||q - c||^2``, over residents built once by ``decode`` and
``residual_terms``, as a data shard keeps them) runs at the LUT shape,
must equal the staged LUT scan and clear :data:`MIN_SCAN_SPEEDUP` over
that scan's time; the two are timed in interleaved repeats, by their
medians, so a slowdown of one shows against the other. The LUT build
(``build_luts``) must equal the staged square-LUT build and clear
:data:`MIN_LUT_SPEEDUP`, best of N. The encoder (``pq_encode``,
``add()``'s codes) runs at the add shape and must pick the staged int64
LUT's first-minimum codes; its time is recorded with no floor.

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
    decode_table,
    gather_offsets,
)
from repro.pim.kernels import run_lut_build, scan_distances_stacked
from repro.utils.rng import SeedLike, ensure_rng

#: LUT-build shape: one PIM round of the benchmark's lut-heavy cell
#: (25-query calls, nlist 128, nprobe 8): about 200 (query, shard)
#: task rows over 25 queries and 35 distinct centroids, against M=32,
#: CB=128, dsub=4 codebooks; the product DC and the staged scan run
#: every task over one block of ``points`` codes.
LUT_SHAPE = {
    "tasks": 200, "queries": 25, "centroids": 35, "m": 32, "cb": 128, "dsub": 4,
    "points": 256,
}

#: Encode shape: one ``add()`` batch of the mutate-persist cell, 200
#: residuals against M=32, CB=128, dsub=4 codebooks.
ENCODE_SHAPE = {"vectors": 200, "m": 32, "cb": 128, "dsub": 4}

#: The CI gate: the product DC at the LUT shape must beat the staged
#: LUT scan by at least this factor at bit-identical output.
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
    outright: the product DC must equal the staged scan of the staged
    LUTs, the LUT build the staged LUTs, and the encoder's codes the
    staged LUTs' argmin), the product DC clears
    :data:`MIN_SCAN_SPEEDUP` over the staged scan and the LUT build
    clears :data:`MIN_LUT_SPEEDUP`.
    """
    rng = ensure_rng(seed)
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
    got_luts = backend.build_luts(queries, centroids, qrows, crows, terms)
    off = gather_offsets(lut_codes, lh["cb"])
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

    def staged_scan() -> np.ndarray:
        return scan_distances_stacked(ref_luts[None], lut_codes[None])[0]

    # The LUTs come int32 at these ranges (every M-entry sum fits).
    bit_identical = bool(
        got_luts.dtype == np.int32
        and np.array_equal(got_luts, ref_luts)
        and np.array_equal(product_scan(), staged_scan())
        and np.array_equal(backend.pq_encode(enc_residuals, enc_terms), ref_codes)
    )
    t_luts = _best_seconds(
        lambda: backend.build_luts(queries, centroids, qrows, crows, terms),
        repeats,
    )
    t_ref_scan, t_product = _interleaved_medians(
        [staged_scan, product_scan], repeats
    )
    t_encode = _best_seconds(
        lambda: backend.pq_encode(enc_residuals, enc_terms), repeats
    )
    lut_speedup = t_ref_luts / t_luts if t_luts > 0 else 0.0
    product_speedup = t_ref_scan / t_product if t_product > 0 else 0.0
    return {
        "lut_shape": dict(lh),
        "encode_shape": dict(eh),
        "repeats": repeats,
        "min_scan_speedup": MIN_SCAN_SPEEDUP,
        "min_lut_speedup": MIN_LUT_SPEEDUP,
        "reference": {
            "scan_seconds": t_ref_scan,
            "lut_seconds": t_ref_luts,
            "encode_seconds": t_ref_encode,
        },
        "lut_seconds": t_luts,
        "lut_speedup": lut_speedup,
        "product_seconds": t_product,
        "product_speedup": product_speedup,
        "encode_seconds": t_encode,
        "bit_identical": bit_identical,
        "gate_ok": bool(
            bit_identical
            and product_speedup >= MIN_SCAN_SPEEDUP
            and lut_speedup >= MIN_LUT_SPEEDUP
        ),
    }


def format_record(record: Dict[str, Any]) -> str:
    """Human-readable table of a :func:`run_microbench` record."""
    lh = record["lut_shape"]
    eh = record["encode_shape"]
    lines = [
        (
            f"LUT build T={lh['tasks']} queries={lh['queries']} "
            f"centroids={lh['centroids']} M={lh['m']} CB={lh['cb']} "
            f"dsub={lh['dsub']}: {record['lut_seconds'] * 1e3:.2f} ms, "
            f"square-LUT reference "
            f"{record['reference']['lut_seconds'] * 1e3:.2f} ms "
            f"({record['lut_speedup']:.2f}x, gate >= "
            f"{record['min_lut_speedup']:.1f}x)"
        ),
        (
            f"  product DC over {lh['points']} points "
            f"{record['product_seconds'] * 1e3:.2f} ms, staged LUT scan "
            f"{record['reference']['scan_seconds'] * 1e3:.2f} ms "
            f"({record['product_speedup']:.2f}x, gate >= "
            f"{record['min_scan_speedup']:.1f}x; medians of interleaved "
            f"repeats)"
        ),
        (
            f"  encode n={eh['vectors']} M={eh['m']} CB={eh['cb']} "
            f"dsub={eh['dsub']}: {record['encode_seconds'] * 1e3:.2f} ms, "
            f"staged LUT argmin "
            f"{record['reference']['encode_seconds'] * 1e3:.2f} ms (no floor)"
        ),
        (
            f"  bit_identical={record['bit_identical']}: "
            f"{'OK' if record['gate_ok'] else 'FAIL'}"
        ),
    ]
    return "\n".join(lines)


__all__ = [
    "ENCODE_SHAPE",
    "LUT_SHAPE",
    "MIN_LUT_SPEEDUP",
    "MIN_SCAN_SPEEDUP",
    "format_record",
    "run_microbench",
]
