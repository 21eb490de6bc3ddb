"""Extension — fused host kernels vs the staged path.

The staged reference kernels (``repro.pim.kernels.distance_scan``)
materialize a per-subspace gather before reducing; the host kernels
(``repro.pim.backend``, one NumPy module) replace the hot path with
fused gather-then-reduce implementations that return bit-identical
int64 distances and LUT values while changing only host wall-clock (cycle
ledgers are charged from closed forms and cannot move).

Run with ``--smoke`` as the CI kernel gate: the kernels must be
bit-identical to the staged reference (LUTs against ``run_lut_build``
through the full square LUT), the stacked scan must clear
``MIN_SCAN_SPEEDUP`` (3x), and the LUT build must clear
``MIN_LUT_SPEEDUP`` (3x) over the staged square-LUT path at the
lut-heavy round shape (200 task rows over 25 queries and 35 centroids,
M 32, CB 128, dsub 4, one pair-form ``build_luts`` call). At that
shape the search's product DC (one exact BLAS product per centroid's
run of tasks over residents built once) must equal the staged LUT scan
and clear ``MIN_SCAN_SPEEDUP`` (3x) over its median time; it, the staged
scan and the term-table scan are timed in interleaved repeats and
recorded by their medians. The encoder
runs at the add shape (200 residuals, M 32, CB 128, dsub 4): its codes
must equal the staged int64 LUT's first-minimum argmin, and its time is
recorded with no floor. Writes a machine-readable
``BENCH_kernels.json`` artifact.
"""


def run_smoke(repeats: int = 5, seed: int = 0) -> dict:
    """CI gate: bit-identical kernels, stacked scan and product DC
    >= 3x their staged scans, LUT build >= 3x the staged square-LUT
    path."""
    from repro.pim.backend.microbench import format_record, run_microbench

    record = run_microbench(repeats=repeats, seed=seed)
    record["gate"] = "kernel_speedup_at_bit_equality"
    print(format_record(record))
    record["ok"] = record["gate_ok"]
    return record


def main(argv=None) -> int:
    import argparse

    from benchmarks.common import write_bench_artifact

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI kernel gate: kernels bit-identical to the staged "
        "reference; stacked scan and product DC >= 3x their staged "
        "scans, LUT build >= 3x the square-LUT path",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--artifact",
        default="BENCH_kernels.json",
        help="where the machine-readable smoke record is written",
    )
    args = parser.parse_args(argv)
    record = run_smoke(repeats=args.repeats, seed=args.seed)
    if args.smoke:
        write_bench_artifact(
            args.artifact, {"bench": "kernels_smoke", "gates": [record]}
        )
    print("OK" if record["ok"] else "FAIL")
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
