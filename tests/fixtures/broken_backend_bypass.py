"""Deliberate kernel-registry bypass for the AL013 lint tests.

Calls the staged scan internal and the staged LUT build directly
instead of going through the host kernels of ``repro.pim.backend`` —
exactly the pattern the ``kernel-registry-bypass`` rule must flag
(exactly once per call site on this file). Never import this module; it exists only
to be linted.
"""

from repro.pim.kernels import run_lut_build, scan_distances, topk_rows


def sneaky_scan(luts, codes, ids, k):
    # Wrong: pins the staged reference scan on the hot path instead
    # of the fused host kernel.
    dists = scan_distances(luts, codes)
    return topk_rows(dists, ids, k)


def sneaky_luts(residuals, codebooks, square_lut):
    # Wrong: LC through the staged square-LUT path instead of the
    # host kernels' build_luts.
    luts, _cost = run_lut_build(residuals, codebooks, square_lut)
    return luts
