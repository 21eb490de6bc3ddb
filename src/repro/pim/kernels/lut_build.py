"""LC kernel: ADC lookup-table construction.

Per task the tasklet streams the (M, CB, dsub) int16 codebook from MRAM
and, for every (sub-space, entry, dim), computes
``(residual_d - codebook_d)^2`` and accumulates into the (M, CB) LUT in
WRAM. The square is either

* a 32-cycle software multiply (baseline), or
* a 1-slot WRAM load from the broadcast square LUT (§III-A
  multiplier-less conversion) — plus extra random MRAM traffic for the
  rare lookups that fall outside the resident window of a partial
  table (16-bit-operand scenario).

This kernel is where Fig. 10(a)'s 1.93x LC speedup comes from: the mul
bucket empties into the load bucket, but the added WRAM pressure and
unchanged MRAM streaming keep the gain well below the naive 32x.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.analysis.contracts import (
    KernelShape,
    ResourceContract,
    WramTerm,
    square_lut_bytes,
)
from repro.core.square_lut import SquareLut
from repro.pim.dpu import KernelCost
from repro.pim.isa import InstructionMix
from repro.pim.memory import MemoryTraffic


def _lc_mix(s: KernelShape) -> InstructionMix:
    per_task_entries = float(s.d * s.cb)  # m * cb * dsub
    mix = InstructionMix(
        add=s.g * 2 * per_task_entries,
        store=float(s.g * s.m * s.cb),
        control=float(s.g * s.m * s.cb),
    )
    if s.multiplier_less:
        mix.load = s.g * per_task_entries
    else:
        mix.mul = s.g * per_task_entries
    return mix


def _lc_traffic(s: KernelShape) -> MemoryTraffic:
    # Codebooks stream as int16: M * CB * dsub * 2 bytes per task.
    traffic = MemoryTraffic(
        sequential_read=float(s.g * s.m * s.cb * s.dsub * 2),
        transactions=float(s.g * s.m),
    )
    if s.multiplier_less:
        traffic.random_read += float(s.square_lut_misses * 4)
        traffic.transactions += float(s.square_lut_misses)
    return traffic


def _lc_wram(s: KernelShape):
    terms = [
        WramTerm("adc_lut", s.adc_lut_bytes),  # built cooperatively
        WramTerm("residual", 4 * s.d),
        WramTerm(
            "codebook_staging",
            min(s.cb * s.dsub * 2, s.dma_burst),
            per_tasklet=True,
        ),
    ]
    if s.multiplier_less:
        terms.append(WramTerm("square_lut", square_lut_bytes(8)))
    return terms


#: Closed-form resource claim checked by ``repro lint``.
CONTRACT = ResourceContract(
    kernel="LC",
    instruction_mix=_lc_mix,
    memory_traffic=_lc_traffic,
    wram_terms=_lc_wram,
    dma_transfers=lambda s: {"codebook_subtable": float(s.cb * s.dsub * 2)},
    notes="square via 32-cycle mul or square-LUT load (§III-A)",
)


def lut_build_cost(
    g: int,
    d: int,
    m: int,
    cb: int,
    codebooks_nbytes: int,
    *,
    multiplier_less: bool,
    misses: int = 0,
) -> KernelCost:
    """LC cost for ``g`` residuals against one ``(m, cb, d/m)`` codebook set.

    ``misses`` counts square-LUT lookups outside the resident window
    (always 0 for the engine's fully-resident 8-bit table). Closed form
    shared by :func:`run_lut_build` and the round's charge step, which
    charges it per shard group exactly as the per-group path would,
    although the host's compute plane builds no per-task LUT.
    """
    per_task_entries = float(d * cb)  # (m * cb * dsub)
    mix = InstructionMix(
        add=g * 2 * per_task_entries,  # subtract + accumulate
        store=float(g * m * cb),  # LUT writes to WRAM
        control=float(g * m * cb),  # entry loop bookkeeping
    )
    traffic = MemoryTraffic(
        sequential_read=float(g * codebooks_nbytes),
        transactions=float(g * m),
    )
    if multiplier_less:
        mix.load = g * per_task_entries
        # Out-of-window lookups fetch the missing entry from MRAM.
        traffic.random_read += float(misses * 4)
        traffic.transactions += float(misses)
    else:
        mix.mul = g * per_task_entries
    return KernelCost(kernel="LC", instructions=mix, traffic=traffic)


def run_lut_build(
    residuals: np.ndarray,
    codebooks: np.ndarray,
    square_lut: Optional[SquareLut] = None,
) -> Tuple[np.ndarray, KernelCost]:
    """Build integer ADC LUTs for ``g`` residuals against one codebook set.

    Parameters
    ----------
    residuals: ``(g, D)`` int32 (RC output).
    codebooks: ``(M, CB, dsub)`` int16.
    square_lut: when given, squares are computed through the table
        (functionally identical; costs differ).

    Returns
    -------
    ``(g, M, CB)`` int64 LUTs and the kernel cost.
    """
    residuals = np.asarray(residuals)
    codebooks = np.asarray(codebooks)
    if residuals.ndim != 2:
        raise ValueError(f"residuals must be 2-D, got {residuals.shape}")
    if codebooks.ndim != 3:
        raise ValueError(f"codebooks must be 3-D, got {codebooks.shape}")
    g, d = residuals.shape
    m, cb, dsub = codebooks.shape
    if m * dsub != d:
        raise ValueError(f"codebooks cover dim {m * dsub}, residuals have {d}")

    r = residuals.astype(np.int64).reshape(g, m, 1, dsub)
    diff = r - codebooks.astype(np.int64)[None]
    misses = 0
    if square_lut is not None:
        squares, misses = square_lut.square(diff)
    else:
        squares = diff * diff
    luts = squares.sum(axis=3)

    cost = lut_build_cost(
        g, d, m, cb, codebooks.nbytes,
        multiplier_less=square_lut is not None,
        misses=misses,
    )
    return luts, cost
