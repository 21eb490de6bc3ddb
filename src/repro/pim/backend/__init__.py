"""The host kernel module for the hot path: one NumPy implementation.

The ADC distance scan (DC) and LUT construction (LC) dominate the
host's functional wall-clock exactly as Fig. 8 of the paper predicts.
:class:`~repro.pim.backend.numpy_backend.NumpyBackend` holds the fused
NumPy kernels every call site runs. DC has one host kernel: one exact
BLAS product per job (``product_scan_into``) over residuals decoded
once per data shard (``decode``, with the point terms of
``residual_terms``), in the smallest dtype that is exact for it
(:func:`~repro.pim.backend.numpy_backend.product_dtype`), whether the
job runs in process or in the worker pool: the paper's LUT lookups
stand in for a multiplier a DPU lacks, and the host has one. The
batched integer LUT build (``build_luts``) is LC's kernel; no search
path calls it, and the kernel microbenchmark times it. The per-task
top-k (TS) is the one canonical ``(distance, id)`` selection rule,
:func:`repro.pim.kernels.select_topk` (per job:
:func:`~repro.pim.kernels.topk_rows`), applied to the product's output.

**Bit-identical by construction.** The ADC pipeline is integer end to
end, int64 sums are order-independent and every float product is taken
where it holds each partial sum exactly, so the kernels produce
byte-equal distances and LUTs to the staged reference in
:mod:`repro.pim.kernels`. The modeled PIM cost is charged separately
from closed forms over shapes
(:func:`repro.pim.kernels.distance_scan_cost` et al.), so the host
kernels move host wall-clock only — never a cycle ledger.

:func:`resolve_backend` returns the one process-wide instance. It
holds no state: each call takes the codebooks' derived operands
(:class:`~repro.pim.backend.numpy_backend.CodebookTerms`) from their
owner.
"""

from __future__ import annotations

from repro.pim.backend.numpy_backend import NumpyBackend

_BACKEND = NumpyBackend()


def resolve_backend(mode: str = "auto") -> NumpyBackend:
    """The process-wide kernel instance.

    ``mode`` accepts ``"auto"`` and ``"numpy"``, which name the same
    implementation; anything else raises :class:`ValueError`.
    """
    if mode not in ("auto", "numpy"):
        raise ValueError(
            f"kernel backend mode must be 'auto' or 'numpy', got {mode!r}"
        )
    return _BACKEND


__all__ = ["NumpyBackend", "resolve_backend"]
