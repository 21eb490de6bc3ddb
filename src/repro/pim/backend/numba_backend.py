"""Optional compiled kernel backend (``pip install repro[compiled]``).

``@njit(cache=True, parallel=True)`` builds of the three hot kernels:
the fused gather-accumulate scan (serial per job, ``prange`` across
LUT rows / stacked jobs), and the batched integer LUT build. All
arithmetic is int64, so the results are bit-identical to the NumPy
backend — the registry's guard enforces the degradation path when a
JIT compile or execution fails mid-flight.

The numba import happens inside :func:`_import_numba` only: a bare
install never triggers (or fails on) it, and tests monkeypatch this
single seam to simulate an absent numba. JIT compilation is paid in
:meth:`NumbaBackend.warmup` — called from pool-worker warmup before
the first real round — not on the first query.
"""

from __future__ import annotations

import numpy as np

from repro.pim.backend import KernelBackend


def _import_numba():
    """The single numba import seam (monkeypatched by fallback tests)."""
    import numba

    return numba


def _build_kernels(numba):
    """Compile the jitted kernels once per process (lazily)."""
    njit = numba.njit
    prange = numba.prange

    @njit(cache=True, parallel=True)
    def k_scan(luts, codes):
        g, m, _cb = luts.shape
        n = codes.shape[0]
        out = np.empty((g, n), dtype=np.int64)
        for gi in prange(g):
            for i in range(n):
                acc = np.int64(0)
                for mi in range(m):
                    acc += luts[gi, mi, codes[i, mi]]
                out[gi, i] = acc
        return out

    @njit(cache=True, parallel=True)
    def k_scan_stacked(luts, codes):
        num_jobs, g, m, _cb = luts.shape
        n = codes.shape[1]
        out = np.empty((num_jobs, g, n), dtype=np.int64)
        for j in prange(num_jobs):
            for gi in range(g):
                for i in range(n):
                    acc = np.int64(0)
                    for mi in range(m):
                        acc += luts[j, gi, mi, codes[j, i, mi]]
                    out[j, gi, i] = acc
        return out

    @njit(cache=True, parallel=True)
    def k_build_luts(residuals, codebooks):
        m, cb, dsub = codebooks.shape
        g = residuals.shape[0]
        out = np.empty((g, m, cb), dtype=np.int64)
        for gi in prange(g):
            for mi in range(m):
                base = mi * dsub
                for ci in range(cb):
                    acc = np.int64(0)
                    for di in range(dsub):
                        d = residuals[gi, base + di] - codebooks[mi, ci, di]
                        acc += d * d
                    out[gi, mi, ci] = acc
        return out

    return k_scan, k_scan_stacked, k_build_luts


class NumbaBackend(KernelBackend):
    """Compiled implementation; resolve through the registry, which
    wraps it in the degrade-on-failure guard."""

    name = "numba"
    compiled = True

    def __init__(self) -> None:
        self._kernels = None

    def available(self) -> bool:
        try:
            _import_numba()
        except Exception:
            return False
        return True

    def _ensure(self):
        if self._kernels is None:
            self._kernels = _build_kernels(_import_numba())
        return self._kernels

    def warmup(self) -> None:
        """Trigger JIT compilation on tiny inputs (pool warmup path)."""
        k_scan, k_scan_stacked, k_build_luts = self._ensure()
        luts = np.zeros((1, 2, 4), dtype=np.int64)
        codes = np.zeros((3, 2), dtype=np.int64)
        k_scan(luts, codes)
        k_scan_stacked(luts[None], codes[None])
        residuals = np.zeros((1, 4), dtype=np.int64)
        k_build_luts(residuals, np.zeros((2, 4, 2), dtype=np.int64))
        # The engine's int16 tables, writable and memory-mapped (read-only).
        books16 = np.zeros((2, 4, 2), dtype=np.int16)
        k_build_luts(residuals, books16)
        books16.flags.writeable = False
        k_build_luts(residuals, books16)

    def scan(self, luts: np.ndarray, codes: np.ndarray) -> np.ndarray:
        k_scan, _, _ = self._ensure()
        luts = np.ascontiguousarray(luts, dtype=np.int64)
        if luts.ndim != 3:
            raise ValueError(f"luts must be (g, M, CB), got {luts.shape}")
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        if codes.ndim != 2 or codes.shape[1] != luts.shape[1]:
            raise ValueError(
                f"codes must be (n, {luts.shape[1]}), got {codes.shape}"
            )
        return k_scan(luts, codes)

    def scan_stacked(self, luts: np.ndarray, codes: np.ndarray) -> np.ndarray:
        _, k_scan_stacked, _ = self._ensure()
        luts = np.ascontiguousarray(luts, dtype=np.int64)
        if luts.ndim != 4:
            raise ValueError(f"luts must be (J, g, M, CB), got {luts.shape}")
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        if (
            codes.ndim != 3
            or codes.shape[0] != luts.shape[0]
            or codes.shape[2] != luts.shape[2]
        ):
            raise ValueError(
                f"codes must be ({luts.shape[0]}, n, {luts.shape[2]}), "
                f"got {codes.shape}"
            )
        return k_scan_stacked(luts, codes)

    def build_luts(
        self, residuals: np.ndarray, codebooks: np.ndarray
    ) -> np.ndarray:
        _, _, k_build_luts = self._ensure()
        codebooks = np.asarray(codebooks)
        # int16 tables (the engine's) go in uncast: the kernel widens
        # each entry to int64 in the subtraction, so the values match.
        # Any other dtype is cast per call.
        codebooks = np.ascontiguousarray(
            codebooks, dtype=np.int16 if codebooks.dtype == np.int16 else np.int64
        )
        if codebooks.ndim != 3:
            raise ValueError(
                f"codebooks must be (M, CB, dsub), got {codebooks.shape}"
            )
        m, _cb, dsub = codebooks.shape
        residuals = np.ascontiguousarray(residuals, dtype=np.int64)
        if residuals.ndim != 2 or residuals.shape[1] != m * dsub:
            raise ValueError(
                f"residuals must be (g, {m * dsub}), got {residuals.shape}"
            )
        return k_build_luts(residuals, codebooks)
