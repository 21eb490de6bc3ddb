"""Pluggable kernel backends for the host-side hot path (ISSUE 10).

The ADC distance scan (DC) and LUT construction (LC) dominate the
host's functional wall-clock exactly as Fig. 8 of the paper predicts.
This package puts their implementations behind a small dispatch
registry so the engine can swap a fused / compiled build in and out
without touching any call site:

* :class:`KernelBackend` — the three-op interface: the
  gather-then-reduce scan (:meth:`~KernelBackend.scan` /
  :meth:`~KernelBackend.scan_stacked`), the batched integer LUT build
  (:meth:`~KernelBackend.build_luts`), and the fused scan+local-top-k
  (:meth:`~KernelBackend.scan_topk`) that never materializes the full
  ``(g, n)`` distance matrix for clusters beyond
  :data:`SCAN_TOPK_N_CHUNK` points.
* ``numpy`` — the guaranteed backend (:mod:`.numpy_backend`): pure
  NumPy, one flat-offset gather and int64 reduction per row slab, no
  dependencies beyond the base install. Always available.
* ``numba`` — the optional compiled backend (:mod:`.numba_backend`):
  ``@njit(cache=True)`` kernels, parallel over jobs. Import-gated; when
  numba is missing the registry silently resolves to ``numpy`` and
  records a fallback event.

**Bit-identical by construction.** The ADC pipeline is integer end to
end and int64 sums are order-independent, so every backend produces
byte-equal distances, LUTs, and top-k rows. The modeled PIM cost is
charged separately from closed forms over shapes
(:func:`repro.pim.kernels.distance_scan_cost` et al.), so swapping
backends changes host wall-clock only — never a cycle ledger.

Selection has one home, ``PimSystemConfig.kernel_backend``: the PIM
system resolves it (see :func:`resolve_backend`) for every round and
starts its pool workers with the same mode; ``auto`` means numba when
importable, else numpy. A compiled backend is
always wrapped in a guard that degrades to numpy on the first kernel
failure (JIT error mid-flight), records the reason for the
``drimann_kernel_fallbacks_total`` metric, and keeps results unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Valid backend selection modes. ``auto`` resolves to the best
#: available implementation; the named modes request one specifically
#: (``numba`` degrades to ``numpy`` with a recorded fallback when the
#: import is unavailable). Mirrored by ``PimSystemConfig.kernel_backend``
#: validation.
KERNEL_BACKEND_MODES = ("auto", "numpy", "numba")

#: Cluster size above which :meth:`KernelBackend.scan_topk` switches
#: from the exact ``topk_rows``-over-the-full-matrix path to the
#: chunked scan+merge that never materializes ``(g, n)``. Every
#: backend and every execution path uses this same threshold, which is
#: what keeps the data plane bit-exact: below it all paths call the
#: identical selection kernel; at or above it all paths use the
#: identical canonical ``(distance, position)`` merge.
SCAN_TOPK_N_CHUNK = 1 << 16


class KernelBackend:
    """Interface of one kernel implementation (see module docstring).

    Subclasses implement the raw array math only. No cost accounting —
    callers charge the modeled PIM cycles separately from closed forms,
    which is the invariant that keeps ledgers backend-independent.
    """

    #: Registry name ("numpy", "numba", ...).
    name = "abstract"
    #: True for JIT/compiled implementations; lets the planner treat
    #: the in-process path as faster than plain vectorized NumPy.
    compiled = False

    def available(self) -> bool:
        """Whether this backend can run in the current process."""
        return True

    def warmup(self) -> None:
        """Pay one-time costs (JIT compilation) ahead of real queries."""

    # ----- the three hot kernels -----------------------------------------
    def scan(self, luts: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """ADC scan: ``(g, M, CB)`` LUTs x ``(n, M)`` codes -> ``(g, n)``
        int64 distances, with no intermediate beyond a bounded
        ``(rows, M, n)`` gather slab."""
        raise NotImplementedError

    def scan_stacked(self, luts: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Stacked scan: ``(J, g, M, CB)`` x ``(J, n, M)`` ->
        ``(J, g, n)`` without a ``(J, g, n, M)`` intermediate; each job
        gathers at most a bounded ``(rows, M, n)`` slab at a time."""
        raise NotImplementedError

    def build_luts(
        self, residuals: np.ndarray, codebooks: np.ndarray
    ) -> np.ndarray:
        """Batched integer LUT build: ``(g, D)`` int residuals x
        ``(M, CB, dsub)`` int codebooks -> ``(g, M, CB)`` int64."""
        raise NotImplementedError

    def gather_view(self, luts: np.ndarray) -> np.ndarray:
        """The LUTs in the dtype this backend's scans gather from best.

        Same values, so scan results are unchanged; callers convert a
        block once and slice scan jobs from it. The default is the
        LUTs as given.
        """
        return luts

    # ----- fused scan + local top-k ---------------------------------------
    def scan_topk(
        self,
        luts: np.ndarray,
        codes: np.ndarray,
        ids: np.ndarray,
        k: int,
        n_chunk: int = SCAN_TOPK_N_CHUNK,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """DC + TS for one LUT block: per-row ``(ids_k, dists_k)``.

        For clusters of at most ``n_chunk`` points this is exactly
        ``topk_rows(self.scan(luts, codes), ids, k)`` — the one
        selection kernel every execution path shares. Larger clusters
        are scanned in ``n_chunk``-point column slices and merged with
        the canonical ``(distance, position)`` rule, so the full
        ``(g, n)`` matrix is never materialized.
        """
        from repro.pim.kernels import topk_rows

        n = codes.shape[0]
        if n <= n_chunk:
            return topk_rows(self.scan(luts, codes), ids, k)
        return _scan_topk_chunked(self, luts, codes, ids, k, n_chunk)


def _scan_topk_chunked(
    backend: KernelBackend,
    luts: np.ndarray,
    codes: np.ndarray,
    ids: np.ndarray,
    k: int,
    n_chunk: int,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Column-chunked scan+top-k with the canonical merge rule.

    Candidates are ranked by ``(distance, global position)`` via a
    per-row lexsort — a deterministic total order, identical no matter
    how the columns were chunked (verified against the unchunked path
    by the property tests whenever distances are untied).
    """
    g = luts.shape[0]
    n = codes.shape[0]
    kk = min(k, n)
    # Running candidate pool per row: at most kk survivors + one
    # chunk's fresh top-kk, merged after every slice.
    pool_d: Optional[np.ndarray] = None
    pool_p: Optional[np.ndarray] = None
    for c0 in range(0, n, n_chunk):
        dists = backend.scan(luts, codes[c0 : c0 + n_chunk])
        cn = dists.shape[1]
        ck = min(kk, cn)
        part = np.argpartition(dists, ck - 1, axis=1)[:, :ck]
        cand_d = np.take_along_axis(dists, part, axis=1)
        cand_p = part.astype(np.int64) + c0
        if pool_d is None:
            pool_d, pool_p = cand_d, cand_p
        else:
            pool_d = np.concatenate([pool_d, cand_d], axis=1)
            pool_p = np.concatenate([pool_p, cand_p], axis=1)
        if pool_d.shape[1] > kk:
            keep_d = np.empty((g, kk), dtype=pool_d.dtype)
            keep_p = np.empty((g, kk), dtype=np.int64)
            for row in range(g):
                order = np.lexsort((pool_p[row], pool_d[row]))[:kk]
                keep_d[row] = pool_d[row, order]
                keep_p[row] = pool_p[row, order]
            pool_d, pool_p = keep_d, keep_p
    assert pool_d is not None and pool_p is not None
    results: List[Tuple[np.ndarray, np.ndarray]] = []
    for row in range(g):
        order = np.lexsort((pool_p[row], pool_d[row]))[:kk]
        results.append((ids[pool_p[row, order]], pool_d[row, order]))
    return results


class _GuardedBackend(KernelBackend):
    """Degrade-on-failure wrapper around a compiled backend.

    Each op tries the primary implementation once per call; the first
    exception (a JIT failure mid-flight, a typing error on an exotic
    dtype) records a fallback event and permanently delegates to the
    guaranteed numpy backend. Results are unchanged either way — both
    implementations are bit-identical by contract.
    """

    def __init__(
        self, primary: KernelBackend, fallback: KernelBackend
    ) -> None:
        self._primary = primary
        self._fallback = fallback
        self._degraded = False

    @property
    def name(self) -> str:  # type: ignore[override]
        return self._fallback.name if self._degraded else self._primary.name

    @property
    def compiled(self) -> bool:  # type: ignore[override]
        return False if self._degraded else self._primary.compiled

    def available(self) -> bool:
        return True

    def _degrade(self, op: str, exc: BaseException) -> None:
        if not self._degraded:
            self._degraded = True
            record_fallback(f"{self._primary.name}-{op}-failed")

    def warmup(self) -> None:
        if self._degraded:
            return
        try:
            self._primary.warmup()
        except Exception as exc:
            self._degrade("warmup", exc)

    def scan(self, luts: np.ndarray, codes: np.ndarray) -> np.ndarray:
        if not self._degraded:
            try:
                return self._primary.scan(luts, codes)
            except Exception as exc:
                self._degrade("scan", exc)
        return self._fallback.scan(luts, codes)

    def scan_stacked(self, luts: np.ndarray, codes: np.ndarray) -> np.ndarray:
        if not self._degraded:
            try:
                return self._primary.scan_stacked(luts, codes)
            except Exception as exc:
                self._degrade("scan_stacked", exc)
        return self._fallback.scan_stacked(luts, codes)

    def build_luts(
        self, residuals: np.ndarray, codebooks: np.ndarray
    ) -> np.ndarray:
        if not self._degraded:
            try:
                return self._primary.build_luts(residuals, codebooks)
            except Exception as exc:
                self._degrade("build_luts", exc)
        return self._fallback.build_luts(residuals, codebooks)

    def scan_topk(
        self,
        luts: np.ndarray,
        codes: np.ndarray,
        ids: np.ndarray,
        k: int,
        n_chunk: int = SCAN_TOPK_N_CHUNK,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        if not self._degraded:
            try:
                return KernelBackend.scan_topk(
                    self, luts, codes, ids, k, n_chunk
                )
            except Exception as exc:
                self._degrade("scan_topk", exc)
        return self._fallback.scan_topk(luts, codes, ids, k, n_chunk)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_FACTORIES: Dict[str, Callable[[], KernelBackend]] = {}
_INSTANCES: Dict[str, Optional[KernelBackend]] = {}
_FALLBACK_EVENTS: List[str] = []


def register_backend(
    name: str, factory: Callable[[], KernelBackend]
) -> None:
    """Register a backend factory under ``name`` (idempotent)."""
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def record_fallback(reason: str) -> None:
    """Record one backend degradation for the metrics layer."""
    _FALLBACK_EVENTS.append(reason)


def take_fallback_events() -> List[str]:
    """Drain fallback reasons recorded since the last call."""
    global _FALLBACK_EVENTS
    events, _FALLBACK_EVENTS = _FALLBACK_EVENTS, []
    return events


def _clear_instances() -> None:
    """Test hook: drop cached instances so availability is re-probed."""
    _INSTANCES.clear()


def _instance(name: str) -> Optional[KernelBackend]:
    """Cached backend instance, or None when unavailable."""
    if name in _INSTANCES:
        return _INSTANCES[name]
    factory = _FACTORIES.get(name)
    backend: Optional[KernelBackend] = None
    if factory is not None:
        try:
            candidate = factory()
            if candidate.available():
                backend = candidate
        except Exception:
            backend = None
    if backend is not None and backend.compiled:
        numpy_backend = _INSTANCES.get("numpy")
        if numpy_backend is None:
            numpy_backend = _FACTORIES["numpy"]()
            _INSTANCES["numpy"] = numpy_backend
        backend = _GuardedBackend(backend, numpy_backend)
    _INSTANCES[name] = backend
    return backend


def available_backends() -> Tuple[str, ...]:
    """Names of the backends usable in this process, numpy first."""
    return tuple(
        name for name in KERNEL_BACKEND_MODES[1:] if _instance(name) is not None
    )


def resolve_backend(mode: str = "auto") -> KernelBackend:
    """Resolve a selection mode to a live backend instance.

    ``auto`` prefers the compiled backend when importable and silently
    takes numpy otherwise (not a fallback — auto made no promise).
    Requesting ``numba`` explicitly on a numba-less install degrades to
    numpy *and* records a ``numba-unavailable`` fallback event so the
    surprise is visible in the metrics.
    """
    if mode not in KERNEL_BACKEND_MODES:
        raise ValueError(
            f"kernel_backend must be one of {KERNEL_BACKEND_MODES}, "
            f"got {mode!r}"
        )
    if mode == "auto":
        backend = _instance("numba")
        if backend is not None:
            return backend
        mode = "numpy"
    if mode == "numba":
        backend = _instance("numba")
        if backend is None:
            record_fallback("numba-unavailable")
            mode = "numpy"
        else:
            return backend
    backend = _instance("numpy")
    assert backend is not None, "the numpy backend must always be available"
    return backend


__all__ = [
    "KERNEL_BACKEND_MODES",
    "SCAN_TOPK_N_CHUNK",
    "KernelBackend",
    "available_backends",
    "record_fallback",
    "register_backend",
    "resolve_backend",
    "take_fallback_events",
]


# Register the bundled implementations. The numpy module imports
# eagerly (it is the guaranteed path); the numba module is only
# imported when its factory runs, so a bare install never pays for —
# or fails on — the numba import.
from repro.pim.backend import numpy_backend as _numpy_mod  # noqa: E402

register_backend("numpy", _numpy_mod.NumpyBackend)


def _numba_factory() -> KernelBackend:
    from repro.pim.backend import numba_backend

    return numba_backend.NumbaBackend()


register_backend("numba", _numba_factory)
