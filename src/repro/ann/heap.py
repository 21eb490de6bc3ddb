"""Top-k utilities.

Two implementations with different purposes:

* :func:`topk_smallest` — vectorized ``argpartition`` top-k, used by the
  host-side reference path (this is how Faiss-CPU effectively behaves).
* :class:`BoundedMaxHeap` — an explicit binary max-heap with *operation
  counting*, mirroring the heap a DPU tasklet maintains during the TS
  (top-k sorting) phase. The paper models TS cost as
  ``C_TS = Q*P*C*(log K - 1)`` — i.e. per candidate, a constant-ish
  number of comparisons plus a log K sift when it beats the current
  worst. The counting heap lets the PIM kernels charge cycles for the
  work actually done rather than the worst case.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def topk_smallest(
    values: np.ndarray, k: int, axis: int = -1
) -> Tuple[np.ndarray, np.ndarray]:
    """Indices and values of the k smallest entries, sorted ascending.

    Returns ``(indices, values)`` with shape ``values.shape`` except the
    reduced axis has length ``min(k, size)``.
    """
    values = np.asarray(values)
    size = values.shape[axis]
    k = min(k, size)
    if k <= 0:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == size:
        idx = np.argsort(values, axis=axis, kind="stable")
    else:
        part = np.argpartition(values, k - 1, axis=axis)
        idx = np.take(part, np.arange(k), axis=axis)
        sub = np.take_along_axis(values, idx, axis=axis)
        order = np.argsort(sub, axis=axis, kind="stable")
        idx = np.take_along_axis(idx, order, axis=axis)
    return idx, np.take_along_axis(values, idx, axis=axis)


class BoundedMaxHeap:
    """Fixed-capacity max-heap of (distance, id) keeping the k smallest.

    ``push`` returns the number of comparison operations performed, so a
    simulator can convert real work into cycles. Ties on distance are
    broken arbitrarily (matches hardware behaviour; recall metrics don't
    depend on tie order).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._d = np.empty(capacity, dtype=np.float64)
        self._i = np.empty(capacity, dtype=np.int64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    @property
    def worst(self) -> float:
        """Current k-th smallest distance (root of the max-heap)."""
        return self._d[0] if self._n else np.inf

    def push(self, dist: float, ident: int) -> int:
        """Offer a candidate; returns comparison count for cost models."""
        ops = 1  # compare against worst / capacity check
        if self._n < self.capacity:
            # Sift up.
            j = self._n
            self._d[j] = dist
            self._i[j] = ident
            self._n += 1
            while j > 0:
                parent = (j - 1) >> 1
                ops += 1
                if self._d[parent] < self._d[j]:
                    self._swap(parent, j)
                    j = parent
                else:
                    break
            return ops
        if dist >= self._d[0]:
            return ops
        # Replace root, sift down.
        self._d[0] = dist
        self._i[0] = ident
        j = 0
        n = self._n
        while True:
            left = 2 * j + 1
            right = left + 1
            largest = j
            if left < n:
                ops += 1
                if self._d[left] > self._d[largest]:
                    largest = left
            if right < n:
                ops += 1
                if self._d[right] > self._d[largest]:
                    largest = right
            if largest == j:
                break
            self._swap(largest, j)
            j = largest
        return ops

    def _swap(self, a: int, b: int) -> None:
        self._d[a], self._d[b] = self._d[b], self._d[a]
        self._i[a], self._i[b] = self._i[b], self._i[a]

    def result(self) -> Tuple[np.ndarray, np.ndarray]:
        """Extract ``(ids, distances)`` sorted ascending by distance."""
        order = np.argsort(self._d[: self._n], kind="stable")
        return self._i[order].copy(), self._d[order].copy()
