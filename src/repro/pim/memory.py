"""DPU-local memory: 64 MB MRAM and 64 KB WRAM.

``Mram`` is a real byte-budgeted object store — the layout optimizer
must fit each DPU's clusters (codes + centroids + duplicated clusters)
in 64 MB, exactly the constraint that bounds the paper's duplication
study (Fig. 12(b) reports the MB-per-DPU cost of replicas).

``MemoryTraffic`` accumulates the bytes a kernel moved, split into
sequential streams (cluster code scans) and random transactions (LUT
gathers), which the DPU timing model prices differently — the paper
notes random access reaches only ~63% of peak MRAM bandwidth and that
this is why the square-LUT speedup on LC is 1.93x rather than 32x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np


class CapacityError(RuntimeError):
    """Raised when an allocation would exceed a memory's capacity."""


@dataclass
class MemoryTraffic:
    """Byte counters for one kernel execution on one DPU."""

    sequential_read: float = 0.0
    sequential_write: float = 0.0
    random_read: float = 0.0
    random_write: float = 0.0
    # Number of discrete DMA transactions (each pays setup latency).
    transactions: float = 0.0

    def __add__(self, other: "MemoryTraffic") -> "MemoryTraffic":
        return MemoryTraffic(
            sequential_read=self.sequential_read + other.sequential_read,
            sequential_write=self.sequential_write + other.sequential_write,
            random_read=self.random_read + other.random_read,
            random_write=self.random_write + other.random_write,
            transactions=self.transactions + other.transactions,
        )

    def total_bytes(self) -> float:
        return (
            self.sequential_read
            + self.sequential_write
            + self.random_read
            + self.random_write
        )


class _BudgetedStore:
    """Named-object store with a hard byte budget."""

    def __init__(self, capacity_bytes: int, label: str) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"{label} capacity must be > 0")
        self.capacity_bytes = int(capacity_bytes)
        self.label = label
        self._objects: Dict[str, np.ndarray] = {}
        self._used = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    def store(self, key: str, array: np.ndarray) -> None:
        """Insert or replace an object; raises CapacityError if it won't fit."""
        self.store_all({key: array})

    def check_fit(self, objects: Dict[str, np.ndarray]) -> int:
        """The bytes ``objects`` add, each replacing the object stored
        under its key; CapacityError unless they fit together."""
        old = self._objects
        delta = sum(np.asarray(a).nbytes - (old[k].nbytes if k in old else 0)
                    for k, a in objects.items())
        if self._used + delta > self.capacity_bytes:
            raise CapacityError(
                f"{self.label}: storing {', '.join(map(repr, objects))} needs "
                f"{delta} more bytes, only {self.free_bytes} free of "
                f"{self.capacity_bytes}"
            )
        return delta

    def store_all(self, objects: Dict[str, np.ndarray]) -> None:
        """Insert or replace several objects: all of them, or none
        (CapacityError) when they do not fit together."""
        objects = {key: np.asarray(array) for key, array in objects.items()}
        self._used += self.check_fit(objects)
        self._objects.update(objects)

    def load(self, key: str) -> np.ndarray:
        if key not in self._objects:
            raise KeyError(f"{self.label}: no object {key!r}")
        return self._objects[key]

    def __contains__(self, key: str) -> bool:
        return key in self._objects

    def delete(self, key: str) -> None:
        if key not in self._objects:
            raise KeyError(f"{self.label}: no object {key!r}")
        self._used -= self._objects.pop(key).nbytes

    def keys(self):
        return self._objects.keys()

    def clear(self) -> None:
        self._objects.clear()
        self._used = 0


class Mram(_BudgetedStore):
    """64 MB (default) main DPU memory holding cluster data."""

    def __init__(self, capacity_bytes: int = 64 * 1024 * 1024) -> None:
        super().__init__(capacity_bytes, "MRAM")


class Wram(_BudgetedStore):
    """64 KB working memory: LUTs, heaps, staging buffers."""

    def __init__(self, capacity_bytes: int = 64 * 1024) -> None:
        super().__init__(capacity_bytes, "WRAM")
