"""Multiplier-less ANNS conversion (§III-A).

UPMEM DPUs have no hardware multiplier: a 32-bit multiply costs ~32
cycles of ``mul_step`` instructions, while a WRAM load costs one issue
slot. L2 distance computation squares *differences of small integers*
(query byte minus centroid byte minus codebook element), so the set of
possible operands is tiny and every square can be precomputed offline
into a lookup table — a **lossless** transformation.

:class:`SquareLut` stores ``sq[v] = v*v`` for ``v`` in
``[-max_abs, +max_abs]`` with an offset index. For 8-bit data the full
residual range is ±255 and, after codebook subtraction, ±765 — a 6 KB
i32 table that fits comfortably in the DPU's 64 KB WRAM next to the
per-task ADC LUT. For 16-bit operands the full table (256 K entries ×
4 B = 1 MB) exceeds WRAM; the paper keeps a *partial* LUT of small
values resident and constructs the rest on demand, which
:meth:`SquareLut.partial` models: lookups outside the resident range
are still functionally exact but are charged as misses (extra MRAM
traffic) by the LC kernel.

Because the table is exact, the host simulator never needs to look
squares up to get LC's values: the host kernels compute the same
integers directly, and only a partial table's cost needs the per-lookup
miss count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass
class SquareLut:
    """Precomputed integer-square table.

    Attributes
    ----------
    max_abs: largest |operand| covered by the resident table.
    resident_max_abs: largest |operand| whose square is resident
        on-chip (== max_abs for the full-table case). Lookups beyond it
        are functionally served but counted as misses.
    """

    max_abs: int
    resident_max_abs: int
    table: np.ndarray  # (2*max_abs+1,) int64, table[v + max_abs] = v*v

    def __post_init__(self) -> None:
        if self.max_abs < 0:
            raise ValueError("max_abs must be >= 0")
        if not 0 <= self.resident_max_abs <= self.max_abs:
            raise ValueError(
                "resident_max_abs must be in [0, max_abs], got "
                f"{self.resident_max_abs} vs {self.max_abs}"
            )
        expect = 2 * self.max_abs + 1
        if self.table.shape != (expect,):
            raise ValueError(f"table must have shape ({expect},), got {self.table.shape}")

    # ----- construction ------------------------------------------------
    @classmethod
    def for_bit_width(cls, operand_bits: int, levels: int = 1) -> "SquareLut":
        """Full table for operands that are differences of ``levels``
        unsigned ``operand_bits``-bit values.

        ``levels=1`` covers ``a`` itself; ``levels=2`` covers ``a - b``;
        ``levels=3`` covers ``a - b - c`` (query − centroid − codebook),
        the LC operand in DRIM-ANN.
        """
        if operand_bits not in (8, 16):
            raise ValueError(f"operand_bits must be 8 or 16, got {operand_bits}")
        if levels < 1:
            raise ValueError("levels must be >= 1")
        max_abs = ((1 << operand_bits) - 1) * levels
        v = np.arange(-max_abs, max_abs + 1, dtype=np.int64)
        return cls(max_abs=max_abs, resident_max_abs=max_abs, table=v * v)

    def partial(self, resident_max_abs: int) -> "SquareLut":
        """A copy whose resident window is restricted (16-bit scenario)."""
        return SquareLut(
            max_abs=self.max_abs,
            resident_max_abs=int(resident_max_abs),
            table=self.table,
        )

    # ----- lookup -------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        """On-chip footprint of the resident window (int32 entries)."""
        return (2 * self.resident_max_abs + 1) * 4

    def square(self, values: np.ndarray) -> Tuple[np.ndarray, int]:
        """Vectorized squaring through the table.

        Returns ``(squares, miss_count)`` where ``miss_count`` is how
        many lookups fell outside the resident window (they are still
        exact — the full table exists off-chip — but the LC kernel
        charges them extra traffic).
        """
        v = np.asarray(values)
        if not np.issubdtype(v.dtype, np.integer):
            raise TypeError(f"square LUT operands must be integers, got {v.dtype}")
        if v.size and (v.min() < -self.max_abs or v.max() > self.max_abs):
            raise ValueError(
                f"operand out of range ±{self.max_abs}: "
                f"[{v.min()}, {v.max()}]"
            )
        misses = int(np.count_nonzero(np.abs(v) > self.resident_max_abs))
        return self.table[v.astype(np.int64) + self.max_abs], misses

