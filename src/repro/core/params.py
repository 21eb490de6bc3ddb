"""Parameter bundles for the DRIM-ANN framework (paper Table I).

Three groups, mirroring the paper's notation table:

* :class:`DatasetShape` — N, Q, D and the bit widths ``B_x`` (fixed by
  the dataset/platform);
* :class:`IndexParams` — the DSE decision variables K, P, C, M, CB,
  expressed in the conventional ANN vocabulary (``nlist`` determines C
  = num_points / nlist; ``nprobe`` is P; ``k`` is K; ``num_subspaces``
  is M; ``codebook_size`` is CB);
* :class:`SearchParams` — runtime knobs (batch size, multiplier-less
  on/off, phase placement).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.utils.validation import check_count

#: WRAM bytes a DPU keeps for tasklet stacks and staging buffers, on
#: top of the per-task ADC LUT and the square LUT, when checking fit.
WRAM_RESERVE_BYTES = 8 * 1024


@dataclass(frozen=True)
class DatasetShape:
    """Shape and bit widths of a dataset as seen by the perf model."""

    num_points: int  # corpus size (N * C in paper terms)
    dim: int  # D
    num_queries: int  # Q (per batch)
    bits_query: int = 8  # B_q
    bits_centroid: int = 8  # B_c
    bits_point: int = 8  # B_p
    bits_codebook: int = 16  # B_cb
    bits_lut: int = 32  # B_l
    bits_address: int = 32  # B_a

    def __post_init__(self) -> None:
        if self.num_points <= 0 or self.dim <= 0 or self.num_queries <= 0:
            raise ValueError("num_points, dim, num_queries must be > 0")
        for name in ("bits_query", "bits_centroid", "bits_point",
                     "bits_codebook", "bits_lut", "bits_address"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class IndexParams:
    """The DSE decision variables (K, P, C, M, CB in paper notation)."""

    nlist: int  # number of clusters → C = num_points / nlist
    nprobe: int  # P
    k: int  # K
    num_subspaces: int  # M
    codebook_size: int = 256  # CB

    def __post_init__(self) -> None:
        for name in ("nlist", "nprobe", "k", "num_subspaces", "codebook_size"):
            check_count(getattr(self, name), name)
        if self.nprobe > self.nlist:
            raise ValueError(
                f"nprobe must be in [1, nlist={self.nlist}], got {self.nprobe}"
            )
        if self.codebook_size < 2:
            raise ValueError("codebook_size must be >= 2")

    def avg_cluster_size(self, num_points: int) -> float:
        """C in the paper: average points per cluster."""
        return num_points / self.nlist

    def validate_for(self, dim: int) -> None:
        if dim % self.num_subspaces != 0:
            raise ValueError(
                f"dim {dim} not divisible by num_subspaces {self.num_subspaces}"
            )

    def replace(self, **kw) -> "IndexParams":
        return replace(self, **kw)


#: Valid values of :attr:`SearchParams.adaptive` (query-adaptive
#: probing — see repro.core.adaptive). "off" is the fixed-nprobe
#: baseline; "bound" adds exact distance-bound early termination;
#: "budget" adds per-query nprobe selection; "full" combines both.
ADAPTIVE_MODES = ("off", "bound", "budget", "full")


@dataclass(frozen=True)
class SearchParams:
    """Runtime search knobs."""

    # Queries per PIM round (one host->DPU launch, one fault-plan batch
    # index); None is the whole matrix, the paper's bulk dispatch.
    # Results are bit-identical for every round size.
    batch_size: Optional[int] = None
    multiplier_less: bool = True  # §III-A conversion on/off
    # Which phases run on DPUs ("pim") vs the host ("host"). CL on the
    # host is the paper's default placement (it overlaps with DPU work).
    cluster_locate_on: str = "host"
    # Query-adaptive probing (see repro.core.adaptive): "off" probes a
    # fixed nprobe clusters per query; "bound" stops a query early when
    # its k-th distance provably beats every remaining cluster's lower
    # bound (exact — results stay bit-identical to "off"); "budget"
    # picks a per-query probe budget in [nprobe_min, nprobe] from the
    # centroid-distance gap profile (trades bounded recall for cycles);
    # "full" applies both. The cycle ledger always charges only the
    # clusters actually scanned.
    adaptive: str = "off"
    # Floor of the per-query budget under adaptive="budget"/"full";
    # None means max(1, nprobe // 4).
    nprobe_min: Optional[int] = None
    # Gap-heuristic sensitivity: cut the probe list at the first
    # centroid-distance gap exceeding adaptive_gap * (mean gap).
    adaptive_gap: float = 2.0

    def __post_init__(self) -> None:
        check_count(self.batch_size, "batch_size", optional=True)
        check_count(self.nprobe_min, "nprobe_min", optional=True)
        if self.cluster_locate_on not in ("host", "pim"):
            raise ValueError(
                f"cluster_locate_on must be 'host' or 'pim', got {self.cluster_locate_on!r}"
            )
        if self.adaptive not in ADAPTIVE_MODES:
            raise ValueError(
                f"adaptive must be one of {ADAPTIVE_MODES}, got {self.adaptive!r}"
            )
        if not self.adaptive_gap > 0:
            raise ValueError(
                f"adaptive_gap must be > 0, got {self.adaptive_gap}"
            )

    def adc_lut_bytes(self, params: IndexParams, bits_lut: int = 32) -> int:
        """WRAM footprint of one per-task ADC LUT."""
        return params.num_subspaces * params.codebook_size * (bits_lut // 8)
