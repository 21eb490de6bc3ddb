"""Hardware configuration for the simulated PIM system.

Defaults reproduce the paper's platform: UPMEM PIM-DIMMs with
2,530 DPUs at 450 MHz (we default to a scaled-down DPU count for
laptop-scale corpora; the ratio of clusters per DPU is what benchmarks
preserve), 64 MB MRAM + 64 KB WRAM per DPU, 24 hardware threads
(tasklets), and a 19.2 GB/s DDR4-2400 host channel that is ~0.75% of
the combined internal PIM bandwidth.

``compute_scale`` multiplies DPU arithmetic throughput, reproducing the
paper's Fig. 13 forward-looking experiment (2x / 5x compute).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class DpuConfig:
    """One DPU's microarchitectural parameters."""

    frequency_hz: float = 450e6
    num_tasklets: int = 16  # ≤ 24; ≥ 11 keeps the pipeline full
    pipeline_depth: int = 11  # revisit stages needed for 1 IPC
    wram_bytes: int = 64 * 1024
    mram_bytes: int = 64 * 1024 * 1024
    # Peak sequential MRAM→WRAM streaming bandwidth per DPU (bytes/s).
    # ~700 MB/s measured at 450 MHz per Gómez-Luna et al.; the paper's
    # "1 GB/s" is the nominal figure. We default to the nominal number
    # scaled by the measured 63.3% efficiency elsewhere (see
    # ``mram_random_derate`` for random access).
    mram_bandwidth_bytes_per_s: float = 1.0e9
    # Random (small-stride) MRAM access achieves ~63.3% of peak per the
    # paper's own citation; DMA setup latency dominates small transfers.
    mram_random_derate: float = 0.633
    # Fixed DMA setup cost per MRAM transaction, cycles.
    mram_dma_setup_cycles: int = 77
    # Compute-ability multiplier (Fig. 13: 1.0, 2.0, 5.0).
    compute_scale: float = 1.0

    def __post_init__(self) -> None:
        if not 1 <= self.num_tasklets <= 24:
            raise ValueError(f"num_tasklets must be in [1, 24], got {self.num_tasklets}")
        if self.frequency_hz <= 0:
            raise ValueError("frequency_hz must be > 0")
        if self.compute_scale <= 0:
            raise ValueError("compute_scale must be > 0")
        if not 0 < self.mram_random_derate <= 1:
            raise ValueError("mram_random_derate must be in (0, 1]")

    @property
    def effective_ipc(self) -> float:
        """Sustained instructions/cycle given resident tasklets.

        The UPMEM pipeline interleaves tasklets; with fewer tasklets
        than the pipeline depth the same tasklet cannot re-issue until
        its previous instruction retires, capping IPC at
        ``num_tasklets / pipeline_depth``.
        """
        return min(1.0, self.num_tasklets / self.pipeline_depth)


@dataclass(frozen=True)
class TransferConfig:
    """Host <-> PIM transfer characteristics.

    ``host_bandwidth_bytes_per_s`` is per memory channel (DDR4-2400:
    19.2 GB/s, the paper's number). Servers drive PIM DIMMs on several
    channels in parallel; ``num_channels`` scales scatter/gather
    throughput (payloads split across channels) but not broadcasts
    (every channel must carry the full replica for its own DIMMs, so a
    broadcast is bounded by one channel's bandwidth regardless).
    """

    host_bandwidth_bytes_per_s: float = 19.2e9
    num_channels: int = 1
    # Fixed software overhead per host->DPU launch/synchronization.
    launch_latency_s: float = 20e-6

    def __post_init__(self) -> None:
        if self.host_bandwidth_bytes_per_s <= 0:
            raise ValueError("host_bandwidth_bytes_per_s must be > 0")
        if self.num_channels < 1:
            raise ValueError("num_channels must be >= 1")

    @property
    def aggregate_bandwidth(self) -> float:
        return self.host_bandwidth_bytes_per_s * self.num_channels


@dataclass(frozen=True)
class PimSystemConfig:
    """Whole-system shape."""

    num_dpus: int = 256
    dpus_per_rank: int = 64
    dimm_power_watts: float = 13.92  # paper §V-B
    dpus_per_dimm: int = 128
    dpu: DpuConfig = field(default_factory=DpuConfig)
    transfer: TransferConfig = field(default_factory=TransferConfig)
    # Worker processes for the compute plane's product jobs (see
    # repro.pim.parallel). 0/1 = no pool: every job runs in process.
    # With a pool, the workers hold each data shard's resident decoded
    # residuals, point terms and ids, and the system's planner picks
    # pool or in-process per call; the jobs and results are the same
    # either way, and calls fall back to in process when process pools
    # are unavailable.
    shard_workers: int = 0

    def __post_init__(self) -> None:
        if self.num_dpus <= 0:
            raise ValueError("num_dpus must be > 0")
        if self.dpus_per_rank <= 0 or self.dpus_per_dimm <= 0:
            raise ValueError("rank/dimm sizes must be > 0")
        if self.shard_workers < 0:
            raise ValueError("shard_workers must be >= 0")

    @property
    def num_dimms(self) -> int:
        return -(-self.num_dpus // self.dpus_per_dimm)  # ceil div

    @property
    def total_power_watts(self) -> float:
        return self.num_dimms * self.dimm_power_watts

    @property
    def combined_mram_bandwidth(self) -> float:
        """Aggregate internal bandwidth across all DPUs (bytes/s)."""
        return self.num_dpus * self.dpu.mram_bandwidth_bytes_per_s

    def with_compute_scale(self, scale: float) -> "PimSystemConfig":
        """Clone with scaled DPU compute ability (Fig. 13 sweeps)."""
        return replace(self, dpu=replace(self.dpu, compute_scale=scale))


def paper_system_config() -> PimSystemConfig:
    """The paper's full platform: 2,530 DPUs @ 450 MHz."""
    return PimSystemConfig(num_dpus=2530)


def scaled_system_config(num_dpus: int = 256) -> PimSystemConfig:
    """Laptop-scale system preserving per-DPU characteristics."""
    return PimSystemConfig(num_dpus=num_dpus)


def hbm_pim_system_config(num_units: int = 512) -> PimSystemConfig:
    """An HBM-PIM-style platform (paper §II-B's comparison class).

    Samsung's HBM-PIM places SIMD processing units on a logic die next
    to the DRAM banks: per-unit compute is far stronger than an UPMEM
    DPU (a 300 MHz unit with 16-wide FP16 SIMD ≈ 10x a scalar DPU at
    450 MHz), per-unit bank bandwidth is ~10x higher, but per-unit
    capacity is small and the *total* capacity is bounded by the HBM
    stacks — the paper's §II-B point that "processing in die-stacking
    memories can also attain huge bandwidth, [but] the capacity is
    bounded". The engine runs on this config unchanged; MRAM capacity
    errors at build time are the capacity wall showing itself.

    Numbers are indicative (Samsung's product is simulator-only, as the
    paper notes); the preset exists to exercise platform portability
    and the capacity-vs-compute trade-off, not to model Aquabolt-XL
    precisely.
    """
    # 6 GB of HBM per stack, 2 stacks, shared across units.
    total_capacity = 12 * 1024**3
    return PimSystemConfig(
        num_dpus=num_units,
        dpus_per_rank=32,
        dpus_per_dimm=64,  # "pseudo-channel group" stands in for a DIMM
        dimm_power_watts=25.0,  # HBM stack power share
        dpu=DpuConfig(
            frequency_hz=300e6,
            num_tasklets=16,
            pipeline_depth=8,
            wram_bytes=128 * 1024,  # per-unit SRAM buffers
            mram_bytes=total_capacity // num_units,
            mram_bandwidth_bytes_per_s=9.6e9,  # bank-level bandwidth
            mram_random_derate=0.8,
            mram_dma_setup_cycles=20,
            compute_scale=10.0,  # 16-wide SIMD at 300 MHz vs scalar 450 MHz
        ),
        transfer=TransferConfig(
            host_bandwidth_bytes_per_s=32e9, num_channels=2
        ),
    )
