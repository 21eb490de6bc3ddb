"""The DPU model: memory + cycle accounting.

A :class:`Dpu` owns an MRAM object store (cluster codes, centroids,
ids, square-LUTs broadcast by the host) and a WRAM budget, and converts
:class:`KernelCost` records into cycles:

``cycles = max(compute_slots / (ipc * compute_scale), mram_cycles)``

mirroring the paper's Eq. 11 ``t = max(C/(F*PE), IO/BW)`` at per-DPU
granularity: the DPU pipeline can overlap DMA with computation (24
tasklets provide latency hiding), so the slower of the two streams
bounds throughput. MRAM cycles price sequential and random traffic at
different bandwidths and charge a fixed DMA setup per transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.pim.config import DpuConfig
from repro.pim.isa import InstructionMix, IsaCostModel
from repro.pim.memory import MemoryTraffic, Mram, Wram


@dataclass
class KernelCost:
    """Work report for one kernel execution on one DPU."""

    kernel: str
    instructions: InstructionMix = field(default_factory=InstructionMix)
    traffic: MemoryTraffic = field(default_factory=MemoryTraffic)

    def merged_with(self, other: "KernelCost") -> "KernelCost":
        if self.kernel != other.kernel:
            raise ValueError(
                f"cannot merge kernel costs {self.kernel!r} and {other.kernel!r}"
            )
        return KernelCost(
            kernel=self.kernel,
            instructions=self.instructions + other.instructions,
            traffic=self.traffic + other.traffic,
        )


class Dpu:
    """One simulated DPU: local memories plus a cycle ledger.

    The ledger is per-kernel (``cycles_by_kernel``) so the engine can
    produce the paper's Fig. 8 breakdown without re-running anything.
    """

    def __init__(
        self,
        dpu_id: int,
        config: DpuConfig,
        isa: IsaCostModel = IsaCostModel(),
    ) -> None:
        self.dpu_id = dpu_id
        self.config = config
        self.isa = isa
        self.mram = Mram(config.mram_bytes)
        self.wram = Wram(config.wram_bytes)
        self.cycles_by_kernel: Dict[str, float] = {}
        self.stall_cycles: float = 0.0

    # ----- cycle accounting -------------------------------------------------
    def compute_cycles(self, mix: InstructionMix) -> float:
        """Pipeline cycles for an instruction mix."""
        slots = self.isa.issue_slots(mix)
        ipc = self.config.effective_ipc
        return slots / (ipc * self.config.compute_scale)

    def mram_cycles(self, traffic: MemoryTraffic) -> float:
        """Cycles spent moving MRAM traffic."""
        cfg = self.config
        bytes_per_cycle_seq = cfg.mram_bandwidth_bytes_per_s / cfg.frequency_hz
        bytes_per_cycle_rand = bytes_per_cycle_seq * cfg.mram_random_derate
        seq = traffic.sequential_read + traffic.sequential_write
        rand = traffic.random_read + traffic.random_write
        return (
            seq / bytes_per_cycle_seq
            + rand / bytes_per_cycle_rand
            + traffic.transactions * cfg.mram_dma_setup_cycles
        )

    def cost_cycles(self, cost: KernelCost) -> float:
        """Cycles a kernel execution takes, without charging them.

        Compute and memory streams overlap (tasklet-level latency
        hiding), so the time is their max, plus DMA setup which cannot
        be hidden.
        """
        comp = self.compute_cycles(cost.instructions)
        mem = self.mram_cycles(cost.traffic)
        return max(comp, mem)

    def add_cycles(self, kernel: str, cycles: float) -> None:
        """Add ``cycles`` to ``kernel``'s ledger entry."""
        self.cycles_by_kernel[kernel] = (
            self.cycles_by_kernel.get(kernel, 0.0) + cycles
        )

    def charge(self, cost: KernelCost) -> float:
        """Account a kernel execution; returns the cycles it consumed."""
        cycles = self.cost_cycles(cost)
        self.add_cycles(cost.kernel, cycles)
        return cycles

    def stall(self, cycles: float) -> float:
        """Advance the DPU's timeline without doing work.

        Models waits the fault layer charges to the DPU itself — e.g.
        the backoff before a transient kernel fault's retry. Stall time
        counts toward ``total_cycles`` (it delays everything after it
        on this DPU's timeline) but not toward any kernel's ledger.
        """
        if cycles < 0:
            raise ValueError(f"stall cycles must be >= 0, got {cycles}")
        self.stall_cycles += cycles
        return cycles

    @property
    def total_cycles(self) -> float:
        return sum(self.cycles_by_kernel.values()) + self.stall_cycles

    @property
    def total_seconds(self) -> float:
        return self.total_cycles / self.config.frequency_hz

    def reset_ledger(self) -> None:
        """Clear accumulated cycles (memory contents are kept)."""
        self.cycles_by_kernel.clear()
        self.stall_cycles = 0.0
