"""The five-phase analytic performance model (§III-B, Eqs. 1–12).

For a batch of ``Q`` queries against an index with ``nlist`` clusters of
average size ``C``, probing ``P`` clusters per query with ``M``
sub-spaces, ``CB`` codebook entries and top-``K`` output, each phase
x ∈ {CL, RC, LC, DC, TS} has a computation count ``C_x`` and a memory
traffic ``IO_x``; its time on a platform is

    t_x = max(C_x / (F_x * PE_x), IO_x / BW_x)            (Eq. 11)

and its compute-to-I/O ratio is ``C2IO_x = C_x / IO_x`` (Eq. 12).

Counts follow the paper's Eqs. 1–10 with two explicit refinements:

* **Per-class operation counts.** Ops are kept per class (add-like,
  multiply, WRAM load/store, compare) and converted to issue slots
  through an :class:`~repro.pim.isa.IsaCostModel`, so the same
  formulas serve the CPU (a SIMD multiply costs one slot) and the DPU
  (a multiply costs ~32). This is what makes the multiplier-less
  conversion visible to the model.
* **Two I/O streams.** The paper's IO terms lump main-memory traffic
  (codes, codebooks, centroids) with *local* traffic (LUT gathers,
  heap updates) that actually hits CPU caches / DPU WRAM. In
  ``io_mode="split"`` (default) the two streams are priced against
  separate bandwidths and the slower bounds the phase; in
  ``io_mode="paper"`` everything is charged to main memory exactly as
  Eqs. 2/4/6/8/10 are written — the pessimistic variant used when
  reproducing the paper's own model-vs-real comparison (Fig. 10(b)).

Bit widths ``B_x`` from Table I are taken in **bytes** so that
``IO / BW`` is directly seconds against a bytes/s bandwidth.

The model deliberately ignores load imbalance and host<->PIM transfer
time (as the paper's does); Fig. 10(b) quantifies the resulting gap
against the simulator, and the load-balancing machinery closes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.params import DatasetShape, IndexParams
from repro.pim.config import PimSystemConfig
from repro.pim.isa import InstructionMix, IsaCostModel

PHASES = ("CL", "RC", "LC", "DC", "TS")


@dataclass(frozen=True)
class HardwareProfile:
    """A platform as the model sees it.

    Attributes
    ----------
    ops_per_s_per_unit: issue slots (or scalar flops) per second one
        processing unit retires.
    units: parallel processing units (DPUs, or CPU threads).
    bandwidth_bytes_per_s: aggregate main-memory bandwidth.
    local_bandwidth_bytes_per_s: aggregate local-store bandwidth (CPU
        L1/L2, DPU WRAM). ``None`` means local traffic is free (folded
        into issue slots already).
    isa: converts per-class op counts into issue slots. The CPU profile
        uses a uniform-cost ISA (SIMD multiplies are one slot); the PIM
        profile uses the UPMEM cost table.
    simd_width: elements retired per slot (CPU vectorization; 1 on DPU).
    gemm_block: query-block size of the CL distance computation. The
        centroid table is streamed from main memory once per block (the
        blocked-GEMM structure every real implementation uses), not once
        per (query, centroid) pair; charging per pair would overstate CL
        traffic by the blocking factor.
    """

    name: str
    ops_per_s_per_unit: float
    units: int
    bandwidth_bytes_per_s: float
    local_bandwidth_bytes_per_s: Optional[float] = None
    isa: IsaCostModel = field(default_factory=IsaCostModel)
    simd_width: float = 1.0
    gemm_block: int = 256

    def __post_init__(self) -> None:
        if self.ops_per_s_per_unit <= 0 or self.bandwidth_bytes_per_s <= 0:
            raise ValueError("rates must be > 0")
        if (
            self.local_bandwidth_bytes_per_s is not None
            and self.local_bandwidth_bytes_per_s <= 0
        ):
            raise ValueError("local bandwidth must be > 0 or None")
        if self.units <= 0:
            raise ValueError("units must be > 0")

    @classmethod
    def for_pim(cls, config: PimSystemConfig) -> "HardwareProfile":
        """UPMEM profile: per-DPU issue rate, aggregate MRAM + WRAM BW."""
        dpu = config.dpu
        # WRAM: one 8-byte access per cycle per DPU.
        wram_bw = config.num_dpus * 8.0 * dpu.frequency_hz
        return cls(
            name="pim",
            ops_per_s_per_unit=dpu.frequency_hz
            * dpu.effective_ipc
            * dpu.compute_scale,
            units=config.num_dpus,
            bandwidth_bytes_per_s=config.combined_mram_bandwidth,
            local_bandwidth_bytes_per_s=wram_bw,
            isa=IsaCostModel(),
        )

    @classmethod
    def for_cpu(
        cls,
        threads: int = 32,
        frequency_hz: float = 2.3e9,
        simd_width: float = 8.0,
        bandwidth_bytes_per_s: float = 80e9,
        local_bandwidth_bytes_per_s: float = 2e12,
    ) -> "HardwareProfile":
        """Xeon-class profile (paper baseline: 32 threads, AVX2, ~80 GB/s).

        Uniform ISA costs (vector units multiply as fast as they add);
        local traffic (PQ LUT gathers) hits L1/L2 at TB/s aggregate.
        """
        return cls(
            name="cpu",
            ops_per_s_per_unit=frequency_hz,
            units=threads,
            bandwidth_bytes_per_s=bandwidth_bytes_per_s,
            local_bandwidth_bytes_per_s=local_bandwidth_bytes_per_s,
            isa=IsaCostModel(mul_cost=1.0, div_cost=4.0),
            simd_width=simd_width,
        )


@dataclass
class PhaseEstimate:
    """Model output for one phase."""

    phase: str
    ops: InstructionMix
    issue_slots: float
    dram_bytes: float
    local_bytes: float
    seconds: float
    compute_seconds: float
    io_seconds: float

    @property
    def bytes_moved(self) -> float:
        return self.dram_bytes + self.local_bytes

    @property
    def c2io(self) -> float:
        """Eq. 12 — issue slots per byte moved."""
        return self.issue_slots / self.bytes_moved if self.bytes_moved else math.inf

    @property
    def compute_bound(self) -> bool:
        return self.compute_seconds >= self.io_seconds


def _log2(x: float) -> float:
    return math.log2(max(x, 2.0))


class AnalyticPerfModel:
    """Evaluates Eqs. 1–12 for a parameter point on a hardware profile."""

    def __init__(
        self,
        shape: DatasetShape,
        profile: HardwareProfile,
        *,
        multiplier_less: bool = False,
        io_mode: str = "split",
    ) -> None:
        if io_mode not in ("split", "paper"):
            raise ValueError(f"io_mode must be 'split' or 'paper', got {io_mode!r}")
        self.shape = shape
        self.profile = profile
        self.multiplier_less = multiplier_less
        self.io_mode = io_mode

    # ----- per-phase op/byte counts (Eqs. 1-10) --------------------------
    def _counts(self, p: IndexParams) -> Dict[str, tuple]:
        """Per phase: (InstructionMix, dram_bytes, local_bytes)."""
        s = self.shape
        q = float(s.num_queries)
        d = float(s.dim)
        nlist = float(p.nlist)
        pp = float(p.nprobe)
        c = p.avg_cluster_size(s.num_points)
        m = float(p.num_subspaces)
        cb = float(p.codebook_size)
        k = float(p.k)
        logp = _log2(pp)
        logk = _log2(k)

        out: Dict[str, tuple] = {}

        # CL (Eq. 1/2): distance to every centroid + nprobe heap.
        pairs = q * nlist
        cl_mix = InstructionMix(
            add=pairs * 2 * d,  # sub + accumulate per dim
            mul=pairs * d,
            compare=pairs * (logp - 1),
        )
        # Blocked GEMM: queries read once, centroid table streamed once
        # per query block (io_mode="paper" reverts to Eq. 2's per-pair
        # charge below).
        if self.io_mode == "paper":
            cl_dram = pairs * (s.bits_centroid + s.bits_query) / 8 * d
        else:
            num_blocks = math.ceil(q / self.profile.gemm_block)
            cl_dram = (
                q * d * s.bits_query / 8
                + num_blocks * nlist * d * s.bits_centroid / 8
            )
        cl_local = pairs * (s.bits_query / 8 * 5) * (logp + 1)
        out["CL"] = (cl_mix, cl_dram, cl_local)

        # RC (Eq. 3/4): residual per (query, probe) pair.
        rc_mix = InstructionMix(add=q * pp * d)
        rc_dram = (s.bits_centroid + s.bits_query) / 8 * q * pp * d
        out["RC"] = (rc_mix, rc_dram, 0.0)

        # LC (Eq. 5/6): (sub, square, add) per dim per codebook entry.
        lc_pairs = q * pp * cb
        lc_sub_add = lc_pairs * 2 * d  # sub + accumulate
        lc_square = lc_pairs * d
        lc_dram = lc_pairs * d * 2 * s.bits_query / 8  # codebook stream
        lc_local = lc_pairs * s.bits_lut / 8 * m  # LUT writes
        if self.multiplier_less:
            # Squares become WRAM loads from the square LUT.
            lc_mix = InstructionMix(
                add=lc_sub_add, load=lc_square, store=lc_pairs * m
            )
            lc_local += lc_square * (s.bits_lut / 8)
        else:
            lc_mix = InstructionMix(
                add=lc_sub_add, mul=lc_square, store=lc_pairs * m
            )
        out["LC"] = (lc_mix, lc_dram, lc_local)

        # DC (Eq. 7/8): M gathers + (M-1) adds per candidate point.
        cand = q * pp * c
        dc_mix = InstructionMix(
            add=cand * (m - 1), load=cand * m, control=cand * m
        )
        dc_dram = cand * (m * s.bits_point / 8 + s.bits_address / 8)
        dc_local = cand * (
            m * (s.bits_address + s.bits_lut) / 8 + s.bits_lut / 8
        )
        out["DC"] = (dc_mix, dc_dram, dc_local)

        # TS (Eq. 9/10): per-candidate heap maintenance.
        ts_mix = InstructionMix(compare=cand * (logk - 1))
        ts_local = cand * (logk + 1) * (s.bits_lut + s.bits_address) / 8
        out["TS"] = (ts_mix, 0.0, ts_local)
        return out

    # ----- evaluation -----------------------------------------------------
    def phase(self, params: IndexParams, phase: str) -> PhaseEstimate:
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}; must be one of {PHASES}")
        mix, dram, local = self._counts(params)[phase]
        prof = self.profile
        slots = prof.isa.issue_slots(mix) / prof.simd_width
        compute_s = slots / (prof.ops_per_s_per_unit * prof.units)
        if self.io_mode == "paper":
            io_s = (dram + local) / prof.bandwidth_bytes_per_s
        else:
            io_s = dram / prof.bandwidth_bytes_per_s
            if prof.local_bandwidth_bytes_per_s is not None:
                io_s = max(io_s, local / prof.local_bandwidth_bytes_per_s)
        return PhaseEstimate(
            phase=phase,
            ops=mix,
            issue_slots=slots,
            dram_bytes=dram,
            local_bytes=local,
            seconds=max(compute_s, io_s),
            compute_seconds=compute_s,
            io_seconds=io_s,
        )

    def estimate(self, params: IndexParams) -> Dict[str, PhaseEstimate]:
        """All five phases for one parameter point."""
        params.validate_for(self.shape.dim)
        return {ph: self.phase(params, ph) for ph in PHASES}

    def total_seconds(
        self, params: IndexParams, *, phases=PHASES
    ) -> float:
        """Sum of phase times (the paper sums per-side phase times)."""
        est = self.estimate(params)
        return sum(est[ph].seconds for ph in phases)

    def split_seconds(
        self, params: IndexParams, host_phases=("CL",)
    ) -> float:
        """Eq. 13 objective: max(host side, PIM side) with overlap.

        Phases placed on the host overlap with DPU execution, so the
        batch time is the max of the two sides' sums. Host-side phase
        times are modeled on a CPU profile internally when host phases
        are requested; passing an empty tuple charges everything to
        this profile.
        """
        est = self.estimate(params)
        pim = sum(est[ph].seconds for ph in PHASES if ph not in host_phases)
        if not host_phases:
            return pim
        host_model = AnalyticPerfModel(
            self.shape, HardwareProfile.for_cpu(), multiplier_less=False
        )
        host = sum(
            host_model.phase(params, ph).seconds
            for ph in PHASES
            if ph in host_phases
        )
        return max(host, pim)

    def throughput_qps(self, params: IndexParams, **kw) -> float:
        """Queries per second implied by :meth:`split_seconds`."""
        return self.shape.num_queries / self.split_seconds(params, **kw)


def host_cl_seconds(
    params: IndexParams, index, num_queries: int, profile: HardwareProfile
) -> float:
    """Modeled host time of one batch's CL over ``index`` (anything with
    ``num_points`` and ``dim``: an engine's index, a rack's router)."""
    shape = DatasetShape(
        num_points=index.num_points, dim=index.dim, num_queries=num_queries
    )
    return AnalyticPerfModel(shape, profile).phase(params, "CL").seconds
