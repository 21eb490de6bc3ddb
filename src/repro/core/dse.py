"""Design-space exploration (§III-C, Eq. 13).

Find (K, P, C, M, CB) minimizing the modeled batch time

    min max(sum_host t_x, sum_pim t_x)
    s.t. a(K, P, C, M, CB) >= accuracy_constraint

where the objective comes from the analytic performance model (cheap,
deterministic) and ``a`` is the expensive measured-accuracy oracle.
:class:`DesignSpaceExplorer` wires the pieces: a
:class:`~repro.tuning.space.DiscreteSpace` over (nlist, nprobe, M, CB),
the PIM perf model as objective, and either a pre-measured
:class:`~repro.core.accuracy.AccuracyTable` or a live measurement
callback as the oracle, optimized by constrained Bayesian optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.analysis.contracts import KernelShape
from repro.analysis.findings import Finding, Severity
from repro.analysis.resources import check_wram
from repro.core.accuracy import AccuracyTable
from repro.core.params import WRAM_RESERVE_BYTES, DatasetShape, IndexParams
from repro.core.perf_model import AnalyticPerfModel, HardwareProfile
from repro.pim.config import DpuConfig
from repro.tuning.bayesopt import ConstrainedBayesOpt
from repro.tuning.space import DiscreteSpace


@dataclass
class DseResult:
    """Outcome of a DSE run."""

    best_params: Optional[IndexParams]
    best_modeled_seconds: Optional[float]
    best_accuracy: Optional[float]
    oracle_calls: int
    observations: list

    @property
    def found_feasible(self) -> bool:
        return self.best_params is not None


class DesignSpaceExplorer:
    """Constrained-BO search over index parameters."""

    def __init__(
        self,
        shape: DatasetShape,
        pim_profile: HardwareProfile,
        *,
        nlist_values: Sequence[int],
        nprobe_values: Sequence[int],
        m_values: Sequence[int],
        cb_values: Sequence[int] = (256,),
        k: int = 10,
        multiplier_less: bool = True,
        host_phases: Sequence[str] = ("CL",),
        dpu: Optional[DpuConfig] = None,
    ) -> None:
        self.shape = shape
        self.k = k
        self.host_phases = tuple(host_phases)
        self.multiplier_less = multiplier_less
        self.dpu = dpu if dpu is not None else DpuConfig()
        self.model = AnalyticPerfModel(
            shape, pim_profile, multiplier_less=multiplier_less
        )
        # Prune invalid combos up front: dim divisibility and WRAM fit.
        valid_m = [m for m in m_values if shape.dim % m == 0]
        if not valid_m:
            raise ValueError(
                f"no m_values divide dim {shape.dim}: {list(m_values)}"
            )
        self._wram_limit = self.dpu.wram_bytes - WRAM_RESERVE_BYTES
        self.space = DiscreteSpace.from_dict(
            {
                "nlist": nlist_values,
                "nprobe": nprobe_values,
                "m": valid_m,
                "cb": cb_values,
            }
        )
        # Pre-sweep static validation: evaluate the kernels' resource
        # contracts for every (M, CB) x tasklet combination so WRAM-
        # infeasible points are rejected before any objective/oracle
        # call — not discovered mid-sweep as a CapacityError.
        self.static_findings = self._prevalidate(valid_m, cb_values)
        self._static_infeasible = {
            (f.data["m"], f.data["cb"])
            for f in self.static_findings
            if f.severity == Severity.ERROR and "m" in f.data and "cb" in f.data
        }

    def _prevalidate(
        self, m_values: Sequence[int], cb_values: Sequence[int]
    ) -> "list[Finding]":
        findings = []
        for m in m_values:
            for cb in cb_values:
                shape = KernelShape(
                    g=1,
                    d=self.shape.dim,
                    m=int(m),
                    cb=int(cb),
                    dsub=self.shape.dim // int(m),
                    k=self.k,
                    code_bytes=1 if cb <= 256 else 2,
                    bits_lut=self.shape.bits_lut,
                    multiplier_less=self.multiplier_less,
                )
                findings += check_wram(shape, self.dpu)
        return findings

    # ----- plumbing -------------------------------------------------------
    def params_of(self, point: Dict[str, float]) -> IndexParams:
        return IndexParams(
            nlist=int(point["nlist"]),
            nprobe=int(point["nprobe"]),
            k=self.k,
            num_subspaces=int(point["m"]),
            codebook_size=int(point["cb"]),
        )

    def _valid(self, point: Dict[str, float]) -> bool:
        if int(point["nprobe"]) > int(point["nlist"]):
            return False
        if (int(point["m"]), int(point["cb"])) in self._static_infeasible:
            return False
        lut_bytes = int(point["m"]) * int(point["cb"]) * 4
        return lut_bytes <= self._wram_limit

    def validate_space(self) -> "list[Finding]":
        """All static findings for this explorer's (M, CB) grid.

        Same checks that drive pre-sweep pruning, exposed so callers
        (and ``repro lint``) can report *why* points were dropped
        rather than just observing ``objective() == inf``.
        """
        return list(self.static_findings)

    def objective(self, point: Dict[str, float]) -> float:
        """Eq. 13 target: overlapped host/PIM batch seconds."""
        if not self._valid(point):
            return float("inf")
        return self.model.split_seconds(
            self.params_of(point), host_phases=self.host_phases
        )

    # ----- run --------------------------------------------------------------
    def explore(
        self,
        accuracy_oracle: Callable[[IndexParams], float],
        accuracy_constraint: float,
        *,
        num_iterations: int = 24,
        greedy_budget: int = 8,
        seed=None,
    ) -> DseResult:
        """Run constrained BO with a live accuracy oracle."""

        def oracle(point: Dict[str, float]) -> float:
            if not self._valid(point):
                return 0.0
            return accuracy_oracle(self.params_of(point))

        bo = ConstrainedBayesOpt(
            space=self.space,
            objective_fn=self.objective,
            accuracy_oracle=oracle,
            accuracy_threshold=accuracy_constraint,
            greedy_budget=greedy_budget,
            seed=seed,
        )
        best = bo.run(num_iterations)
        return DseResult(
            best_params=self.params_of(best.point) if best else None,
            best_modeled_seconds=best.objective if best else None,
            best_accuracy=best.accuracy if best else None,
            oracle_calls=len(bo.observations),
            observations=bo.observations,
        )

    def explore_with_table(
        self,
        table: AccuracyTable,
        accuracy_constraint: float,
        **kwargs,
    ) -> DseResult:
        """Run DSE against a pre-measured accuracy table.

        Unmeasured points are treated as infeasible (accuracy 0), so
        pass a table covering the space (or a superset of it).
        """

        def oracle(params: IndexParams) -> float:
            return table.entries.get(AccuracyTable.key_of(params), 0.0)

        return self.explore(oracle, accuracy_constraint, **kwargs)
