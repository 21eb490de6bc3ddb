"""One config object for the whole engine.

Engine construction takes five config bundles; rather than threading
each through as a loose kwarg, :class:`EngineConfig` holds them all as
a single validated facade:

    config = EngineConfig(index=IndexParams(nlist=64, nprobe=8, k=10,
                                            num_subspaces=8))
    engine = DrimAnnEngine.from_config(base, config)

Every sub-config keeps its own ``__post_init__`` validation; this class
adds only the *cross-bundle* checks (fault plan vs. system size,
CL-on-PIM vs. capacity faults) that no sub-config can see alone.

``to_dict``/``from_dict`` round-trip the full bundle through JSON-safe
dicts, so experiment configs can live in files and CLI ``--json``
envelopes can echo the exact configuration a result came from.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from repro.core.layout import LayoutConfig
from repro.core.params import IndexParams, SearchParams
from repro.core.scheduler import SchedulerConfig
from repro.faults.plan import FaultPlan
from repro.obs.observer import ObsConfig
from repro.pim.config import DpuConfig, PimSystemConfig, TransferConfig

__all__ = ["EngineConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """Everything :meth:`DrimAnnEngine.from_config` needs, in one bundle.

    Only ``index`` is required; every other field defaults to its
    bundle's defaults. Equality across configs holding
    a :class:`FaultPlan` should compare ``to_dict()`` (the plan carries
    an ndarray, which breaks dataclass ``==``).
    """

    index: IndexParams
    search: SearchParams = field(default_factory=SearchParams)
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    system: PimSystemConfig = field(default_factory=PimSystemConfig)
    faults: Optional[FaultPlan] = None
    use_opq: bool = False
    obs: ObsConfig = field(default_factory=ObsConfig)

    def __post_init__(self) -> None:
        if self.faults is not None:
            if self.faults.num_dpus != self.system.num_dpus:
                raise ValueError(
                    f"fault plan covers {self.faults.num_dpus} DPUs but "
                    f"system_config has {self.system.num_dpus}"
                )
            if (
                self.search.cluster_locate_on == "pim"
                and self.faults.has_capacity_faults
            ):
                raise ValueError(
                    "fail-stop/straggler fault plans are not supported with "
                    "cluster_locate_on='pim': centroid slices are not "
                    "replicated, so a dead or derated DPU would corrupt CL; "
                    "use the default host-side CL"
                )

    def replace(self, **kw) -> "EngineConfig":
        return replace(self, **kw)

    # ----- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict; inverse of :meth:`from_dict`."""
        return {
            "index": asdict(self.index),
            "search": asdict(self.search),
            "layout": asdict(self.layout),
            "scheduler": asdict(self.scheduler),
            "system": asdict(self.system),
            "faults": None if self.faults is None else self.faults.to_dict(),
            "use_opq": self.use_opq,
            "obs": self.obs.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EngineConfig":
        system_d = dict(d.get("system", {}))
        if "dpu" in system_d:
            system_d["dpu"] = DpuConfig(**system_d["dpu"])
        if "transfer" in system_d:
            system_d["transfer"] = TransferConfig(**system_d["transfer"])
        search_d = dict(d.get("search", {}))
        faults_d = d.get("faults")
        return cls(
            index=IndexParams(**d["index"]),
            search=SearchParams(**search_d),
            layout=LayoutConfig(**d.get("layout", {})),
            scheduler=SchedulerConfig(**d.get("scheduler", {})),
            system=PimSystemConfig(**system_d),
            faults=None if faults_d is None else FaultPlan.from_dict(faults_d),
            use_opq=bool(d.get("use_opq", False)),
            obs=ObsConfig.from_dict(d.get("obs", {})),
        )
