"""Self-time spans around the public callables of each ``repro`` layer.

The benchmark's per-layer metrics come from wrappers installed by this
module, from the benchmark's own code, at the attribute where the
caller looks each callable up (a module global such as
``repro.core.engine.merge_topk_pools``, or a class attribute such as
``PimSystem.run_batch``). Nothing inside ``src/`` is edited.

A span's *self time* is its duration minus the time covered by the
spans it encloses, so the self times of every span opened during an op
add up to the op's time inside the outermost spans. Wrappers are
installed around a traced op and removed right after it, so untraced
ops run the original callables.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``on_result(counts, args, kwargs, result)`` hook that records work
#: counts at a span boundary.
CountHook = Callable[[Dict[str, float], tuple, dict, Any], None]


class Tracer:
    """Installs self-timing wrappers and accumulates per-metric totals."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Seconds inside outermost spans (the sum of all self times).
        self.top_s = 0.0
        self._stack: List[List[float]] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        metric: str,
        on_result: Optional[CountHook] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span that books to ``metric``."""
        raw = vars(owner)[attr]  # KeyError: the site moved; fail loudly
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            tracer._stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer.self_s[metric] += dt - children[0]
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                else:
                    tracer.top_s += dt
            if on_result is not None:
                on_result(tracer.counts, args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(span) if is_classmethod else span)
        self._installed.append((owner, attr, raw))

    def restore(self) -> List[Tuple[Any, str, Any]]:
        """Put every original back; returns the restored sites."""
        restored = []
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)
            restored.append((owner, attr, raw))
        return restored


# ---------------------------------------------------------------------------
# Count hooks
# ---------------------------------------------------------------------------


def _count_cells(counts, args, kwargs, result) -> None:
    counts["cells"] += args[1].size  # SquareLut.square(self, values)


def _job_rows(jobs) -> int:
    return sum(job[0].shape[0] * job[1].shape[0] for job in jobs)


def _count_stacked(counts, args, kwargs, result) -> None:
    counts["scan_rows"] += _job_rows(args[0])


def _count_group(counts, args, kwargs, result) -> None:
    counts["scan_rows"] += args[0].shape[0] * args[1].shape[0]


def _count_pool(counts, args, kwargs, result) -> None:
    counts["scan_rows"] += _job_rows(args[1])


def _count_plan(counts, args, kwargs, result) -> None:
    counts["plan_" + result] += 1


def _count_schedule(counts, args, kwargs, result) -> None:
    counts["schedule_rounds"] += 1
    counts["schedule_tasks"] += sum(len(t) for t in result.assignments.values())


def _count_engine_search(counts, args, kwargs, result) -> None:
    bd = result.breakdown
    counts["engine_searches"] += 1
    for kernel in ("RC", "LC", "DC", "TS"):
        counts["cycles_" + kernel] += bd.kernel_cycles.get(kernel, 0.0)
    counts["transfer_s"] += bd.transfer_seconds
    counts["host_cl_s"] += bd.host_seconds
    counts["busy_sum"] += sum(bd.per_batch_busy)
    counts["batches"] += len(bd.per_batch_busy)


def _count_frontend_search(counts, args, kwargs, result) -> None:
    counts["frontend_searches"] += 1
    counts["host_cl_s"] += result.report.cl_seconds


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of ``repro`` (see README's layer map)."""
    import repro.cluster.frontend as frontend_mod
    import repro.cluster.index as cluster_index_mod
    import repro.core.engine as engine_mod
    import repro.pim.system as system_mod
    from repro.ann.ivfpq import IVFPQIndex
    from repro.cluster.frontend import ClusterFrontend
    from repro.core.engine import DrimAnnEngine
    from repro.core.quantized import QuantizedIndexData
    from repro.core.scheduler import RuntimeScheduler
    from repro.core.square_lut import SquareLut
    from repro.pim.backend import resolve_backend
    from repro.pim.parallel import ExecutionPlanner, PersistentShardPool
    from repro.pim.system import PimSystem

    w = tracer.wrap
    # Set-up.
    w(IVFPQIndex, "build", "ann.build")
    w(engine_mod, "build_quantized_index", "core.quantized.build")
    w(cluster_index_mod, "build_quantized_index", "core.quantized.build")
    # Search path.
    w(ClusterFrontend, "search", "cluster.frontend.self", _count_frontend_search)
    w(frontend_mod, "merge_shard_results", "cluster.frontend.merge")
    w(DrimAnnEngine, "search", "core.engine.search_self", _count_engine_search)
    w(QuantizedIndexData, "locate", "core.quantized.locate")
    w(QuantizedIndexData, "locate_with_distances", "core.quantized.locate")
    w(RuntimeScheduler, "schedule_batch", "core.scheduler.schedule", _count_schedule)
    w(PimSystem, "run_batch", "pim.system.run_batch_self")
    # The plan decision is run_batch dispatch work: booked there, counted.
    w(ExecutionPlanner, "choose", "pim.system.run_batch_self", _count_plan)
    w(SquareLut, "square", "core.square_lut.square", _count_cells)
    w(type(resolve_backend("auto")), "build_luts", "pim.backend.build_luts")
    w(system_mod, "scan_jobs_stacked", "pim.backend.scan", _count_stacked)
    w(system_mod, "scan_shard_group", "pim.backend.scan", _count_group)
    w(PersistentShardPool, "scan_groups", "pim.backend.scan", _count_pool)
    w(engine_mod, "merge_topk_pools", "utils.topk_merge.merge")
    # Mutation and persistence.
    w(DrimAnnEngine, "add", "core.engine.add_self")
    w(QuantizedIndexData, "add", "core.quantized.add")
    w(PimSystem, "update_shard", "pim.system.update_shard")
    w(DrimAnnEngine, "delete", "core.engine.delete_self")
    w(QuantizedIndexData, "delete", "core.quantized.delete")
    w(PimSystem, "set_shard_liveness", "pim.system.set_shard_liveness")
    w(DrimAnnEngine, "compact", "core.engine.compact_self")
    w(QuantizedIndexData, "compact", "core.quantized.compact")
    w(engine_mod, "save_index", "core.persist.save")
    w(DrimAnnEngine, "from_quantized", "core.engine.from_quantized")
    w(DrimAnnEngine, "load", "core.engine.load_self")
    w(engine_mod, "load_index_bundle", "core.persist.load")
    w(DrimAnnEngine, "unload", "core.engine.unload")


#: Every metric a span books self time to (the ``*_frac`` per-layer
#: metrics are these, as shares of traced op wall).
OP_SPAN_METRICS = (
    "cluster.frontend.self",
    "cluster.frontend.merge",
    "core.engine.search_self",
    "core.quantized.locate",
    "core.scheduler.schedule",
    "pim.system.run_batch_self",
    "core.square_lut.square",
    "pim.backend.build_luts",
    "pim.backend.scan",
    "utils.topk_merge.merge",
    "core.engine.add_self",
    "core.quantized.add",
    "pim.system.update_shard",
    "core.engine.delete_self",
    "core.quantized.delete",
    "pim.system.set_shard_liveness",
    "core.engine.compact_self",
    "core.quantized.compact",
    "core.persist.save",
    "core.engine.from_quantized",
    "core.engine.load_self",
    "core.persist.load",
    "core.engine.unload",
)
