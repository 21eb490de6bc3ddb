"""Ablation — tasklet count vs pipeline utilization.

UPMEM's in-order pipeline only sustains 1 instruction/cycle when at
least ``pipeline_depth`` (11) tasklets are resident (Gómez-Luna et al.;
the paper's "multi-threaded optimization is necessary ... to hide
memory access latency and fully utilize the deep processor pipeline").
This ablation sweeps the tasklet count and confirms the knee at the
pipeline depth — the reason the engine defaults to 16 tasklets.
"""

import pytest

from benchmarks.common import (
    NLIST_SWEEP,
    SEED,
    BATCH_SIZE,
    bench_quantized,
    default_layout,
    params_for,
    print_table,
    scaled_cpu_profile,
    NUM_DPUS,
)
from repro.core import DrimAnnEngine, EngineConfig, SearchParams
from repro.pim.config import DpuConfig, PimSystemConfig

TASKLETS = (2, 6, 11, 16, 24)


def _sweep_tasklets(ds):
    params = params_for(nlist=NLIST_SWEEP[2])
    quant = bench_quantized(ds, params.nlist, params.num_subspaces, params.codebook_size)
    rows = []
    times = {}
    for t in TASKLETS:
        cfg = PimSystemConfig(num_dpus=NUM_DPUS, dpu=DpuConfig(num_tasklets=t))
        engine = DrimAnnEngine.from_config(
            ds.base,
            EngineConfig(
                index=params,
                search=SearchParams(batch_size=BATCH_SIZE),
                system=cfg,
                layout=default_layout(),
            ),
            heat_queries=ds.queries[:250],
            prebuilt_quantized=quant,
            cpu_profile=scaled_cpu_profile(NUM_DPUS),
            seed=SEED,
        )
        _, bd = engine.search(ds.queries[:500])
        times[t] = bd.pim_seconds
        rows.append((t, f"{cfg.dpu.effective_ipc:.2f}", f"{bd.pim_seconds * 1e3:.2f} ms"))
    return rows, times


def test_ablation_tasklets(sift_ds, benchmark):
    rows, times = benchmark.pedantic(
        _sweep_tasklets, args=(sift_ds,), rounds=1, iterations=1
    )
    print_table(
        "Tasklet-count ablation", ("tasklets", "effective IPC", "pim time"), rows
    )
    # Below the pipeline depth, fewer tasklets = slower, proportionally.
    assert times[2] > times[6] > times[11] * 1.05
    # At/after the knee, extra tasklets do not help.
    assert times[16] == pytest.approx(times[11], rel=0.05)
    assert times[24] == pytest.approx(times[16], rel=0.05)
