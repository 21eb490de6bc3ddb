"""Extension — platform portability: UPMEM-like vs HBM-PIM-like.

Paper §II-B compares DIMM-PIM (UPMEM: weak scalar DPUs, huge capacity)
with die-stacked HBM-PIM (strong SIMD units on a logic die, bounded
capacity) and argues the framework applies to both. This bench runs
the identical engine on both platform presets at equal unit counts:
HBM-PIM's stronger units win throughput, while its capacity bound is
what would exclude it at the paper's 100M-point scale (asserted via
the config arithmetic, since the scaled corpus fits both).
"""

import pytest

from benchmarks.common import (
    NLIST_SWEEP,
    NUM_DPUS,
    SEED,
    bench_quantized,
    default_layout,
    params_for,
    print_table,
    scaled_cpu_profile,
)
from repro.core import DrimAnnEngine, EngineConfig
from repro.pim.config import hbm_pim_system_config, scaled_system_config


def _compare(ds):
    params = params_for(nlist=NLIST_SWEEP[2])
    quant = bench_quantized(
        ds, params.nlist, params.num_subspaces, params.codebook_size
    )
    rows = []
    times = {}
    for name, cfg in (
        ("upmem-like", scaled_system_config(NUM_DPUS)),
        ("hbm-pim-like", hbm_pim_system_config(num_units=NUM_DPUS)),
    ):
        engine = DrimAnnEngine.from_config(
            ds.base,
            EngineConfig(
                index=params,
                system=cfg,
                layout=default_layout(),
            ),
            heat_queries=ds.queries[:250],
            prebuilt_quantized=quant,
            cpu_profile=scaled_cpu_profile(NUM_DPUS),
            seed=SEED,
        )
        _, bd = engine.search(ds.queries[:500])
        times[name] = bd.pim_seconds
        capacity_gb = cfg.num_dpus * cfg.dpu.mram_bytes / 1024**3
        rows.append(
            (
                name,
                f"{bd.pim_seconds * 1e3:.2f} ms",
                f"{bd.mean_busy_fraction:.0%}",
                f"{capacity_gb:,.0f} GB",
            )
        )
    return rows, times


def test_hbm_platform_comparison(sift_ds, benchmark):
    rows, times = benchmark.pedantic(_compare, args=(sift_ds,), rounds=1, iterations=1)
    print_table(
        f"Platform comparison at {NUM_DPUS} units (same engine, same index)",
        ("platform", "pim time", "busy", "total capacity"),
        rows,
    )
    # §II-B: the logic-die units out-compute DPUs...
    assert times["hbm-pim-like"] < times["upmem-like"]
    # ...but the full UPMEM server holds more than the HBM stacks.
    from repro.pim.config import paper_system_config

    upmem_full = paper_system_config()
    hbm_full = hbm_pim_system_config()
    assert (
        upmem_full.num_dpus * upmem_full.dpu.mram_bytes
        > hbm_full.num_dpus * hbm_full.dpu.mram_bytes
    )
