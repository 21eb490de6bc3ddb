"""Ablation — CL phase placement (host vs PIM).

§III-B: after multiplier-less conversion "those [phases] with higher
C2IO can be placed on the host to be overlapped with other operations".
DRIM-ANN places CL on the host. This ablation runs both placements:
CL-on-PIM avoids the host compute but serializes an extra DPU launch
per batch, pays the candidate gather through the 19.2 GB/s channel, and
cannot overlap — quantifying why the paper's default placement wins at
realistic batch sizes.
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
from repro.core import DrimAnnEngine, EngineConfig, SearchParams
from repro.pim.config import PimSystemConfig


def _run_placements(ds):
    rows = []
    e2e = {}
    for nlist in (NLIST_SWEEP[1], NLIST_SWEEP[3]):
        params = params_for(nlist=nlist)
        quant = bench_quantized(
            ds, params.nlist, params.num_subspaces, params.codebook_size
        )
        for placement in ("host", "pim"):
            engine = DrimAnnEngine.from_config(
                ds.base,
                EngineConfig(
                    index=params,
                    search=SearchParams(cluster_locate_on=placement),
                    system=PimSystemConfig(num_dpus=NUM_DPUS),
                    layout=default_layout(),
                ),
                heat_queries=ds.queries[:250],
                prebuilt_quantized=quant,
                cpu_profile=scaled_cpu_profile(NUM_DPUS),
                seed=SEED,
            )
            _, bd = engine.search(ds.queries[:500])
            e2e[(nlist, placement)] = bd.e2e_seconds
            rows.append(
                (
                    nlist,
                    placement,
                    f"{bd.e2e_seconds * 1e3:.2f} ms",
                    f"{bd.pim_seconds * 1e3:.2f} ms",
                    f"{bd.host_seconds * 1e3:.2f} ms",
                    f"{bd.kernel_shares().get('CL', 0.0):.0%}",
                )
            )
    return rows, e2e


def test_ablation_cl_placement(sift_ds, benchmark):
    rows, e2e = benchmark.pedantic(
        _run_placements, args=(sift_ds,), rounds=1, iterations=1
    )
    print_table(
        "CL placement ablation",
        ("nlist", "CL on", "e2e", "pim", "host", "CL share"),
        rows,
    )
    # The paper's placement (host, overlapped) should win or tie.
    for nlist in (NLIST_SWEEP[1], NLIST_SWEEP[3]):
        assert e2e[(nlist, "host")] <= e2e[(nlist, "pim")] * 1.05
