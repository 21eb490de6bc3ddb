import json

import numpy as np
import pytest

from repro.core.square_lut import SquareLut
from repro.pim import PimSystem, PimSystemConfig
from repro.pim.system import ShardData
from repro.pim.trace import TraceEvent, Tracer


@pytest.fixture()
def traced_system(rng):
    tracer = Tracer()
    s = PimSystem(PimSystemConfig(num_dpus=2), tracer=tracer)
    s.load_codebooks(rng.integers(-50, 50, size=(4, 8, 4)).astype(np.int16))
    s.load_square_lut(SquareLut.for_bit_width(8, levels=3))
    for i in range(2):
        s.place_shard(
            i,
            ShardData(
                shard_key=f"s{i}",
                centroid=rng.integers(0, 255, size=16).astype(np.uint8),
                ids=np.arange(10, dtype=np.int64) + 10 * i,
                codes=rng.integers(0, 8, size=(10, 4)).astype(np.uint8),
            ),
        )
    return s, tracer


class TestTraceEvent:
    def test_cycles(self):
        e = TraceEvent(name="LC", dpu_id=0, start_cycle=10, end_cycle=30, batch=0)
        assert e.cycles == 20

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent(name="LC", dpu_id=0, start_cycle=30, end_cycle=10, batch=0)


class TestTracerWithSystem:
    def test_events_recorded(self, traced_system, rng):
        s, tracer = traced_system
        q = rng.integers(0, 255, size=(2, 16)).astype(np.uint8)
        s.run_batch({0: [(0, "s0")], 1: [(1, "s1")]}, q, k=3)
        names = {e.name for e in tracer.events}
        assert names == {"RC", "LC", "DC", "TS"}
        assert len(tracer.events) == 8  # 4 kernels x 2 tasks

    def test_timeline_contiguous_per_dpu(self, traced_system, rng):
        s, tracer = traced_system
        q = rng.integers(0, 255, size=(3, 16)).astype(np.uint8)
        s.run_batch({0: [(0, "s0"), (1, "s0"), (2, "s0")]}, q, k=3)
        evs = tracer.events_on(0)
        for prev, nxt in zip(evs, evs[1:]):
            assert nxt.start_cycle == pytest.approx(prev.end_cycle)

    def test_busy_cycles_match_dpu_ledger(self, traced_system, rng):
        s, tracer = traced_system
        q = rng.integers(0, 255, size=(2, 16)).astype(np.uint8)
        s.run_batch({0: [(0, "s0")], 1: [(1, "s1")]}, q, k=3)
        busy = tracer.busy_cycles_per_dpu()
        for dpu in s.dpus:
            assert busy[dpu.dpu_id] == pytest.approx(dpu.total_cycles)

    def test_batch_counter(self, traced_system, rng):
        s, tracer = traced_system
        q = rng.integers(0, 255, size=(1, 16)).astype(np.uint8)
        s.run_batch({0: [(0, "s0")]}, q, k=3)
        s.run_batch({1: [(0, "s1")]}, q, k=3)
        batches = {e.batch for e in tracer.events}
        assert len(batches) == 2

    def test_makespan(self, traced_system, rng):
        s, tracer = traced_system
        q = rng.integers(0, 255, size=(2, 16)).astype(np.uint8)
        s.run_batch({0: [(0, "s0"), (1, "s0")]}, q, k=3)
        assert tracer.makespan_cycles() == pytest.approx(s.dpus[0].total_cycles)

    def test_chrome_export(self, traced_system, rng, tmp_path):
        s, tracer = traced_system
        q = rng.integers(0, 255, size=(1, 16)).astype(np.uint8)
        s.run_batch({0: [(0, "s0")]}, q, k=3)
        path = str(tmp_path / "trace.json")
        tracer.export_chrome_trace(path)
        with open(path) as f:
            data = json.load(f)
        complete = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == tracer.num_events
        ev = complete[0]
        assert "dur" in ev and ev["dur"] >= 0

    def test_chrome_export_metadata_labels(self, traced_system, rng, tmp_path):
        s, tracer = traced_system
        q = rng.integers(0, 255, size=(2, 16)).astype(np.uint8)
        s.run_batch({0: [(0, "s0")], 1: [(1, "s1")]}, q, k=3)
        path = str(tmp_path / "trace.json")
        tracer.export_chrome_trace(path)
        with open(path) as f:
            data = json.load(f)
        meta = [e for e in data["traceEvents"] if e["ph"] == "M"]
        assert {"name": "PIM system (simulated DPUs)"} in [
            e["args"] for e in meta if e["name"] == "process_name"
        ]
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in meta
            if e["name"] == "thread_name"
        }
        assert thread_names == {0: "DPU 0", 1: "DPU 1"}

    def test_record_rejects_negative_dpu_id(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="dpu_id"):
            tracer.record("LC", -1, 0.0, 10.0)

    def test_summary_and_clear(self, traced_system, rng):
        s, tracer = traced_system
        q = rng.integers(0, 255, size=(1, 16)).astype(np.uint8)
        s.run_batch({0: [(0, "s0")]}, q, k=3)
        assert "events" in tracer.summary()
        tracer.clear()
        assert tracer.num_events == 0
        assert tracer.summary() == "empty trace"

    def test_untraced_system_unaffected(self, rng):
        s = PimSystem(PimSystemConfig(num_dpus=1))
        assert s.tracer is None


class TestEngineIntegration:
    def test_engine_with_tracer(self, small_ds, small_quantized, small_params):
        from repro.core import DrimAnnEngine, EngineConfig

        tracer = Tracer()
        eng = DrimAnnEngine.from_config(
            small_ds.base,
            EngineConfig(index=small_params, system=PimSystemConfig(num_dpus=4)),
            prebuilt_quantized=small_quantized,
            tracer=tracer,
            seed=0,
        )
        _, bd = eng.search(small_ds.queries[:40])
        assert tracer.num_events > 0
        # Trace busy cycles must reconcile with the batch ledgers.
        busy = sum(tracer.busy_cycles_per_dpu().values())
        ledger = sum(d.total_cycles for d in eng.system.dpus)
        assert busy == pytest.approx(ledger)
        # Tracing must not change results.
        ref = eng.reference_search(small_ds.queries[:40])
        res, _ = eng.search(small_ds.queries[:40])
        np.testing.assert_allclose(
            np.sort(res.distances, axis=1), np.sort(ref.distances, axis=1)
        )
