"""drimsan dynamic prong: event model, happens-before checker, driver.

Synthetic event streams pin each checker rule (broken flagged, clean
silent); real-arena integration tests prove an injected use-after-unlink
is observed through the instrumented data plane; and the regression
gate asserts ``repro sanitize`` reports zero findings on the shipped
engine.
"""

import numpy as np
import pytest

from repro.analysis import sanitizer, tracecheck
from repro.analysis.findings import Severity
from repro.analysis.sanitizer import (
    ArenaEvent,
    check_arena_events,
    emit_to_tracer,
    happens_before,
    run_sanitize,
)
from repro.pim.parallel import SharedShardArena


def _ev(seq, pid, kind, segment="seg", key=None, clock=None):
    clock = tuple(clock) if clock is not None else ((pid, seq),)
    return ArenaEvent(
        seq=seq, pid=pid, kind=kind, segment=segment, key=key, clock=clock
    )


def _clean_lifecycle(segment="seg"):
    """Owner creates/publishes/unlinks; a worker attaches and views."""
    return [
        _ev(1, 1, "create", segment, clock=[(1, 1)]),
        _ev(2, 1, "write", segment, key="codes:a", clock=[(1, 2)]),
        _ev(3, 1, "publish", segment, clock=[(1, 3)]),
        # Worker seeded from the owner's publish-time clock.
        _ev(1, 2, "attach", segment, clock=[(1, 3), (2, 1)]),
        _ev(2, 2, "view", segment, key="codes:a", clock=[(1, 3), (2, 2)]),
        _ev(3, 2, "close", segment, clock=[(1, 3), (2, 3)]),
        # Owner tears down without having merged the worker's last clock
        # (concurrent, not ordered) — still clean.
        _ev(4, 1, "close", segment, clock=[(1, 4)]),
        _ev(5, 1, "unlink", segment, clock=[(1, 5)]),
    ]


class TestEventModel:
    def test_dict_roundtrip(self):
        ev = _ev(7, 123, "view", "psm_x", key="ids:a", clock=[(1, 3), (123, 7)])
        assert ArenaEvent.from_dict(ev.to_dict()) == ev

    def test_happens_before_same_pid_is_seq_order(self):
        a, b = _ev(1, 1, "create"), _ev(2, 1, "close")
        assert happens_before(a, b) and not happens_before(b, a)

    def test_happens_before_cross_pid_via_clock(self):
        pub = _ev(3, 1, "publish", clock=[(1, 3)])
        att = _ev(1, 2, "attach", clock=[(1, 3), (2, 1)])
        assert happens_before(pub, att)
        assert not happens_before(att, pub)

    def test_concurrent_events_unordered(self):
        a = _ev(5, 1, "unlink", clock=[(1, 5)])
        b = _ev(3, 2, "view", clock=[(1, 2), (2, 3)])
        assert not happens_before(a, b) and not happens_before(b, a)


class TestHappensBeforeChecker:
    def test_clean_lifecycle_no_findings(self):
        assert check_arena_events(_clean_lifecycle()) == []

    def test_use_after_unlink_same_process(self):
        events = _clean_lifecycle() + [
            _ev(6, 1, "view", key="codes:a", clock=[(1, 6)])
        ]
        rules = [f.rule for f in check_arena_events(events)]
        assert rules == ["use-after-unlink"]

    def test_use_after_unlink_cross_process(self):
        events = _clean_lifecycle() + [
            # A worker view whose clock has seen the owner's unlink.
            _ev(4, 3, "view", key="codes:a", clock=[(1, 5), (3, 4)])
        ]
        rules = [f.rule for f in check_arena_events(events)]
        assert rules == ["use-after-unlink"]

    def test_concurrent_worker_access_not_flagged(self):
        # The worker's view is concurrent with (not after) the unlink:
        # exactly the shape of a normal pool teardown.
        assert check_arena_events(_clean_lifecycle()) == []

    def test_double_unlink(self):
        events = _clean_lifecycle() + [_ev(6, 1, "unlink", clock=[(1, 6)])]
        rules = [f.rule for f in check_arena_events(events)]
        assert "double-unlink" in rules

    def test_write_after_publish(self):
        events = _clean_lifecycle() + [
            _ev(6, 1, "write", key="codes:a", clock=[(1, 6)])
        ]
        rules = sorted(f.rule for f in check_arena_events(events))
        # The late write is also ordered after the unlink.
        assert "write-after-publish" in rules

    def test_orphaned_segment(self):
        events = [
            _ev(1, 1, "create", clock=[(1, 1)]),
            _ev(2, 1, "close", clock=[(1, 2)]),
        ]
        rules = [f.rule for f in check_arena_events(events)]
        assert rules == ["orphaned-segment"]

    def test_findings_carry_checker_and_segment(self):
        events = _clean_lifecycle() + [
            _ev(6, 1, "view", key="codes:a", clock=[(1, 6)])
        ]
        (f,) = check_arena_events(events)
        assert f.checker == "sanitizer" and f.data["segment"] == "seg"


class TestArenaOrderInvariants:
    def test_clean_lifecycle_no_findings(self):
        assert tracecheck.check_arena_order(_clean_lifecycle()) == []

    def test_view_before_map(self):
        events = [_ev(1, 2, "view", key="codes:a")]
        rules = [f.rule for f in tracecheck.check_arena_order(events)]
        assert rules == ["arena-use-before-map"]

    def test_event_after_close(self):
        events = [
            _ev(1, 2, "attach"),
            _ev(2, 2, "close"),
            _ev(3, 2, "view", key="codes:a"),
        ]
        rules = [f.rule for f in tracecheck.check_arena_order(events)]
        assert rules == ["arena-event-after-close"]

    def test_owner_unlink_after_close_allowed(self):
        events = [
            _ev(1, 1, "create"),
            _ev(2, 1, "close"),
            _ev(3, 1, "unlink"),
        ]
        assert tracecheck.check_arena_order(events) == []

    def test_double_attach(self):
        events = [_ev(1, 2, "attach"), _ev(2, 2, "attach")]
        rules = [f.rule for f in tracecheck.check_arena_order(events)]
        assert rules == ["arena-double-attach"]


class TestRecorder:
    def _arrays(self, rng):
        return {
            "codes:a": rng.integers(0, 16, size=(8, 4), dtype=np.uint8),
            "ids:a": rng.permutation(100)[:8].astype(np.int64),
        }

    def test_disarmed_recorder_records_nothing(self, rng):
        arena = SharedShardArena.create(self._arrays(rng))
        arena.close()
        assert sanitizer.collect_events() == []

    def test_clean_arena_lifecycle_sanitizes_clean(self, rng, tmp_path):
        sanitizer.enable(str(tmp_path))
        try:
            with SharedShardArena.create(self._arrays(rng)) as arena:
                arena.view("ids:a")
            events = sanitizer.collect_events()
        finally:
            sanitizer.disable()
        assert check_arena_events(events) == []
        assert tracecheck.check_arena_order(events) == []
        kinds = [e.kind for e in events]
        assert kinds.count("create") == 1 and kinds.count("unlink") == 1

    def test_injected_use_after_unlink_detected(self, rng, tmp_path):
        """The acceptance fixture: a deliberate bug must be observed."""
        sanitizer.enable(str(tmp_path))
        try:
            arena = SharedShardArena.create(self._arrays(rng))
            arena.close()
            arena.view("codes:a")  # injected use of a dead mapping
            events = sanitizer.collect_events()
        finally:
            sanitizer.disable()
        hb = [f.rule for f in check_arena_events(events)]
        order = [f.rule for f in tracecheck.check_arena_order(events)]
        assert hb == ["use-after-unlink"]
        assert order == ["arena-event-after-close"]

    def test_worker_spool_roundtrip(self, tmp_path):
        sanitizer.enable(str(tmp_path))
        try:
            parent = sanitizer.clock_snapshot()
            sanitizer.worker_init(str(tmp_path), parent)
            sanitizer.record_event("attach", "seg")
            sanitizer.record_event("view", "seg", "codes:a")
            sanitizer.flush_worker_events()
            loaded = sanitizer.load_spool(str(tmp_path))
        finally:
            sanitizer.disable()
        assert [e.kind for e in loaded] == ["attach", "view"]
        assert loaded[1].key == "codes:a"

    def test_merge_clock_takes_componentwise_max(self, tmp_path):
        sanitizer.enable(str(tmp_path))
        try:
            sanitizer.record_event("create", "seg")
            sanitizer.merge_clock(((999999, 7),))
            snap = dict(sanitizer.clock_snapshot())
        finally:
            sanitizer.disable()
        assert snap[999999] == 7


class TestTraceIntegration:
    def test_emit_to_tracer_uses_per_pid_host_tracks(self):
        from repro.pim.trace import Tracer

        tracer = Tracer()
        emit_to_tracer(_clean_lifecycle(), tracer)
        names = tracer.host_track_names()
        assert "arena pid 1" in names and "arena pid 2" in names
        assert len(tracer.events) == len(_clean_lifecycle())
        # Zero-duration markers keep the tracer's own invariants intact.
        assert tracecheck.check_tracer(tracer) == []


class TestRunSanitize:
    def test_clean_repo_reports_zero_findings(self):
        """The regression gate: the shipped data plane sanitizes clean."""
        findings, stats = run_sanitize()
        assert findings == []
        assert stats["num_processes"] >= 3  # owner + 2 workers attached
        assert stats["kinds"]["attach"] >= 2
        assert stats["kinds"]["view"] >= 1  # the workers really scanned
        assert stats["kinds"]["unlink"] == 1
        assert stats["kinds"]["create"] == 1

    def test_trace_export(self, tmp_path):
        path = str(tmp_path / "arena_trace.json")
        findings, _stats = run_sanitize(trace_path=path)
        assert findings == []
        assert tracecheck.check_chrome_trace(path) == []

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError, match="config"):
            run_sanitize(config="nope")

    @pytest.mark.parametrize("workers", [0, 1])
    def test_fewer_than_two_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="shard_workers"):
            run_sanitize(shard_workers=workers)

    def test_search_that_skips_the_pool_is_an_error(self, monkeypatch):
        """A run whose rounds never reach the workers exercises nothing
        worker-side; it must not pass as clean."""
        from repro.pim.parallel import ExecutionPlanner

        def never_pool(self, **kwargs):
            self.decisions["vectorized"] = self.decisions.get("vectorized", 0) + 1
            return "vectorized"

        monkeypatch.setattr(ExecutionPlanner, "choose", never_pool)
        findings, stats = run_sanitize()
        assert stats["kinds"]["view"] == 0
        rules = [(f.rule, f.severity) for f in findings]
        assert rules == [("pool-not-exercised", Severity.ERROR)]
