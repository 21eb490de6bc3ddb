"""drimsan dynamic prong: arena lifecycle recording + happens-before checks.

The static rules in :mod:`repro.analysis.concurrency` reason about the
shared-memory data plane without running it. This module is the
runtime complement: an opt-in event recorder that the arena and pool in
:mod:`repro.pim.parallel` call into at every segment lifecycle point
(``create``/``write``/``publish``/``attach``/``view``/``close``/
``unlink``), plus a checker that replays the recorded events against a
happens-before order built from per-process vector clocks.

Mechanics
---------

* :func:`enable` arms the recorder in the calling (owner) process and
  names a *spool directory*. Owner-side events accumulate in memory;
  worker processes (seeded via :func:`worker_init`, flushed via
  :func:`flush_worker_events`) append theirs to one JSONL file per pid
  in the spool.
* Every event carries a vector-clock snapshot. Clocks tick on each
  local event and merge whenever a pipe message crosses the
  owner/worker boundary (the pool piggybacks a clock slot on every
  protocol message) and when a worker starts (seeded from the owner's
  clock at spawn, which orders ``publish`` before the worker's
  ``attach``).
* :func:`check_arena_events` flags **use-after-unlink** (an access
  ordered after the segment's unlink), **double-unlink**,
  **write-after-publish** (the owner mutating the arena after workers
  may have attached), and **orphaned segments** (created, never
  unlinked).
* :func:`emit_to_tracer` mirrors the events onto per-process host
  tracks of a :class:`~repro.pim.trace.Tracer`, so the sanitized run's
  Chrome trace shows the arena timeline next to the DPU timelines;
  :func:`repro.analysis.tracecheck.check_arena_order` validates the
  per-process ordering invariants on the same events.
* :func:`run_sanitize` is the ``repro sanitize`` entry point: it runs a
  small canonical pool-backed search with the recorder armed and
  reports both checkers' findings (zero on a healthy data plane).

Events are deliberately tiny (no payloads, only names/keys/clocks): a
sanitized run stays within a few hundred events, so recording overhead
is irrelevant next to process spawn.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analysis.findings import Finding, Severity

#: Vector clock wire form: sorted ``((pid, count), ...)`` pairs.
Clock = Tuple[Tuple[int, int], ...]

#: Event kinds the data plane records, in typical lifecycle order.
EVENT_KINDS = (
    "create",  # owner allocated the segment
    "write",   # owner copied one array into the segment (data= key)
    "publish", # owner handed the segment name to workers (pre-spawn)
    "attach",  # a process mapped an existing segment
    "view",    # a process built a zero-copy array view (data= key)
    "close",   # a process released its mapping
    "unlink",  # the owner removed the segment name
)

#: Access kinds that must never be ordered after the segment's unlink.
_ACCESS_KINDS = ("attach", "view", "write")


__all__ = [
    "ArenaEvent",
    "active",
    "check_arena_events",
    "collect_events",
    "disable",
    "emit_to_tracer",
    "enable",
    "happens_before",
    "run_sanitize",
]

@dataclass(frozen=True)
class ArenaEvent:
    """One recorded lifecycle event with its vector-clock snapshot."""

    seq: int  # per-process monotonic sequence number
    pid: int
    kind: str
    segment: str
    key: Optional[str]  # array key for write/view events
    clock: Clock

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "pid": self.pid,
            "kind": self.kind,
            "segment": self.segment,
            "key": self.key,
            "clock": [list(pair) for pair in self.clock],
        }

    @classmethod
    def from_dict(cls, rec: Dict[str, Any]) -> "ArenaEvent":
        return cls(
            seq=int(rec["seq"]),
            pid=int(rec["pid"]),
            kind=str(rec["kind"]),
            segment=str(rec["segment"]),
            key=rec.get("key"),
            clock=tuple(
                (int(p), int(c)) for p, c in rec.get("clock", ())
            ),
        )


class _State:
    """Per-process recorder state (armed/clock/buffered events)."""

    def __init__(self) -> None:
        self.enabled = False
        self.spool: Optional[str] = None
        self.clock: Dict[int, int] = {}
        self.seq = 0
        self.events: List[ArenaEvent] = []
        self.lock = threading.Lock()

    def reset(self) -> None:
        self.enabled = False
        self.spool = None
        self.clock = {}
        self.seq = 0
        self.events = []


_STATE = _State()


# ---------------------------------------------------------------------------
# Recorder control (owner process)
# ---------------------------------------------------------------------------

def enable(spool_dir: str) -> None:
    """Arm the recorder; worker events spool to ``spool_dir`` as JSONL."""
    with _STATE.lock:
        _STATE.reset()
        _STATE.enabled = True
        _STATE.spool = spool_dir
    os.makedirs(spool_dir, exist_ok=True)


def disable() -> None:
    """Disarm the recorder and drop any buffered state."""
    with _STATE.lock:
        _STATE.reset()


def active() -> bool:
    """Whether the recorder is armed in this process."""
    return _STATE.enabled


def spool_dir() -> Optional[str]:
    """The armed recorder's spool directory (None when disarmed)."""
    return _STATE.spool


def record_event(kind: str, segment: str, key: Optional[str] = None) -> None:
    """Record one lifecycle event (no-op when the recorder is disarmed)."""
    if not _STATE.enabled:
        return
    pid = os.getpid()
    with _STATE.lock:
        _STATE.clock[pid] = _STATE.clock.get(pid, 0) + 1
        _STATE.seq += 1
        snapshot: Clock = tuple(sorted(_STATE.clock.items()))
        _STATE.events.append(
            ArenaEvent(
                seq=_STATE.seq,
                pid=pid,
                kind=kind,
                segment=segment,
                key=key,
                clock=snapshot,
            )
        )


def clock_snapshot() -> Optional[Clock]:
    """Current vector clock for piggybacking on a pipe message."""
    if not _STATE.enabled:
        return None
    with _STATE.lock:
        return tuple(sorted(_STATE.clock.items()))


def merge_clock(clock: Optional[Clock]) -> None:
    """Fold a received clock into ours (message receipt = sync point)."""
    if clock is None or not _STATE.enabled:
        return
    with _STATE.lock:
        for pid, count in clock:
            if count > _STATE.clock.get(int(pid), 0):
                _STATE.clock[int(pid)] = int(count)


# ---------------------------------------------------------------------------
# Worker-side hooks
# ---------------------------------------------------------------------------

def worker_init(spool: str, parent_clock: Optional[Clock]) -> None:
    """Arm the recorder inside a pool worker.

    Called at worker entry with the owner's clock snapshot taken at
    spawn time — this is what orders the owner's ``publish`` before the
    worker's ``attach``. Under ``fork`` the child inherits the owner's
    buffered events; they are cleared here so each event is reported by
    exactly one process.
    """
    with _STATE.lock:
        _STATE.enabled = True
        _STATE.spool = spool
        _STATE.events = []
        _STATE.seq = 0
        _STATE.clock = dict(_STATE.clock)  # unshare (fork) before merging
    merge_clock(parent_clock)


def flush_worker_events() -> None:
    """Append this worker's buffered events to its spool file."""
    if not _STATE.enabled or _STATE.spool is None:
        return
    with _STATE.lock:
        events, _STATE.events = _STATE.events, []
        path = os.path.join(_STATE.spool, f"events-{os.getpid()}.jsonl")
    if not events:
        return
    try:
        with open(path, "a", encoding="utf-8") as f:
            for ev in events:
                f.write(json.dumps(ev.to_dict()) + "\n")
    except OSError:  # spool gone (owner tore down first): drop, don't crash
        pass


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------

def load_spool(spool: str) -> List[ArenaEvent]:
    """Load every worker's spooled events from ``spool``."""
    events: List[ArenaEvent] = []
    try:
        names = sorted(os.listdir(spool))
    except OSError:
        return events
    for name in names:
        if not name.endswith(".jsonl"):
            continue
        try:
            with open(os.path.join(spool, name), encoding="utf-8") as f:
                for line in f:
                    line = line.strip()
                    if line:
                        events.append(ArenaEvent.from_dict(json.loads(line)))
        except (OSError, ValueError, KeyError):
            continue
    return events


def collect_events() -> List[ArenaEvent]:
    """Owner-buffered events plus everything workers spooled so far."""
    with _STATE.lock:
        owner = list(_STATE.events)
        spool = _STATE.spool
    spooled = load_spool(spool) if spool else []
    return sorted(owner + spooled, key=lambda e: (e.pid, e.seq))


# ---------------------------------------------------------------------------
# Happens-before checker
# ---------------------------------------------------------------------------

def happens_before(a: ArenaEvent, b: ArenaEvent) -> bool:
    """True when ``a`` is ordered strictly before ``b``.

    Standard vector-clock test: ``a``'s own tick is visible in ``b``'s
    snapshot. Same-process events are totally ordered by construction
    (the local component ticks on every event).
    """
    if a is b:
        return False
    a_own = dict(a.clock).get(a.pid, 0)
    b_seen = dict(b.clock).get(a.pid, 0)
    if a.pid == b.pid:
        return a.seq < b.seq
    return a_own <= b_seen


def _finding(
    rule: str,
    message: str,
    *,
    segment: str,
    severity: Severity = Severity.ERROR,
    data: Optional[Dict[str, Any]] = None,
) -> Finding:
    payload: Dict[str, Any] = {"segment": segment}
    if data:
        payload.update(data)
    return Finding(
        checker="sanitizer",
        rule=rule,
        severity=severity,
        message=message,
        data=payload,
    )


def check_arena_events(events: Iterable[ArenaEvent]) -> List[Finding]:
    """Replay recorded events against the happens-before order."""
    findings: List[Finding] = []
    by_segment: Dict[str, List[ArenaEvent]] = {}
    for ev in events:
        by_segment.setdefault(ev.segment, []).append(ev)

    for segment in sorted(by_segment):
        evs = sorted(by_segment[segment], key=lambda e: (e.pid, e.seq))
        unlinks = [e for e in evs if e.kind == "unlink"]
        publishes = [e for e in evs if e.kind == "publish"]
        creates = [e for e in evs if e.kind == "create"]

        if len(unlinks) > 1:
            findings.append(
                _finding(
                    "double-unlink",
                    f"segment {segment!r} unlinked {len(unlinks)} times "
                    f"(pids {sorted({e.pid for e in unlinks})}); a segment "
                    f"name must be removed exactly once",
                    segment=segment,
                    data={"pids": sorted({e.pid for e in unlinks})},
                )
            )

        if creates and not unlinks:
            findings.append(
                _finding(
                    "orphaned-segment",
                    f"segment {segment!r} was created by pid "
                    f"{creates[0].pid} but never unlinked; it outlives the "
                    f"run unless the atexit sweep catches it",
                    segment=segment,
                    data={"pid": creates[0].pid},
                )
            )

        for unlink in unlinks:
            for ev in evs:
                if ev.kind not in _ACCESS_KINDS:
                    continue
                if happens_before(unlink, ev):
                    findings.append(
                        _finding(
                            "use-after-unlink",
                            f"pid {ev.pid} performed {ev.kind!r}"
                            f"{f' of {ev.key!r}' if ev.key else ''} on "
                            f"segment {segment!r} after pid {unlink.pid} "
                            f"unlinked it; the mapping is undefined",
                            segment=segment,
                            data={"kind": ev.kind, "pid": ev.pid,
                                  "unlink_pid": unlink.pid, "key": ev.key},
                        )
                    )

        for publish in publishes:
            for ev in evs:
                if ev.kind != "write":
                    continue
                if happens_before(publish, ev):
                    findings.append(
                        _finding(
                            "write-after-publish",
                            f"pid {ev.pid} wrote {ev.key!r} into segment "
                            f"{segment!r} after it was published to "
                            f"workers; readers may observe the mutation "
                            f"mid-scan",
                            segment=segment,
                            data={"pid": ev.pid, "key": ev.key},
                        )
                    )

    return findings


# ---------------------------------------------------------------------------
# Trace integration + the `repro sanitize` driver
# ---------------------------------------------------------------------------

def emit_to_tracer(events: Iterable[ArenaEvent], tracer: Any) -> None:
    """Mirror events onto per-process host tracks of a Tracer.

    Each process gets an ``arena pid N`` track; events land as
    zero-duration markers at their per-process sequence number, so the
    exported Chrome trace shows the arena lifecycle interleaved with
    the DPU timelines.
    """
    for ev in sorted(events, key=lambda e: (e.pid, e.seq)):
        tid = tracer.host_track(f"arena pid {ev.pid}")
        name = f"arena:{ev.kind}"
        detail = ev.segment if ev.key is None else f"{ev.segment}:{ev.key}"
        tracer.record(name, tid, float(ev.seq), float(ev.seq), detail=detail)


def _check_pool_exercised(
    events: Iterable[ArenaEvent], owner: int
) -> List[Finding]:
    """An error unless some worker attached the arena and viewed a shard.

    Without both, the run never put the worker side of the data plane
    under the checkers, and zero findings would prove nothing.
    """
    worker_kinds = {ev.kind for ev in events if ev.pid != owner}
    missing = [kind for kind in ("attach", "view") if kind not in worker_kinds]
    if not missing:
        return []
    return [
        Finding(
            checker="sanitizer",
            rule="pool-not-exercised",
            severity=Severity.ERROR,
            message=(
                f"no pool worker recorded {' or '.join(map(repr, missing))}; "
                "the sanitized search never ran on the worker pool"
            ),
            data={"missing": missing},
        )
    ]


def run_sanitize(
    *,
    config: str = "split-replicated",
    shard_workers: int = 2,
    trace_path: Optional[str] = None,
) -> Tuple[List[Finding], Dict[str, Any]]:
    """Run one canonical pool-backed search with the recorder armed.

    Builds the named canonical engine with a persistent worker pool of
    ``shard_workers`` (at least 2, or there is no pool to sanitize),
    warms the pool, searches the canonical query set, closes the
    engine, then replays the recorded arena events through
    :func:`check_arena_events` and
    :func:`repro.analysis.tracecheck.check_arena_order`. A run in which
    no worker attached the arena or scanned a shard view did not
    exercise the data plane and reports a ``pool-not-exercised`` error.
    A healthy data plane reports zero findings.

    Returns ``(findings, stats)`` where ``stats`` summarizes the run
    (event/process/segment counts) for the CLI envelope.
    """
    import tempfile

    from repro.analysis import tracecheck
    from repro.testing import (
        CANONICAL_CONFIGS,
        build_canonical_engine,
        canonical_dataset,
    )

    if config not in CANONICAL_CONFIGS:
        raise ValueError(
            f"config must be one of {sorted(CANONICAL_CONFIGS)}, got {config!r}"
        )
    if shard_workers < 2:
        raise ValueError(
            f"shard_workers must be >= 2 to run a worker pool, got {shard_workers}"
        )

    events: List[ArenaEvent] = []
    with tempfile.TemporaryDirectory(prefix="drimsan-") as spool:
        enable(spool)
        try:
            engine = build_canonical_engine(config, shard_workers=shard_workers)
            try:
                queries = canonical_dataset().queries[
                    : CANONICAL_CONFIGS[config]["num_queries"]
                ]
                engine.system.warm_pool()
                engine.search(queries)
            finally:
                engine.close()
            events = collect_events()
        finally:
            disable()

    findings = _check_pool_exercised(events, owner=os.getpid())
    findings += check_arena_events(events)
    findings += tracecheck.check_arena_order(events)

    if trace_path is not None:
        from repro.pim.trace import Tracer

        tracer = Tracer()
        emit_to_tracer(events, tracer)
        tracer.export_chrome_trace(trace_path)

    stats: Dict[str, Any] = {
        "config": config,
        "shard_workers": shard_workers,
        "num_events": len(events),
        "num_processes": len({e.pid for e in events}),
        "segments": sorted({e.segment for e in events}),
        "kinds": {
            kind: sum(1 for e in events if e.kind == kind)
            for kind in EVENT_KINDS
        },
        "findings": len(findings),
    }
    return findings, stats
