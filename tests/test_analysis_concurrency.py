"""drimsan static prong: the AL006-AL012 concurrency & determinism rules.

Each rule is pinned by at least one broken fixture (flagged) and one
clean counterpart (silent), the escape hatch is honored, and — the
false-positive gate — the shipped package itself lints clean.
"""

import ast
import os
import textwrap

from repro.analysis import concurrency
from repro.analysis.findings import Severity

_PIM_PATH = "src/repro/pim/mod.py"
_FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "broken_dataplane.py"
)


def _rules(source, path=_PIM_PATH):
    findings = concurrency.lint_source(textwrap.dedent(source), path)
    return sorted(f.rule for f in findings)


class TestShmLifecycle:
    def test_leak_plain(self):
        assert _rules(
            """
            from multiprocessing import shared_memory

            def f(data):
                shm = shared_memory.SharedMemory(create=True, size=64)
                shm.buf[:4] = data
                shm.close()
            """
        ) == ["shm-lifecycle"]

    def test_leak_on_branch(self):
        assert _rules(
            """
            def f(arrays, cond):
                a = SharedShardArena.create(arrays)
                if cond:
                    a.close()
                else:
                    pass
            """
        ) == ["shm-lifecycle"]

    def test_try_finally_is_clean(self):
        assert _rules(
            """
            def f(arrays):
                a = SharedShardArena.create(arrays)
                try:
                    work(a)
                finally:
                    a.close()
            """
        ) == []

    def test_with_is_clean(self):
        assert _rules(
            """
            def f(arrays):
                with SharedShardArena.create(arrays) as a:
                    work(a)
            """
        ) == []

    def test_escape_by_return_is_clean(self):
        assert _rules(
            """
            def f(name, manifest):
                a = SharedShardArena.attach(name, manifest)
                return a
            """
        ) == []

    def test_escape_to_attribute_is_clean(self):
        assert _rules(
            """
            def f(self, arrays):
                a = SharedShardArena.create(arrays)
                self._arena = a
            """
        ) == []

    def test_none_guard_close_is_clean(self):
        assert _rules(
            """
            def f(name, manifest):
                a = None
                try:
                    a = SharedShardArena.attach(name, manifest)
                    work(a)
                finally:
                    if a is not None:
                        a.close()
            """
        ) == []

    def test_opt_out(self):
        assert _rules(
            '''
            def f(arrays):
                """Intentional. drimsan: allow shm-lifecycle"""
                a = SharedShardArena.create(arrays)
                work(a)
            '''
        ) == []


class TestForkUnsafeState:
    def test_worker_reading_module_mutable_flagged(self):
        assert _rules(
            """
            import threading

            CACHE = {}

            def worker():
                return CACHE.get("x")

            def run():
                t = threading.Thread(target=worker)
                t.start()
                t.join()
            """
        ) == ["fork-unsafe-state"]

    def test_worker_without_module_state_clean(self):
        assert _rules(
            """
            import threading

            def worker(q):
                q.put(1)

            def run(q):
                t = threading.Thread(target=worker, args=(q,))
                t.start()
                t.join()
            """
        ) == []


class TestUnseededRng:
    def test_stdlib_random_flagged(self):
        assert _rules(
            """
            import random

            def jitter():
                x = random.random()
                log(x)
            """
        ) == ["unseeded-rng"]

    def test_ensure_rng_clean(self):
        assert _rules(
            """
            from repro.utils import ensure_rng

            def draw(seed):
                rng = ensure_rng(seed)
                x = rng.integers(0, 10)
                log(x)
            """
        ) == []


class TestUnorderedIteration:
    def test_set_iteration_flagged(self):
        assert _rules(
            """
            def merge(ids):
                seen = set(ids)
                out = []
                for i in seen:
                    out.append(i)
                return out
            """
        ) == ["unordered-iteration"]

    def test_sorted_set_clean(self):
        assert _rules(
            """
            def merge(ids):
                seen = set(ids)
                out = []
                for i in sorted(seen):
                    out.append(i)
                return out
            """
        ) == []

    def test_set_union_expression_flagged(self):
        assert _rules(
            """
            def merge(a, b):
                out = []
                for key in set(a) | set(b):
                    out.append(key)
                return out
            """
        ) == ["unordered-iteration"]


class TestWallclockInResult:
    def test_time_in_return_flagged(self):
        assert _rules(
            """
            import time

            def result(rows):
                stamp = time.time()
                return rows, stamp
            """
        ) == ["wallclock-in-result"]

    def test_timing_for_logging_clean(self):
        assert _rules(
            """
            import time

            def result(rows):
                t0 = time.time()
                out = compute(rows)
                log(time.time() - t0)
                return out
            """
        ) == []

    def test_obs_layer_exempt(self):
        assert _rules(
            """
            import time

            def snapshot():
                return {"ts": time.time()}
            """,
            path="src/repro/obs/registry.py",
        ) == []


class TestUnstableSort:
    def test_default_argsort_flagged(self):
        assert _rules(
            """
            import numpy as np

            def rank(d):
                return np.argsort(d)
            """
        ) == ["unstable-sort"]

    def test_stable_kind_clean(self):
        assert _rules(
            """
            import numpy as np

            def rank(d):
                return np.argsort(d, kind="stable")
            """
        ) == []

    def test_out_of_scope_path_ignored(self):
        assert _rules(
            """
            import numpy as np

            def rank(d):
                return np.argsort(d)
            """,
            path="src/repro/faults/report.py",
        ) == []


class TestLeakedWorker:
    def test_unjoined_thread_flagged(self):
        assert _rules(
            """
            import threading

            def fire(fn):
                t = threading.Thread(target=fn)
                t.start()
            """
        ) == ["leaked-worker"]

    def test_joined_thread_clean(self):
        assert _rules(
            """
            import threading

            def fire(fn):
                t = threading.Thread(target=fn)
                t.start()
                t.join()
            """
        ) == []

    def test_executor_stored_on_self_clean(self):
        assert _rules(
            """
            from concurrent.futures import ProcessPoolExecutor

            def attach(self, n):
                pool = ProcessPoolExecutor(max_workers=n)
                self._pool = pool
            """
        ) == []


class TestNoAsyncio:
    def test_no_module_imports_asyncio(self):
        # The rack frontend runs its scatter-gather in explicit turns;
        # nothing in the package needs an event loop, so AL012 polices
        # threads, processes and executors only.
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        offenders = []
        for dirpath, _dirs, files in os.walk(root):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    tree = ast.parse(f.read(), filename=path)
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        mods = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        mods = [node.module or ""]
                    else:
                        continue
                    if any(m.split(".")[0] == "asyncio" for m in mods):
                        offenders.append(os.path.relpath(path, root))
        assert offenders == []


class TestEntryPoints:
    def test_broken_fixture_trips_every_rule(self):
        with open(_FIXTURE, encoding="utf-8") as f:
            src = f.read()
        findings = concurrency.lint_source(src, _PIM_PATH)
        assert sorted(f.rule for f in findings) == sorted(concurrency.RULE_IDS)
        assert sorted(f.data["id"] for f in findings) == sorted(
            concurrency.RULE_IDS.values()
        )

    def test_syntax_error_reported_not_raised(self):
        findings = concurrency.lint_source("def broken(:\n", _PIM_PATH)
        assert [f.rule for f in findings] == ["syntax-error"]
        assert findings[0].severity is Severity.ERROR

    def test_findings_carry_checker_and_id(self):
        findings = concurrency.lint_source(
            "import random\n\ndef f():\n    x = random.random()\n    log(x)\n",
            _PIM_PATH,
        )
        (f,) = findings
        assert f.checker == "concurrency"
        assert f.data["id"] == "AL008"
        assert f.file == _PIM_PATH and f.line == 4

    def test_shipped_package_is_clean(self):
        """The false-positive gate: the repo's own data plane lints clean."""
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        findings = [
            f
            for f in concurrency.lint_tree(root)
            if f.severity >= Severity.ERROR
        ]
        assert findings == []
