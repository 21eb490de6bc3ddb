"""drimsan static prong: concurrency & determinism rules AL006-AL012.

The PR-5 data plane made the engine genuinely concurrent — persistent
worker processes over a :mod:`multiprocessing.shared_memory` arena —
and that code class carries hazards the cost-model linter
(:mod:`repro.analysis.astlint`) never looks at: leaked segments, state
silently captured by forked workers, and nondeterminism sneaking into
result-producing paths. These rules police them statically (stdlib
``ast``, no dependencies):

* ``shm-lifecycle`` (AL006) — a ``SharedShardArena.create/attach`` (or
  raw ``SharedMemory``) handle must reach ``close()``/``unlink()`` or
  escape the function (returned, stored on an object, passed onward)
  on **every** path, including exception edges. Checked with a small
  per-function control-flow graph; ``with`` acquisition is always
  clean (``__exit__`` closes).
* ``fork-unsafe-state`` (AL007) — a function handed to
  ``Process``/``Thread`` (or ``pool.submit``) that reads module-level
  mutable state: under ``fork`` the worker sees a silent snapshot,
  under ``spawn`` a fresh empty object — either way the two processes
  silently diverge.
* ``unseeded-rng`` (AL008) — stdlib ``random`` calls. AL002 already
  fences ``np.random``; this closes the other door. All randomness
  routes through :func:`repro.utils.rng.ensure_rng`.
* ``unordered-iteration`` (AL009) — iterating a ``set`` (literal,
  ``set()`` call, set union/intersection, or a local/module name bound
  to one) without ``sorted(...)``: iteration order varies across
  processes and hash seeds, so any merge, top-k feed, or serialized
  output built from it is nondeterministic.
* ``wallclock-in-result`` (AL010) — ``time.time()`` / ``os.getpid()``
  (and friends) flowing into a function's return value. Wall-clock
  belongs in the observability layer, never in results.
* ``unstable-sort`` (AL011) — ``argsort`` without ``kind="stable"`` in
  result-producing packages (``core/``, ``ann/``, ``pim/``): numpy's
  default introsort breaks ties by memory layout, so equal keys land
  in platform-dependent order.
* ``leaked-worker`` (AL012) — a ``Thread``/``Process``/executor
  constructed, possibly started, and then dropped without being
  joined, shut down, or handed to an owner that will.

Escape hatch: a function may opt out of one rule by declaring
``drimsan: allow <rule-id>`` in its docstring — the same explicit,
reviewable pattern AL001 uses for pure kernel helpers.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.findings import Finding, Severity

__all__ = ["RULE_IDS", "lint_file", "lint_source", "lint_tree"]

_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: rule id -> AL number (the ``data`` payload carries both spellings).
RULE_IDS: Dict[str, str] = {
    "shm-lifecycle": "AL006",
    "fork-unsafe-state": "AL007",
    "unseeded-rng": "AL008",
    "unordered-iteration": "AL009",
    "wallclock-in-result": "AL010",
    "unstable-sort": "AL011",
    "leaked-worker": "AL012",
}

_ARENA_FACTORIES = {"create", "attach"}
_WORKER_FACTORIES = {
    "Thread",
    "Process",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "Pool",
}
_WORKER_DISCHARGE_METHODS = {
    "join",
    "shutdown",
    "close",
    "terminate",
    "kill",
    "cancel",
}
_WALLCLOCK_SOURCES = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "os.getpid",
    "os.getppid",
    "uuid.uuid1",
    "uuid.uuid4",
}
_STABLE_SORT_KINDS = {"stable", "mergesort"}


def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


def _dotted(node: ast.AST) -> Optional[str]:
    """'np.random.default_rng' for nested Attribute/Name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _finding(
    rule: str, message: str, path: str, node: ast.AST,
    severity: Severity = Severity.ERROR,
) -> Finding:
    return Finding(
        checker="concurrency",
        rule=rule,
        severity=severity,
        message=message,
        file=_norm(path),
        line=getattr(node, "lineno", None),
        data={"id": RULE_IDS[rule]},
    )


def _functions(tree: ast.Module) -> Iterator[_FuncDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk one scope's body without descending into nested defs.

    Nested functions are their own scopes (each is analyzed on its own
    pass), so rules that iterate per-function must not double-count
    their statements.
    """
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _opted_out(fn: Optional[_FuncDef], rule: str) -> bool:
    if fn is None:
        return False
    doc = ast.get_docstring(fn) or ""
    return f"drimsan: allow {rule}" in doc


def _mentions(node: ast.AST, var: str) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == var
        for sub in ast.walk(node)
    )


# ---------------------------------------------------------------------------
# AL006: a small per-function CFG with exception edges
# ---------------------------------------------------------------------------

class _Cfg:
    """Statement-level control-flow graph of one function body.

    Nodes are statements; edges split into normal successors and
    exception successors (any statement may raise into the innermost
    enclosing handler/finally, or out of the function). ``finally``
    blocks additionally flow to EXIT, overapproximating the
    exception-propagation and return paths through them — sound for
    leak checking, occasionally adding spurious-but-harmless paths.
    """

    EXIT = -1

    def __init__(self, fn: _FuncDef) -> None:
        self.nodes: List[ast.stmt] = []
        self.normal: Dict[int, Set[int]] = {}
        self.exc: Dict[int, Set[int]] = {}
        _, exits = self._build_body(fn.body, (), None, None, None)
        for nid in exits:
            self.normal[nid].add(self.EXIT)

    # ----- construction ----------------------------------------------------
    def _new(self, stmt: ast.stmt, exc_targets: Sequence[int]) -> int:
        nid = len(self.nodes)
        self.nodes.append(stmt)
        self.normal[nid] = set()
        self.exc[nid] = set(exc_targets) if exc_targets else {self.EXIT}
        return nid

    def _build_body(
        self,
        body: Sequence[ast.stmt],
        exc_targets: Sequence[int],
        break_sink: Optional[List[int]],
        continue_target: Optional[int],
        finally_entry: Optional[int],
    ) -> Tuple[Optional[int], List[int]]:
        """Wire one statement list; returns (entry node, exit nodes).

        ``break_sink`` collects break-statement nodes for the enclosing
        loop; ``finally_entry`` is where returns must detour first.
        """
        body_entry: Optional[int] = None
        prev_exits: List[int] = []
        for stmt in body:
            entry, exits = self._build_stmt(
                stmt, exc_targets, break_sink, continue_target, finally_entry
            )
            if entry is None:
                continue
            for p in prev_exits:
                self.normal[p].add(entry)
            if body_entry is None:
                body_entry = entry
            prev_exits = exits
            if not exits:  # return/raise/break/continue: flow stops here
                break
        return body_entry, prev_exits

    def _build_stmt(
        self,
        stmt: ast.stmt,
        exc_targets: Sequence[int],
        break_sink: Optional[List[int]],
        continue_target: Optional[int],
        finally_entry: Optional[int],
    ) -> Tuple[Optional[int], List[int]]:
        if isinstance(stmt, ast.If):
            nid = self._new(stmt, exc_targets)
            exits: List[int] = []
            for branch in (stmt.body, stmt.orelse):
                if not branch:
                    exits.append(nid)
                    continue
                b_entry, b_exits = self._build_body(
                    branch, exc_targets, break_sink, continue_target,
                    finally_entry,
                )
                if b_entry is not None:
                    self.normal[nid].add(b_entry)
                    exits.extend(b_exits)
                else:
                    exits.append(nid)
            return nid, exits

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            nid = self._new(stmt, exc_targets)
            breaks: List[int] = []
            b_entry, b_exits = self._build_body(
                stmt.body, exc_targets, breaks, nid, finally_entry
            )
            if b_entry is not None:
                self.normal[nid].add(b_entry)
                for e in b_exits:
                    self.normal[e].add(nid)
            exits = [nid] + breaks
            if stmt.orelse:
                e_entry, e_exits = self._build_body(
                    stmt.orelse, exc_targets, break_sink, continue_target,
                    finally_entry,
                )
                if e_entry is not None:
                    self.normal[nid].add(e_entry)
                    exits = e_exits + breaks
            return nid, exits

        if isinstance(stmt, ast.Try):
            return self._build_try(
                stmt, exc_targets, break_sink, continue_target, finally_entry
            )

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            nid = self._new(stmt, exc_targets)
            b_entry, b_exits = self._build_body(
                stmt.body, exc_targets, break_sink, continue_target,
                finally_entry,
            )
            if b_entry is not None:
                self.normal[nid].add(b_entry)
                return nid, b_exits
            return nid, [nid]

        # Simple statements (incl. nested defs, treated as opaque).
        nid = self._new(stmt, exc_targets)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            if isinstance(stmt, ast.Return) and finally_entry is not None:
                self.normal[nid].add(finally_entry)
            elif isinstance(stmt, ast.Return):
                self.normal[nid].add(self.EXIT)
            # Raise: the exc edge set at _new already points at the
            # handler/finally/EXIT.
            return nid, []
        if isinstance(stmt, ast.Break):
            if break_sink is not None:
                break_sink.append(nid)
            return nid, []
        if isinstance(stmt, ast.Continue):
            if continue_target is not None:
                self.normal[nid].add(continue_target)
            return nid, []
        return nid, [nid]

    def _build_try(
        self,
        stmt: ast.Try,
        exc_targets: Sequence[int],
        break_sink: Optional[List[int]],
        continue_target: Optional[int],
        finally_entry: Optional[int],
    ) -> Tuple[Optional[int], List[int]]:
        fin_entry: Optional[int] = None
        fin_exits: List[int] = []
        if stmt.finalbody:
            fin_entry, fin_exits = self._build_body(
                stmt.finalbody, exc_targets, break_sink, continue_target,
                finally_entry,
            )
            # The finally also runs on exception-propagation and return
            # paths, after which control leaves the function.
            for e in fin_exits:
                self.normal[e].add(self.EXIT)

        handler_entries: List[int] = []
        handler_exits: List[int] = []
        h_exc = list(exc_targets) + ([fin_entry] if fin_entry is not None else [])
        for handler in stmt.handlers:
            h_entry, h_exits = self._build_body(
                handler.body, h_exc, break_sink, continue_target,
                fin_entry if fin_entry is not None else finally_entry,
            )
            if h_entry is not None:
                handler_entries.append(h_entry)
                handler_exits.extend(h_exits)

        inner_exc = handler_entries + (
            [fin_entry] if fin_entry is not None else list(exc_targets)
        )
        entry, b_exits = self._build_body(
            stmt.body, inner_exc or exc_targets, break_sink, continue_target,
            fin_entry if fin_entry is not None else finally_entry,
        )
        if stmt.orelse:
            e_entry, e_exits = self._build_body(
                stmt.orelse,
                [fin_entry] if fin_entry is not None else exc_targets,
                break_sink, continue_target,
                fin_entry if fin_entry is not None else finally_entry,
            )
            if e_entry is not None:
                for e in b_exits:
                    self.normal[e].add(e_entry)
                b_exits = e_exits
        tail = b_exits + handler_exits
        if fin_entry is not None:
            for e in tail:
                self.normal[e].add(fin_entry)
            return entry if entry is not None else fin_entry, fin_exits
        return entry, tail


def _is_arena_acquire(value: ast.expr) -> bool:
    if not isinstance(value, ast.Call):
        return False
    dotted = _dotted(value.func)
    if dotted is None:
        return False
    parts = dotted.split(".")
    if parts[-1] == "SharedMemory":
        return True
    return (
        len(parts) >= 2
        and parts[-1] in _ARENA_FACTORIES
        and parts[-2].endswith("Arena")
    )


def _stmt_parts(stmt: ast.stmt) -> List[ast.AST]:
    """The expressions a CFG node itself evaluates.

    Compound statements appear in the CFG as their header (the body
    statements are separate nodes), so classification must not peek
    into the body — an ``if`` whose body closes the handle does not
    discharge it on the else edge.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    return [stmt]


def _stmt_discharges(stmt: ast.stmt, var: str) -> bool:
    """Does this statement close, unlink, or leak-proof ``var``?

    Discharging moves: ``var.close()`` / ``var.unlink()`` (attempted
    counts — the mapping is gone either way), returning or yielding
    ``var``, passing ``var`` (or ``var.attr``) to any call, storing it
    on an attribute/subscript, aliasing it, capturing it in a nested
    scope, or rebinding the name.
    """
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return _mentions(stmt, var)  # closure capture: ownership moved
    if isinstance(stmt, ast.If) and _test_guards_var(stmt.test, var):
        # `if var is not None: ... var.close() ...` — when the handle is
        # live the guard is true, so a discharge anywhere in the body
        # covers every live path through this node.
        if any(_part_discharges(s, var) for s in stmt.body):
            return True
    for part in _stmt_parts(stmt):
        if _part_discharges(part, var):
            return True
    return False


def _test_guards_var(test: ast.expr, var: str) -> bool:
    """True for ``if var:`` / ``if var is not None:`` guard shapes."""
    if isinstance(test, ast.Name) and test.id == var:
        return True
    if (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == var
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.IsNot)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        return True
    return False


def _part_discharges(part: ast.AST, var: str) -> bool:
    for node in ast.walk(part):
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted in (f"{var}.close", f"{var}.unlink"):
                return True
            arg_exprs = list(node.args) + [kw.value for kw in node.keywords]
            if any(_mentions(a, var) for a in arg_exprs):
                return True
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            if node.value is not None and _mentions(node.value, var):
                return True
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    if _mentions(node.value, var):
                        return True
                if isinstance(target, ast.Name) and target.id == var:
                    return True  # rebinding: old handle is out of scope here
                if isinstance(target, ast.Name) and _mentions(node.value, var):
                    return True  # alias: the other name owns it now
    return False


def _check_shm_lifecycle(tree: ast.Module, path: str) -> List[Finding]:
    findings: List[Finding] = []
    for fn in _functions(tree):
        if _opted_out(fn, "shm-lifecycle"):
            continue
        acquires: List[Tuple[ast.stmt, str]] = []
        for stmt in ast.walk(fn):
            value: Optional[ast.expr] = None
            target: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                value, target = stmt.value, stmt.targets[0]
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value, target = stmt.value, stmt.target
            if (
                value is not None
                and isinstance(target, ast.Name)
                and _is_arena_acquire(value)
            ):
                acquires.append((stmt, target.id))
        if not acquires:
            continue
        cfg = _Cfg(fn)
        with_nodes = {
            id(item.context_expr)
            for stmt in ast.walk(fn)
            if isinstance(stmt, (ast.With, ast.AsyncWith))
            for item in stmt.items
        }
        node_of = {id(s): i for i, s in enumerate(cfg.nodes)}
        for acq_stmt, var in acquires:
            acq_id = node_of.get(id(acq_stmt))
            if acq_id is None:
                continue  # inside a nested def: analyzed there
            assert isinstance(acq_stmt, (ast.Assign, ast.AnnAssign))
            acq_value = acq_stmt.value
            if acq_value is not None and id(acq_value) in with_nodes:
                continue  # `with ... as var`: __exit__ closes
            if _leaks_on_some_path(cfg, acq_id, var):
                findings.append(
                    _finding(
                        "shm-lifecycle",
                        f"shared-memory handle {var!r} acquired here can "
                        f"leave {fn.name!r} without reaching close()/"
                        f"unlink() (exception paths count); wrap it in "
                        f"try/finally or a with-block",
                        path,
                        acq_stmt,
                    )
                )
    return findings


def _leaks_on_some_path(cfg: _Cfg, acq_id: int, var: str) -> bool:
    """Worklist over the CFG: can a LIVE handle reach function exit?"""
    work = list(cfg.normal[acq_id])  # exc edge from the acquire itself
    seen: Set[int] = set()           # means the assignment never happened
    while work:
        nid = work.pop()
        if nid == _Cfg.EXIT:
            return True
        if nid in seen:
            continue
        seen.add(nid)
        if _stmt_discharges(cfg.nodes[nid], var):
            continue  # handle is safe past this point on this path
        work.extend(cfg.normal[nid])
        work.extend(cfg.exc[nid])
    return False


# ---------------------------------------------------------------------------
# AL007: fork-unsafe module state
# ---------------------------------------------------------------------------

def _is_mutable_value(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        dotted = _dotted(value.func)
        if dotted is None:
            return False
        return dotted.split(".")[-1] in {
            "set", "list", "dict", "defaultdict", "deque", "OrderedDict",
            "Counter", "open",
        }
    return False


def _module_mutable_names(tree: ast.Module) -> Dict[str, int]:
    mutable: Dict[str, int] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if not _is_mutable_value(value):
            continue
        for t in targets:
            if isinstance(t, ast.Name):
                mutable[t.id] = stmt.lineno
    return mutable


def _worker_entry_names(tree: ast.Module) -> Set[str]:
    """Function names handed to Process/Thread targets or pool.submit."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        tail = dotted.split(".")[-1] if dotted else ""
        if tail in ("Process", "Thread"):
            for kw in node.keywords:
                if kw.arg == "target" and isinstance(kw.value, ast.Name):
                    names.add(kw.value.id)
        elif tail == "submit" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Name):
                names.add(first.id)
    return names


def _check_fork_unsafe_state(tree: ast.Module, path: str) -> List[Finding]:
    mutable = _module_mutable_names(tree)
    if not mutable:
        return []
    workers = _worker_entry_names(tree)
    if not workers:
        return []
    findings: List[Finding] = []
    for fn in _functions(tree):
        if fn.name not in workers or _opted_out(fn, "fork-unsafe-state"):
            continue
        touched: Dict[str, int] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                for name in node.names:
                    if name in mutable:
                        touched.setdefault(name, node.lineno)
            elif isinstance(node, ast.Name) and node.id in mutable:
                touched.setdefault(node.id, node.lineno)
        for name in sorted(touched):
            findings.append(
                _finding(
                    "fork-unsafe-state",
                    f"worker entry {fn.name!r} reads module-level mutable "
                    f"state {name!r} (defined at line {mutable[name]}): a "
                    f"forked worker sees a silent snapshot and a spawned "
                    f"one a fresh object — pass it through the task "
                    f"payload instead",
                    path,
                    fn,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# AL008: stdlib random
# ---------------------------------------------------------------------------

def _check_unseeded_rng(tree: ast.Module, path: str) -> List[Finding]:
    if _norm(path).endswith("utils/rng.py"):
        return []
    imported: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                imported.add(alias.asname or alias.name)
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        parts = dotted.split(".")
        hit = (len(parts) >= 2 and parts[0] == "random") or (
            len(parts) == 1 and parts[0] in imported
        )
        if hit:
            findings.append(
                _finding(
                    "unseeded-rng",
                    f"stdlib {dotted}() call: randomness outside the "
                    f"single-seed discipline — route through "
                    f"repro.utils.rng.ensure_rng so whole-system runs "
                    f"replay from one integer",
                    path,
                    node,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# AL009: unordered set iteration
# ---------------------------------------------------------------------------

_UNWRAP_CALLS = {"list", "tuple", "iter", "enumerate", "reversed"}


def _set_typed_names(scope: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in _walk_scope(scope):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or not _is_set_expr(value, set()):
            continue
        for t in targets:
            if isinstance(t, ast.Name):
                names.add(t.id)
    return names


def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        dotted = _dotted(node.func)
        if dotted in ("set", "frozenset"):
            return True
        if dotted in _UNWRAP_CALLS and node.args:
            return _is_set_expr(node.args[0], set_names)
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


def _check_unordered_iteration(tree: ast.Module, path: str) -> List[Finding]:
    findings: List[Finding] = []
    scopes: List[ast.AST] = [tree]
    scopes.extend(_functions(tree))
    module_sets = _set_typed_names(tree)
    for scope in scopes:
        fn = scope if isinstance(
            scope, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) else None
        if _opted_out(fn, "unordered-iteration"):
            continue
        set_names = set(module_sets)
        if fn is not None:
            set_names |= _set_typed_names(fn)
        for node in _walk_scope(scope):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp,
                       ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_expr(it, set_names):
                    findings.append(
                        _finding(
                            "unordered-iteration",
                            "iterating a set: order varies across "
                            "processes and hash seeds, so anything built "
                            "from this loop (merges, top-k feeds, "
                            "serialized output) is nondeterministic — "
                            "wrap the iterable in sorted(...)",
                            path,
                            it,
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# AL010: wall-clock / pid in returned values
# ---------------------------------------------------------------------------

def _wallclock_exempt(path: str) -> bool:
    p = _norm(path)
    return "/obs/" in p or "/analysis/" in p


def _contains_wallclock_call(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            dotted = _dotted(sub.func)
            if dotted in _WALLCLOCK_SOURCES:
                return True
    return False


def _check_wallclock_in_result(tree: ast.Module, path: str) -> List[Finding]:
    if _wallclock_exempt(path):
        return []
    findings: List[Finding] = []
    for fn in _functions(tree):
        if _opted_out(fn, "wallclock-in-result"):
            continue
        tainted: Set[str] = set()
        for stmt in _walk_scope(fn):
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = stmt.value
                if value is None:
                    continue
                dirty = _contains_wallclock_call(value) or any(
                    isinstance(s, ast.Name) and s.id in tainted
                    for s in ast.walk(value)
                )
                if not dirty:
                    continue
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for t in targets:
                    if isinstance(t, ast.Name):
                        tainted.add(t.id)
        for stmt in _walk_scope(fn):
            if not isinstance(stmt, ast.Return) or stmt.value is None:
                continue
            if _contains_wallclock_call(stmt.value) or any(
                isinstance(s, ast.Name) and s.id in tainted
                for s in ast.walk(stmt.value)
            ):
                findings.append(
                    _finding(
                        "wallclock-in-result",
                        f"{fn.name!r} returns a value derived from "
                        f"wall-clock/pid: results must replay bit-exactly "
                        f"from the seed — wall-clock belongs in the "
                        f"observability layer",
                        path,
                        stmt,
                    )
                )
        # Comparisons/logging of wall-clock inside the function are fine;
        # only returned values are policed.
    return findings


# ---------------------------------------------------------------------------
# AL011: unstable argsort in result paths
# ---------------------------------------------------------------------------

def _unstable_sort_scoped(path: str) -> bool:
    p = _norm(path)
    return any(seg in p for seg in ("/core/", "/ann/", "/pim/", "/cluster/"))


def _check_unstable_sort(tree: ast.Module, path: str) -> List[Finding]:
    if not _unstable_sort_scoped(path):
        return []
    findings: List[Finding] = []
    opted: Set[int] = set()
    for fn in _functions(tree):
        if _opted_out(fn, "unstable-sort"):
            opted.update(id(n) for n in ast.walk(fn))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in opted:
            continue
        dotted = _dotted(node.func)
        tail = None
        if dotted is not None:
            tail = dotted.split(".")[-1]
        elif isinstance(node.func, ast.Attribute):
            tail = node.func.attr  # method call on a non-Name chain
        if tail != "argsort":
            continue
        kind = None
        for kw in node.keywords:
            if kw.arg == "kind" and isinstance(kw.value, ast.Constant):
                kind = kw.value.value
        if kind not in _STABLE_SORT_KINDS:
            findings.append(
                _finding(
                    "unstable-sort",
                    "argsort without kind='stable' in a result-producing "
                    "path: numpy's default introsort orders equal keys by "
                    "memory layout, so ties land platform-dependently",
                    path,
                    node,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# AL012: leaked worker threads/processes/executors
# ---------------------------------------------------------------------------

def _check_leaked_worker(tree: ast.Module, path: str) -> List[Finding]:
    findings: List[Finding] = []
    for fn in _functions(tree):
        if _opted_out(fn, "leaked-worker"):
            continue
        spawned: List[Tuple[ast.stmt, str, str]] = []
        for stmt in _walk_scope(fn):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if not isinstance(stmt.value, ast.Call):
                continue
            dotted = _dotted(stmt.value.func)
            if dotted is None:
                continue
            tail = dotted.rpartition(".")[2]
            if tail in _WORKER_FACTORIES:
                spawned.append((stmt, target.id, tail))
        for stmt, var, kind in spawned:
            if _worker_discharged(fn, stmt, var):
                continue
            findings.append(
                _finding(
                    "leaked-worker",
                    f"{kind} {var!r} is created in {fn.name!r} but never "
                    f"joined, shut down, or handed to an owner; the "
                    f"worker outlives the function unsupervised",
                    path,
                    stmt,
                )
            )
    return findings


def _worker_discharged(fn: _FuncDef, acq_stmt: ast.stmt, var: str) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is not None and "." in dotted:
                head, _, tail = dotted.rpartition(".")
                if head == var and tail in _WORKER_DISCHARGE_METHODS:
                    return True
            arg_exprs = list(node.args) + [kw.value for kw in node.keywords]
            if any(_mentions(a, var) for a in arg_exprs):
                return True
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            if node.value is not None and _mentions(node.value, var):
                return True
        elif isinstance(node, ast.Assign) and node is not acq_stmt:
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    if _mentions(node.value, var):
                        return True
                if isinstance(target, ast.Name) and _mentions(node.value, var):
                    return True
    return False


# ---------------------------------------------------------------------------
# Entry points (mirror astlint's: source / file / tree)
# ---------------------------------------------------------------------------

_ALL_RULES = (
    _check_shm_lifecycle,
    _check_fork_unsafe_state,
    _check_unseeded_rng,
    _check_unordered_iteration,
    _check_wallclock_in_result,
    _check_unstable_sort,
    _check_leaked_worker,
)


def lint_source(source: str, path: str) -> List[Finding]:
    """Run every concurrency rule on one source string at ``path``."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                checker="concurrency",
                rule="syntax-error",
                severity=Severity.ERROR,
                message=f"cannot parse: {exc.msg}",
                file=_norm(path),
                line=exc.lineno,
            )
        ]
    findings: List[Finding] = []
    for rule in _ALL_RULES:
        findings += rule(tree, path)
    return findings


def lint_file(path: str) -> List[Finding]:
    with open(path, encoding="utf-8") as f:
        return lint_source(f.read(), path)


def lint_tree(root: str) -> List[Finding]:
    """Lint every ``.py`` file under ``root`` (a package directory)."""
    findings: List[Finding] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d not in ("__pycache__", ".git")
        )
        for name in sorted(filenames):
            if name.endswith(".py"):
                findings += lint_file(os.path.join(dirpath, name))
    return findings
