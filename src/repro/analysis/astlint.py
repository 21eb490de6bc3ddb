"""AST lint rules over the package source (stdlib ``ast``, no deps).

Rules (ids are stable; each finding carries file:line + severity):

* ``kernel-traffic`` (AL001) — a function in ``pim/kernels/`` that
  indexes arrays but never references ``MemoryTraffic`` is moving
  bytes the timing model will never see. Two escapes reflect the
  cost/function split: delegating to a ``*_cost`` helper (the closed
  form constructs the traffic) counts as charging, and a pure
  functional helper may opt out by declaring ``No cost accounting`` in
  its docstring (its callers charge the closed form; AL005 still
  polices uncharged ``run_*`` call sites).
* ``rng-bypass`` (AL002) — direct ``np.random.*(...)`` calls outside
  ``utils/rng.py`` break single-seed reproducibility; route through
  :func:`repro.utils.rng.ensure_rng`.
* ``float-in-integer-path`` (AL003) — introducing float dtypes in the
  DPU integer paths (``pim/kernels/``, ``pim/microcode.py``): DPUs
  have no FPU, and the quantized pipeline defines bit-exact truth.
* ``mutable-default`` (AL004) — mutable dataclass field defaults
  (list/dict/set literals, or ``field(default=<mutable>)``) shared
  across instances.
* ``uncharged-kernel-call`` (AL005) — a function that invokes a
  ``run_*`` PIM kernel but never charges its cost (``_charge`` /
  ``charge``) produces cycles and traffic the timing model and the
  observability layer never see. The kernel package itself (the
  definitions), the backend package (host math only; its microbench
  times the staged kernels as references) and ``analysis/`` (the cost
  cross-checker deliberately runs kernels standalone) are exempt.
* ``kernel-registry-bypass`` (AL013) — calling the staged scan
  internals (``scan_distances`` / ``scan_distances_stacked``) or the
  staged LUT build (``run_lut_build``) directly instead of going
  through the host kernels of ``repro.pim.backend``. Direct calls
  silently pin the slow staged reference implementation on the hot
  path. The kernel and backend packages (the definitions and the
  microbench that times them) and ``analysis/`` are exempt. (AL006–AL012 are the concurrency sanitizer's rules — see
  :mod:`repro.analysis.concurrency`.)
"""

from __future__ import annotations

import ast
import os
from typing import List, Optional

from repro.analysis.findings import Finding, Severity

_FLOAT_DTYPE_NAMES = {
    "float",
    "float16",
    "float32",
    "float64",
    "float128",
    "floating",
    "double",
    "single",
    "half",
}
_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)
_KERNEL_RUNNERS = {
    "run_cluster_locate",
    "run_residual",
    "run_lut_build",
    "run_distance_scan",
    "run_topk_sort",
}
_CHARGE_NAMES = {"_charge", "charge"}


def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


def _is_kernel_file(path: str) -> bool:
    p = _norm(path)
    return "/pim/kernels/" in p and not p.endswith("__init__.py")


def _is_integer_path_file(path: str) -> bool:
    p = _norm(path)
    return _is_kernel_file(p) or p.endswith("pim/microcode.py")


def _is_rng_module(path: str) -> bool:
    return _norm(path).endswith("utils/rng.py")


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


def _names_float_dtype(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _FLOAT_DTYPE_NAMES
    if isinstance(node, ast.Attribute):
        dotted = _dotted(node)
        return dotted is not None and dotted.split(".")[-1] in _FLOAT_DTYPE_NAMES
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in _FLOAT_DTYPE_NAMES or node.value.startswith("float")
    return False


def _finding(
    rule: str, severity: Severity, message: str, path: str, node: ast.AST
) -> Finding:
    return Finding(
        checker="ast",
        rule=rule,
        severity=severity,
        message=message,
        file=_norm(path),
        line=getattr(node, "lineno", None),
    )


# ---------------------------------------------------------------- rules
def _check_kernel_traffic(tree: ast.Module, path: str) -> List[Finding]:
    if not _is_kernel_file(path):
        return []
    findings: List[Finding] = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        has_subscript = any(
            isinstance(sub, ast.Subscript) for sub in ast.walk(node)
        )
        charges_traffic = any(
            isinstance(sub, ast.Name) and sub.id == "MemoryTraffic"
            for sub in ast.walk(node)
        )
        # Delegating to a closed-form cost helper charges the same
        # traffic the inline construction would have.
        if not charges_traffic:
            charges_traffic = any(
                isinstance(sub, ast.Call)
                and (dotted := _dotted(sub.func)) is not None
                and dotted.split(".")[-1].endswith("_cost")
                for sub in ast.walk(node)
            )
        # Pure functional helpers opt out explicitly: their callers
        # charge the closed-form cost (AL005 polices run_* call sites).
        doc = ast.get_docstring(node) or ""
        if "No cost accounting" in doc:
            continue
        if has_subscript and not charges_traffic:
            findings.append(
                _finding(
                    "kernel-traffic",
                    Severity.ERROR,
                    f"kernel function {node.name!r} accesses array elements "
                    f"but never charges MemoryTraffic; the timing model "
                    f"will not see these bytes",
                    path,
                    node,
                )
            )
    return findings


def _check_rng_bypass(tree: ast.Module, path: str) -> List[Finding]:
    if _is_rng_module(path):
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        parts = dotted.split(".")
        if len(parts) >= 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
            findings.append(
                _finding(
                    "rng-bypass",
                    Severity.ERROR,
                    f"direct {dotted}() call bypasses utils/rng.py; accept a "
                    f"seed and normalize it with ensure_rng() so whole-system "
                    f"runs stay reproducible from one integer",
                    path,
                    node,
                )
            )
    return findings


def _check_float_in_integer_path(tree: ast.Module, path: str) -> List[Finding]:
    if not _is_integer_path_file(path):
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        flagged = None
        # x.astype(np.float32) / x.astype("float64") / x.astype(float)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and node.args
            and _names_float_dtype(node.args[0])
        ):
            flagged = "astype(<float dtype>)"
        # np.float32(...) constructor casts
        elif isinstance(node.func, ast.Attribute):
            dotted = _dotted(node.func)
            if (
                dotted
                and dotted.split(".")[0] in ("np", "numpy")
                and dotted.split(".")[-1] in _FLOAT_DTYPE_NAMES - {"float"}
            ):
                flagged = f"{dotted}(...)"
        # dtype=float keywords on any call
        if flagged is None:
            for kw in node.keywords:
                if kw.arg == "dtype" and _names_float_dtype(kw.value):
                    flagged = "dtype=<float>"
                    break
        if flagged:
            findings.append(
                _finding(
                    "float-in-integer-path",
                    Severity.ERROR,
                    f"{flagged} in a DPU integer path: DPUs have no FPU and "
                    f"the quantized pipeline defines bit-exact truth",
                    path,
                    node,
                )
            )
    return findings


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        dotted = _dotted(target)
        if dotted and dotted.split(".")[-1] == "dataclass":
            return True
    return False


def _check_mutable_default(tree: ast.Module, path: str) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not _is_dataclass_decorated(node):
            continue
        for stmt in node.body:
            value = None
            if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value = stmt.value
            elif isinstance(stmt, ast.Assign):
                value = stmt.value
            if value is None:
                continue
            bad = None
            if isinstance(value, _MUTABLE_LITERALS):
                bad = "a mutable literal"
            elif isinstance(value, ast.Call):
                dotted = _dotted(value.func)
                if dotted and dotted.split(".")[-1] == "field":
                    for kw in value.keywords:
                        if kw.arg == "default" and isinstance(
                            kw.value, _MUTABLE_LITERALS
                        ):
                            bad = "field(default=<mutable literal>)"
                            break
            if bad:
                findings.append(
                    _finding(
                        "mutable-default",
                        Severity.ERROR,
                        f"dataclass field in {node.name!r} uses {bad} as its "
                        f"default; one object would be shared by every "
                        f"instance — use field(default_factory=...)",
                        path,
                        stmt,
                    )
                )
    return findings


def _is_charge_exempt_file(path: str) -> bool:
    p = _norm(path)
    return "/pim/kernels/" in p or "/pim/backend/" in p or "/analysis/" in p


def _check_uncharged_kernel_call(tree: ast.Module, path: str) -> List[Finding]:
    if _is_charge_exempt_file(path):
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        kernels_called = set()
        charges = False
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            dotted = _dotted(sub.func)
            if dotted is None:
                continue
            tail = dotted.split(".")[-1]
            if tail in _KERNEL_RUNNERS:
                kernels_called.add(tail)
            elif tail in _CHARGE_NAMES:
                charges = True
        if kernels_called and not charges:
            names = ", ".join(sorted(kernels_called))
            findings.append(
                _finding(
                    "uncharged-kernel-call",
                    Severity.ERROR,
                    f"function {node.name!r} runs PIM kernel(s) {names} but "
                    f"never charges the cost (_charge/charge); the cycles "
                    f"and traffic are invisible to the timing model and "
                    f"the metrics layer",
                    path,
                    node,
                )
            )
    return findings


_REGISTRY_INTERNALS = {"scan_distances", "scan_distances_stacked", "run_lut_build"}


def _is_registry_exempt_file(path: str) -> bool:
    p = _norm(path)
    return (
        "/pim/kernels/" in p or "/pim/backend/" in p or "/analysis/" in p
    )


def _check_registry_bypass(tree: ast.Module, path: str) -> List[Finding]:
    if _is_registry_exempt_file(path):
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        tail = dotted.split(".")[-1]
        if tail in _REGISTRY_INTERNALS:
            findings.append(
                _finding(
                    "kernel-registry-bypass",
                    Severity.ERROR,
                    f"direct call to kernel internal {tail!r} bypasses the "
                    f"repro.pim.backend host kernels; it pins the staged "
                    f"reference implementation — scan and build LUTs "
                    f"through resolve_backend() instead",
                    path,
                    node,
                )
            )
    return findings


_ALL_RULES = (
    _check_kernel_traffic,
    _check_rng_bypass,
    _check_float_in_integer_path,
    _check_mutable_default,
    _check_uncharged_kernel_call,
    _check_registry_bypass,
)


# ---------------------------------------------------------------- entry
def lint_source(source: str, path: str) -> List[Finding]:
    """Lint one source string as if it lived at ``path``."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                checker="ast",
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
