#!/usr/bin/env python
"""Generate docs/api.md from the package's public surface.

Walks ``repro``'s public modules, collects every name exported via
``__all__``, and emits a markdown reference with signatures and
first-paragraph docstrings. Regenerate after API changes::

    python tools/gen_api_docs.py

``--check`` writes nothing and exits 1 when ``docs/api.md`` differs
from the generated text (CI runs it)::

    python tools/gen_api_docs.py --check
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import os
import sys
from typing import List

PUBLIC_MODULES = [
    "repro",
    "repro.ann",
    "repro.data",
    "repro.pim",
    "repro.core",
    "repro.obs",
    "repro.analysis",
    "repro.baselines",
    "repro.tuning",
]

EXTRA_MODULES = [
    "repro.pim.trace",
    "repro.pim.microcode",
    "repro.core.adaptive",
    "repro.core.config",
    "repro.core.results",
    "repro.core.persist",
    "repro.core.serving",
    "repro.core.autotune",
    "repro.core.opq_preprocess",
    "repro.data.analysis",
    "repro.data.io_vecs",
    "repro.analysis.concurrency",
    "repro.analysis.sanitizer",
    "repro.pim.backend",
]


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    para = doc.split("\n\n", 1)[0].replace("\n", " ").strip()
    return para


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(...)"


def describe(name: str, obj) -> List[str]:
    lines: List[str] = []
    if inspect.isclass(obj):
        lines.append(f"### `{name}`\n")
        lines.append(first_paragraph(obj) + "\n")
        methods = [
            (m, fn)
            for m, fn in inspect.getmembers(obj, predicate=inspect.isfunction)
            if not m.startswith("_")
        ]
        for m, fn in sorted(methods):
            if fn.__qualname__.split(".")[0] != obj.__name__:
                continue  # inherited
            lines.append(f"- `{m}{signature_of(fn)}` — {first_paragraph(fn)}")
        if methods:
            lines.append("")
    elif inspect.isfunction(obj):
        lines.append(f"### `{name}{signature_of(obj)}`\n")
        lines.append(first_paragraph(obj) + "\n")
    return lines


def generate() -> str:
    out: List[str] = [
        "# API reference\n",
        "Auto-generated by `tools/gen_api_docs.py` — do not edit by hand.\n",
    ]
    seen = set()
    for modname in PUBLIC_MODULES + EXTRA_MODULES:
        mod = importlib.import_module(modname)
        names = getattr(mod, "__all__", None)
        if names is None:
            names = [
                n
                for n, o in inspect.getmembers(mod)
                if not n.startswith("_")
                and (inspect.isclass(o) or inspect.isfunction(o))
                and getattr(o, "__module__", "").startswith(modname)
            ]
        fresh = []
        for n in names:
            obj = getattr(mod, n, None)
            if obj is None or not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            key = getattr(obj, "__module__", modname) + "." + n
            if key in seen:
                continue
            seen.add(key)
            fresh.append((n, obj))
        if not fresh:
            continue
        out.append(f"\n## `{modname}`\n")
        mod_doc = first_paragraph(mod)
        if mod_doc:
            out.append(mod_doc + "\n")
        for n, obj in fresh:
            out.extend(describe(n, obj))
    return "\n".join(out) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="write nothing; exit 1 when docs/api.md is stale",
    )
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.join(root, "docs", "api.md")
    text = generate()
    if args.check:
        with open(target) as f:
            current = f.read()
        if current != text:
            print(
                f"{target} is stale; regenerate with python tools/gen_api_docs.py",
                file=sys.stderr,
            )
            return 1
        print(f"{target} is up to date")
        return 0
    with open(target, "w") as f:
        f.write(text)
    print(f"wrote {target} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
