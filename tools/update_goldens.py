#!/usr/bin/env python
"""Regenerate the frozen golden regression fixtures.

Reruns every canonical configuration (``repro.testing.goldens``) and
rewrites ``tests/fixtures/golden_cycles.json`` with the observed
recall@10 (vs the exact brute-force oracle) and per-kernel /
end-to-end cycle counts, plus ``tests/fixtures/golden_adaptive.json``
with the same records for the frozen adaptive-probing cells
(``adaptive="bound"`` / ``"budget"`` per config).
``tests/test_golden_cycles.py`` and ``tests/test_diff_exact.py`` then
fail on *any* drift from the stored values.

Regenerating goldens is a deliberate act, not a fix for a red test:
it is legitimate only when a change is *supposed* to alter the frozen
numbers — a cost-model correction, a new kernel term, an intentional
recall-affecting change — and the new values have been reviewed. See
docs/testing.md ("Golden regeneration"). Run with ``--check`` to
verify the stored files match a fresh run without writing anything
(exit 1 on drift).

Usage::

    PYTHONPATH=src python tools/update_goldens.py [--check]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(
    REPO_ROOT, "tests", "fixtures", "golden_cycles.json"
)
GOLDEN_ADAPTIVE_PATH = os.path.join(
    REPO_ROOT, "tests", "fixtures", "golden_adaptive.json"
)


def _check_one(path: str, fresh: dict) -> int:
    """Compare one fixture file against a fresh run; 0 iff identical."""
    if not os.path.exists(path):
        print(f"no goldens at {path}; run without --check first")
        return 1
    with open(path) as f:
        stored = json.load(f)
    if stored == json.loads(json.dumps(fresh)):
        print(f"{os.path.basename(path)} up to date ({len(fresh)} configs)")
        return 0
    for name in sorted(set(stored) | set(fresh)):
        if stored.get(name) != json.loads(json.dumps(fresh.get(name))):
            print(f"drift in {name!r} ({os.path.basename(path)}):")
            print(f"  stored: {stored.get(name)}")
            print(f"  fresh:  {fresh.get(name)}")
    return 1


def _write_one(path: str, fresh: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(fresh, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.testing import run_all_adaptive, run_all_canonical

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare a fresh run against the stored goldens; write "
        "nothing, exit 1 on drift",
    )
    args = parser.parse_args(argv)

    fresh = run_all_canonical()
    fresh_adaptive = run_all_adaptive()
    if args.check:
        rc = _check_one(GOLDEN_PATH, fresh)
        rc |= _check_one(GOLDEN_ADAPTIVE_PATH, fresh_adaptive)
        return rc

    for name, g in fresh.items():
        cycles = {k: round(v) for k, v in g["kernel_cycles"].items()}
        print(f"{name}: recall@10={g['recall_at_10']:.4f} cycles={cycles}")
    for name, modes in fresh_adaptive.items():
        for mode, g in modes.items():
            print(
                f"{name}[adaptive={mode}]: recall@10={g['recall_at_10']:.4f} "
                f"total_cycles={g['total_kernel_cycles']:.0f} "
                f"probes={g.get('total_probes_executed')}"
            )
    _write_one(GOLDEN_PATH, fresh)
    _write_one(GOLDEN_ADAPTIVE_PATH, fresh_adaptive)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
