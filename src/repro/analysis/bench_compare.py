"""Compare two ``BENCH_kernel.json`` ledgers exactly.

The ledger (:mod:`repro.api.perf`) holds one row per ``bench/scenario``
key and every field of a row is deterministic, so two ledgers written by
the same benches are equal or simulated behaviour moved.
:func:`compare_bench_files` lists every difference — a row on one side
only, or a shared row whose ``params`` or counters differ;
``python -m repro.analysis.bench_compare`` prints them and is the gate CI
runs on the committed file against a regenerated one::

    $ python -m repro.analysis.bench_compare committed.json BENCH_kernel.json
    e1_gsm_degradation/gsm-M4: process_activations 8351 → 8352
    e7_cache_sensitivity/geom4x1x16-s1: removed

Exit status: 0 when the ledgers match, 1 when they differ, 2 when either
file is missing, unreadable, not a ledger or holds no rows.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from ..api.perf import LEDGER_FIELDS, BenchFileError, load_bench_entries


def compare_bench_entries(old: Dict[str, dict], new: Dict[str, dict]
                          ) -> List[dict]:
    """Every difference between two entry maps, sorted by key.

    A key on one side only gives one ``added`` (only in ``new``) or
    ``removed`` (only in ``old``) row; a shared key gives one ``changed``
    row per differing field, carrying ``field``, ``old`` and ``new``.
    """
    rows: List[dict] = []
    for key in sorted(set(old) | set(new)):
        if key not in old:
            rows.append({"key": key, "status": "added"})
        elif key not in new:
            rows.append({"key": key, "status": "removed"})
        else:
            rows.extend(
                {"key": key, "status": "changed", "field": name,
                 "old": old[key].get(name), "new": new[key].get(name)}
                for name in ("params",) + LEDGER_FIELDS
                if old[key].get(name) != new[key].get(name))
    return rows


def compare_bench_files(old_path: str, new_path: str) -> List[dict]:
    """Load two ledger files and list their differences."""
    return compare_bench_entries(load_bench_entries(old_path),
                                 load_bench_entries(new_path))


def format_comparison(rows: List[dict]) -> str:
    """One line per difference: ``key: field old → new`` or ``key: status``."""
    if not rows:
        return "ledgers match"
    return "\n".join(
        f"{row['key']}: {row['field']} {row['old']} → {row['new']}"
        if row["status"] == "changed" else f"{row['key']}: {row['status']}"
        for row in rows)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; see the module docstring for the exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.bench_compare",
        description="Compare two BENCH_kernel.json ledgers exactly.",
    )
    parser.add_argument("old", help="baseline BENCH_kernel.json")
    parser.add_argument("new", help="candidate BENCH_kernel.json")
    args = parser.parse_args(argv)
    sides = []
    for path in (args.old, args.new):
        try:
            entries = load_bench_entries(path)
        except BenchFileError as error:
            print(error, file=sys.stderr)
            return 2
        if not entries:
            print(f"{path}: no ledger rows (file missing or empty)",
                  file=sys.stderr)
            return 2
        sides.append(entries)
    rows = compare_bench_entries(*sides)
    print(format_comparison(rows))
    return 1 if rows else 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() tests
    sys.exit(main())
