#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``: baseline, then candidate.

    python3 benchmarks/e2e/compare.py A.json B.json

Prints one row per (workload, metric) with a verdict:

``same``        within the metric's bound (exact metrics: equal);
``worse``       worse than the baseline by more than the bound;
``better``      better by more than the bound;
``unresolved``  beyond the bound, but the samples inside either run
                spread wider than the bound, so one run each cannot tell.

Bounds and directions come from ``BENCHMARK.json``.  Byte counts, the
modelled time and every traced count are exact: when both files used
the same seed they must be equal, and any difference is ``better`` or
``worse`` by the metric's direction.  Per-layer times have no bound and
are not judged.  Exits 1 on any ``worse`` or on a higher
``failed_share``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: End-to-end metrics that repeat exactly for one seed and commit.
EXACT = {
    "tj4_net_bytes",
    "tj4_bytes_vs_hj",
    "tj4_max_recv_bytes",
    "shard_max_recv_bytes",
    "tj4_modelled_s",
}
#: Per-layer metrics with these units are counts read off the program.
EXACT_UNITS = {"count", "B"}


def verdict(old: float, new: float, better: str, bound: float, exact: bool, spread: float) -> str:
    if old == new:
        return "same"
    worsening = (new - old) / abs(old) if old else float("inf") * (new - old)
    if better == "higher":
        worsening = -worsening
    if exact:
        return "worse" if worsening > 0 else "better"
    if abs(worsening) <= bound:
        return "same"
    if spread > bound:
        return "unresolved"
    return "worse" if worsening > 0 else "better"


def compare(baseline: dict, candidate: dict, contract: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, old, new, unit, verdict)`` and the exit flag."""
    same_seed = baseline["meta"]["seed"] == candidate["meta"]["seed"]
    rows = []
    failed = False
    for workload in (w["name"] for w in contract["workloads"]):
        old_entry = baseline["workloads"].get(workload)
        new_entry = candidate["workloads"].get(workload)
        if old_entry is None or new_entry is None:
            rows.append((workload, "-", None, None, "", "missing"))
            failed = True
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            spread = max(
                entry["end_to_end_run"]["spread"].get(name, 0.0) for entry in (old_entry, new_entry)
            )
            old = old_entry["end_to_end"][name]["value"]
            new = new_entry["end_to_end"][name]["value"]
            exact = same_seed and name in EXACT
            result = verdict(old, new, metric["better"], metric["bound"], exact, spread)
            rows.append((workload, name, old, new, metric["unit"], result))
        for metric in contract["per_layer"]:
            if not (same_seed and metric["unit"] in EXACT_UNITS):
                continue
            name = metric["name"]
            old = old_entry["per_layer"][name]["value"]
            new = new_entry["per_layer"][name]["value"]
            rows.append(
                (workload, name, old, new, metric["unit"],
                 verdict(old, new, metric["better"], 0.0, True, 0.0))
            )  # fmt: skip
        old, new = old_entry["failed_share"], new_entry["failed_share"]
        rows.append(
            (workload, "failed_share", old, new, "ratio", "worse" if new > old else "same")
        )
    failed |= any(row[5] == "worse" for row in rows)
    return rows, failed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    baseline, candidate = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    rows, failed = compare(baseline, candidate, contract)
    for workload, name, old, new, unit, result in rows:
        if old is None:
            print(f"{workload:14s} {name:42s} {result}")
        else:
            print(f"{workload:14s} {name:42s} {old:>14.6g} {new:>14.6g} {unit:6s} {result}")
    counts: dict[str, int] = {}
    for row in rows:
        counts[row[5]] = counts.get(row[5], 0) + 1
    print("verdicts: " + ", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
