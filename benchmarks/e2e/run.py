#!/usr/bin/env python3
"""The repo benchmark: one command for every workload and metric.

    python3 benchmarks/e2e/run.py                      # all workloads, both runs
    python3 benchmarks/e2e/run.py --workload skew_hot  # one workload, end to end
    python3 benchmarks/e2e/run.py --workload skew_hot --trace 1 --out t.json
    python3 benchmarks/e2e/run.py --smoke              # self-test, about 15 s

With ``--workload`` the workload is measured in this process and the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``.  Without it, each workload is run
twice (untraced, then traced), each run in a fresh subprocess, and
every metric is printed by name with its unit.  The exit code is
non-zero when any output was wrong.

See README.md in this directory for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"

#: Engine knobs (REPRO_WORKERS, REPRO_KERNEL_WORKERS, REPRO_KERNEL_CHUNK_ROWS,
#: REPRO_PIPELINE) must not leak in from the caller's environment.
SCRUBBED_PREFIX = "REPRO_"

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared() -> dict:
    """The benchmark's contract: ``BENCHMARK.json`` at the repo root."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def check_names(record: dict, contract: dict, trace: bool) -> list[str]:
    """Problems with a result's metric names and units against the contract."""
    section = contract["per_layer" if trace else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in section}
    got = {name: metric.get("unit") for name, metric in record["metrics"].items()}
    problems = [f"metric {name!r} is not a valid name" for name in got if not NAME.fullmatch(name)]
    problems += [f"metric {name!r} carries no unit" for name, unit in got.items() if not unit]
    if got != expected:
        problems.append(
            "metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(got))}, "
            f"undeclared {sorted(set(got) - set(expected))}, "
            f"unit changed {sorted(n for n in set(got) & set(expected) if got[n] != expected[n])}"
        )
    return problems


def keep_freed_memory() -> None:
    """Make glibc's allocator reuse freed blocks instead of unmapping them.

    Noise control for the sandbox: the first touch of a page costs about
    14 us in this VM, and by default every large array is mapped afresh
    and unmapped when freed, so a run's time depends on what the kernel
    hands back (up to 3x on ``skew_hot``; 20 % of the process's time was
    system time).  Serving large blocks from the heap and never trimming
    it makes each page fault once per process.  It must run before numpy
    allocates; on a libc without ``mallopt`` it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    mallopt(m_mmap_threshold, 1 << 30)
    mallopt(m_trim_threshold, 2**31 - 1)
    mallopt(m_top_pad, 64 << 20)


def print_metrics(workload: str, record: dict) -> None:
    for name, metric in record["metrics"].items():
        print(f"{workload:14s} {name:42s} {metric['value']:>18.6g} {metric['unit']}")


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------


def run_single(args, contract: dict) -> int:
    for key in [k for k in os.environ if k.startswith(SCRUBBED_PREFIX)]:
        del os.environ[key]
    if not (SOURCE / "repro").is_dir():
        print(f"error: the program's source is missing: {SOURCE / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    keep_freed_memory()
    from measure import run_workload  # imports numpy and the program

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    detail = record.pop("detail")
    problems = check_names(record, contract, bool(args.trace))
    for message in detail["failures"] + problems:
        print(f"FAILED: {message}", file=sys.stderr)
    if problems:
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {"workload": args.workload, "seed": args.seed, **record, "detail": detail}, handle
            )
    detail.pop("spans", None)
    print_metrics(args.workload, record)
    if args.detail:
        record["detail"] = detail
    print(json.dumps(record))
    return 0 if record["correct"] else 1


# ---------------------------------------------------------------------------
# Every workload, each run in a subprocess of its own
# ---------------------------------------------------------------------------


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _child(workload: str, trace: int, args) -> dict | None:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--detail",
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        print(f"error: {workload} (trace {trace}) exited {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_all(args, contract: dict) -> int:
    import numpy

    names = [workload["name"] for workload in contract["workloads"]]
    report = {
        "meta": {
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "commit": _commit(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "claim": None,
        },
        "workloads": {},
    }
    broken = False
    for name in names:
        entry = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            record = _child(name, trace, args)
            if record is None:
                broken = True
                continue
            print_metrics(name, record)
            detail = record.pop("detail")
            entry[section] = record.pop("metrics")
            entry[f"{section}_run"] = {**record, **detail}
            broken |= not record["correct"]
        attempted = sum(entry[key]["attempted"] for key in entry if key.endswith("_run"))
        failed = sum(entry[key]["failed"] for key in entry if key.endswith("_run"))
        entry["failed_share"] = failed / attempted if attempted else 1.0
        print(f"{name:14s} {'failed_share':42s} {entry['failed_share']:>18.6g} ratio")
        report["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    if args.smoke and not broken:
        problems = smoke_problems(report, contract)
        for message in problems:
            print(f"FAILED: {message}", file=sys.stderr)
        broken = bool(problems)
        print("smoke: " + ("FAILED" if broken else "ok"))
    return 1 if broken else 0


def smoke_problems(report: dict, contract: dict) -> list[str]:
    """The output schema the self-test asserts (names were checked per run)."""
    problems = []
    if not 1 <= len(contract["end_to_end"]) <= 16:
        problems.append("BENCHMARK.json must declare 1 to 16 end-to-end metrics")
    if not 1 <= len(contract["per_layer"]) <= 128:
        problems.append("BENCHMARK.json must declare 1 to 128 per-layer metrics")
    for name, entry in report["workloads"].items():
        if entry["failed_share"] != 0:
            problems.append(f"{name}: failed_share is {entry['failed_share']}, not 0")
        for metric, value in entry["end_to_end"].items():
            if not value["value"] > 0:
                problems.append(f"{name}: end-to-end metric {metric} must be above 0")
    return problems


def main(argv=None) -> int:
    contract = declared()
    workloads = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads, help="measure this one, in-process")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument(
        "--seconds", type=float, default=float(contract["run_seconds"]),
        help="seconds of measuring per run (default: run_seconds of BENCHMARK.json)",
    )  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    parser.add_argument("--out", help="also write the results (and a traced run's spans) here")
    parser.add_argument(
        "--smoke", action="store_true", help="1/50 size, 2 rounds, schema asserted; no timing use"
    )
    parser.add_argument("--detail", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload:
        return run_single(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
