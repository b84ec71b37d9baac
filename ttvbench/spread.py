"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage, from the repository root::

    # N untraced runs of one workload, seeds base..base+N-1
    python3 ttvbench/spread.py run --workload verify-serial --runs 10 \\
        --seconds 10 --seed-base 100 --out spread-a.json
    # two sets of runs of the same code (or parent vs change)
    python3 ttvbench/spread.py compare spread-a.json spread-b.json

``run`` prints each metric's median, quartiles and interquartile range
as a share of the median next to the metric's bound from
``BENCHMARK.json``, and saves the runs with the machine fingerprint
(CPU count, Python version, git commit) and each run's host-speed
sample summary (see ``ttvbench/host.py``).  ``compare`` reports, per metric, how far the second set's
median moved from the first's in the metric's worse direction.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from ttvbench import stats  # noqa: E402


def bounds() -> dict[str, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {entry["name"]: entry
                for entry in json.load(handle)["end_to_end"]}


def fingerprint() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=30).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git": sha}


def one_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run with seed {seed} failed "
                         f"(exit {out.returncode}):\n{out.stderr[-2000:]}")
    detail, record = json.loads(lines[-2]), json.loads(lines[-1])
    return {"seed": seed, "host": detail["host"],
            "correct": record["correct"],
            "metrics": {name: entry["value"]
                        for name, entry in record["metrics"].items()}}


def summarize(runs: list[dict]) -> dict[str, dict]:
    table = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name] for run in runs]
        q1, q2, q3 = stats.quartiles(values)
        table[name] = {"median": q2, "q1": q1, "q3": q3,
                       "iqr_share": (q3 - q1) / q2 if q2 else 0.0}
    return table


def print_summary(table: dict[str, dict]) -> None:
    limits = bounds()
    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6}")
    for name, row in sorted(table.items()):
        bound = limits.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s" \
                and row["iqr_share"] > bound / 3:
            flag = "  > bound/3"
        print(f"{name:24} {row['median']:12.6g} {row['q1']:12.6g} "
              f"{row['q3']:12.6g} {row['iqr_share']:8.4f} "
              f"{bound if bound is not None else '-':>6}{flag}")


def compare(first: dict, second: dict) -> int:
    """Print how the second set moved against the first; return the
    number of metrics that got worse by more than their bound."""
    limits = bounds()
    worse = 0
    a, b = summarize(first["runs"]), summarize(second["runs"])
    if first["fingerprint"] != second["fingerprint"]:
        print(f"note: fingerprints differ: {first['fingerprint']} vs "
              f"{second['fingerprint']}")
    print(f"{'metric':24} {'median A':>12} {'median B':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for name in sorted(set(a) & set(b)):
        entry = limits[name]
        base, new = a[name]["median"], b[name]["median"]
        change = (new - base) / base if base else 0.0
        worse_by = change if entry["better"] == "lower" else -change
        verdict = ""
        if worse_by > entry["bound"]:
            verdict = "  WORSE"
            worse += 1
        print(f"{name:24} {base:12.6g} {new:12.6g} {worse_by:9.4f} "
              f"{entry['bound']:6}{verdict}")
    return worse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    runner = sub.add_parser("run", help="N untraced runs of a workload")
    runner.add_argument("--workload", required=True)
    runner.add_argument("--runs", type=int, default=10)
    runner.add_argument("--seconds", type=float, default=10.0)
    runner.add_argument("--seed-base", type=int, default=0)
    runner.add_argument("--out", help="save the runs as JSON here")
    comparer = sub.add_parser("compare", help="compare two saved sets")
    comparer.add_argument("first")
    comparer.add_argument("second")
    args = parser.parse_args(argv)

    if args.command == "compare":
        with open(args.first) as handle:
            first = json.load(handle)
        with open(args.second) as handle:
            second = json.load(handle)
        return 1 if compare(first, second) else 0

    runs = []
    for index in range(args.runs):
        runs.append(one_run(args.workload, args.seed_base + index,
                            args.seconds))
        print(f"run {index + 1}/{args.runs} seed {runs[-1]['seed']} "
              f"host factor {runs[-1]['host']['host_factor']:.3f}",
              file=sys.stderr)
    saved = {"workload": args.workload, "seconds": args.seconds,
             "fingerprint": fingerprint(), "runs": runs}
    print_summary(summarize(runs))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(saved, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
