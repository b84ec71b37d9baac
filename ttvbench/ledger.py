"""Add an entry to the per-layer ledger in ``ttvbench/ledger/``.

Usage, from the repository root::

    python3 ttvbench/ledger.py --label <name> [--seed 0] [--seconds 10]

Makes one traced run (``--trace 1``) of every workload and writes
``ttvbench/ledger/<label>.json`` (the raw per-layer metrics, with the
git commit and machine fingerprint) and ``ttvbench/ledger/<label>.md``
(a table per workload: each layer's calls, self time and share of
request time, the unattributed share and the tracing overhead).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from ttvbench.layers import LAYERS, RATIOS  # noqa: E402
from ttvbench.spread import fingerprint  # noqa: E402
from ttvbench.workloads import WORKLOADS  # noqa: E402


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"traced {workload} run failed "
                         f"(exit {out.returncode}):\n{out.stderr[-2000:]}")
    detail, record = json.loads(lines[-2]), json.loads(lines[-1])
    return {"traced_passes": detail["traced_passes"],
            "metrics": {name: entry["value"]
                        for name, entry in record["metrics"].items()}}


def render(label: str, entry: dict) -> str:
    lines = [f"# Per-layer ledger: {label}", "",
             f"Commit `{entry['fingerprint']['git']}`, "
             f"{entry['fingerprint']['nproc']} CPUs, Python "
             f"{entry['fingerprint']['python']}; seed {entry['seed']}.",
             "Calls and self time (raw host seconds) are for one set-up "
             "plus one pass (the mean over traced passes); share is of "
             "request time.", ""]
    for workload, run in entry["workloads"].items():
        values = run["metrics"]
        lines += [f"## {workload}", "",
                  "| layer | calls | self s | share |",
                  "|---|---:|---:|---:|"]
        for layer in sorted(LAYERS, key=lambda name:
                            -values[f"{name}.self_s"]):
            lines.append(
                f"| {layer} | {values[f'{layer}.calls']:.0f} "
                f"| {values[f'{layer}.self_s']:.3f} "
                f"| {values[f'{layer}.share']:.1%} |")
        lines.append(f"| unattributed | | {values['unattributed']:.3f} "
                     f"| {values['unattributed.share']:.1%} |")
        lines.append("")
        ratios = ", ".join(f"{name} {values[name]:.3f}" for name in
                           ("stg.check_model.verdict_ratio", *RATIOS))
        lines += [f"{ratios}; trace.overhead "
                  f"{values['trace.overhead']:.3f} over "
                  f"{run['traced_passes']} traced passes.", ""]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    entry = {"label": args.label, "seed": args.seed,
             "fingerprint": fingerprint(),
             "workloads": {name: traced_run(name, args.seed, args.seconds)
                           for name in WORKLOADS}}
    directory = os.path.join(HERE, "ledger")
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, f"{args.label}.json"), "w") as handle:
        json.dump(entry, handle, indent=1, sort_keys=True)
        handle.write("\n")
    with open(os.path.join(directory, f"{args.label}.md"), "w") as handle:
        handle.write(render(args.label, entry))
    return 0


if __name__ == "__main__":
    sys.exit(main())
