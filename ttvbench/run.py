"""Time-to-verdict benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 ttvbench/run.py --workload flow-overlap --seed 1 \\
        --seconds 10 --trace 0

Runs the workload against the library in ``src/`` for at least
``--seconds`` seconds (and at least three passes, five for
sweep-core), checks every output
against ``ttvbench/pins.json``, and prints as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  The
line before it is a JSON detail record (host-speed samples, pass
times, tail percentile) that is not a metric.  Any failed check exits
with code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS = os.path.join(HERE, "pins.json")

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Traced runs alternate untraced and traced passes, at least this many
#: of each.
MIN_TRACE_PAIRS = 1
#: A run stops starting passes once this much wall time is spent, to
#: stay well inside its time limit.
WALL_LIMIT_S = 150.0

UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "verdicts/s",
    "verdict_s.p50": "s",
    "verdict_s.tail": "s",
    "verdict_share": "share",
    "cycle_ratio.geomean": "ratio",
    "area_ratio.geomean": "ratio",
    "peak_rss_mb": "MB",
    "warm_s.p50": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".failed")):
        return "count"
    if name.endswith(".self_s") or name == "unattributed":
        return "s"
    if name.endswith(".share"):
        return "share"
    return "ratio"


def setup_seconds(workload: str, work_dir: str, probes: int) -> list[float]:
    """Set-up time of ``probes`` fresh processes, each measured inside
    the child, in host-normalized seconds, from before ``import repro``
    to the end of set-up."""
    samples = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             workload, "--work-dir", work_dir],
            check=True, capture_output=True, text=True, timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def _probe(workload: str, work_dir: str) -> None:
    from ttvbench.workloads import setup_probe
    print(repr(setup_probe(workload, work_dir)))


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for
    (the sweep's pool worker), in MB."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        work_dir: str, pins: dict, probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the result record (the last output
    line) plus its ``detail``."""
    from ttvbench.host import HostSpeed
    from ttvbench.workloads import WORKLOADS

    started = time.perf_counter()
    host = HostSpeed()
    workload = WORKLOADS[workload_name](seed, work_dir, host)
    tracer = None
    if trace:
        from ttvbench.layers import LayerTracer
        spool = os.path.join(work_dir, "spool")
        os.makedirs(spool)
        tracer = LayerTracer(spool_dir=spool)
    host.start()
    try:
        if tracer is not None:
            tracer.install()
        try:
            workload.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.mark_setup()
        # The set-up's netlists live for the whole run.  Frozen, they are
        # not rescanned by every full garbage collection a request
        # triggers, a cost of ~10-50 ms that a process holding one design
        # does not pay.
        gc.collect()
        gc.freeze()
        return _measure(workload, pins[workload_name], seconds, probes,
                        host, tracer, started)
    finally:
        gc.unfreeze()
        host.stop()


def _measure(workload, workload_pins: dict, seconds: float, probes: int,
             host, tracer, started: float) -> dict:
    """The passes of a set-up run, their checks and their metrics."""
    from ttvbench import stats
    from ttvbench.workloads import check_outcome

    trace = tracer is not None
    workload_name = workload.name
    min_passes = workload.min_passes
    problems: list[str] = []
    attempted = 0

    def one_pass(traced_pass: bool):
        nonlocal attempted
        if traced_pass:
            tracer.install()
        try:
            result = workload.run_pass(tracer if traced_pass else None)
        finally:
            if traced_pass:
                tracer.uninstall()
        attempted += len(result.outcomes) + result.extra.get("warm_cells", 0)
        for outcome in result.outcomes:
            problem = check_outcome(outcome, workload_pins)
            if problem is not None:
                problems.append(problem)
        problems.extend(result.extra.get("problems", []))
        return result

    def more(done: int, needed: int, loop_start: float) -> bool:
        now = time.perf_counter()
        if now - started > WALL_LIMIT_S:
            return False
        return done < needed or now - loop_start < seconds

    passes, traced = [], []
    if not trace:
        loop_start = time.perf_counter()
        while more(len(passes), min_passes, loop_start):
            passes.append(one_pass(False))
        if len(passes) < min_passes:
            raise RuntimeError(f"only {len(passes)} passes fit in "
                               f"{WALL_LIMIT_S:.0f} s; {min_passes} needed")
    else:
        loop_start = time.perf_counter()
        while more(len(traced), MIN_TRACE_PAIRS, loop_start):
            passes.append(one_pass(False))
            traced.append(one_pass(True))

    detail: dict = {"workload": workload_name, "seed": workload.seed,
                    "passes": len(passes), "host": host.summary()}
    if not trace:
        summary = workload.metrics(passes, workload_pins)
        values = dict(summary["metrics"])
        detail.update(summary["detail"])
        host.stop()  # the set-up processes sample the host themselves
        setups = setup_seconds(workload_name, workload.work_dir, probes)
        values["setup_s"] = stats.median(setups)
        values["peak_rss_mb"] = peak_rss_mb()
        detail["setup_s"] = setups
        units = UNITS
    else:
        values = tracer.table(per=len(traced))
        values["trace.overhead"] = (
            stats.median([result.seconds for result in traced])
            / stats.median([result.seconds for result in passes]))
        detail["traced_passes"] = len(traced)
        detail["entry_calls"] = tracer.entry_calls()
        units = {name: layer_unit(name) for name in values}
    if problems:
        detail["problems"] = problems
    return {"correct": not problems, "attempted": attempted,
            "failed": len(problems),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in sorted(values.items())},
            "detail": detail}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no library at {os.path.relpath(SRC)}/repro; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    # One CPU for the run and its pool worker, so the host-speed probes
    # sample the CPU that does the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Hermetic: no inherited library knobs (lane width, job dir, shard
    # count, tracing) change what is measured.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [SRC, ROOT]
    if args.setup_probe:
        _probe(args.setup_probe, args.work_dir)
        return 0

    from ttvbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    with open(PINS) as handle:
        pins = json.load(handle)
    work_dir = os.path.join(ROOT, ".ttvbench-work", str(os.getpid()))
    os.makedirs(work_dir)
    try:
        record = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), work_dir, pins)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run is using it
    detail = record.pop("detail")
    for problem in detail.get("problems", [])[:50]:
        print(f"check failed: {problem}", file=sys.stderr)
    detail["problems"] = detail.get("problems", [])[:50]
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(record, sort_keys=True))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
