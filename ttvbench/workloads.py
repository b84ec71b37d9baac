"""The benchmark's workloads: what each request runs and how it is checked.

Every workload runs in passes over a fixed, named design list (or the
core sweep grid).  The seed chooses only the stimuli (and, for
flow-overlap, the request order within a pass); the designs are fixed
by name so that a run on any seed measures the same work.  See
``ttvbench/README.md`` for why each list holds what it holds.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass, field

from ttvbench import stats
from ttvbench.host import HostSpeed

#: flow-overlap: the paper's default flow (OVERLAP handshakes, model
#: validation on) over designs measured to validate quickly, a handful
#: of 0.3-1.5 s designs, and one design that stops at the 200k-marking
#: state cap.  diamond1x8, diamond3x5, fir12 and rnd16s1 are left out:
#: each takes over 10 s, so one of them would be most of a pass.
FLOW_OVERLAP_DESIGNS = (
    # 40 configs that validate in under 0.2 s, every family but diamonds
    "counter6", "counter8", "counter12", "counter16", "counter24",
    "counter32", "crc5", "crc8", "crc12", "crc16", "crc24", "crc32",
    "lfsr8", "lfsr12", "lfsr16", "lfsr24", "lfsr32", "lfsr64",
    "mult2", "mult4", "mult6", "mult8", "mult12", "mult16",
    "dlx", "dlx16x16", "fir5",
    "pipe4x1", "pipe4x4", "pipe6x1", "pipe6x2", "pipe6x4", "pipe6x8",
    "rnd16d0", "rnd16d2", "rnd16d3", "rnd8s0", "rnd8s2", "rnd8s4", "rnd8s7",
    # 0.3-1.5 s each
    "diamond2x4", "fir8", "rnd16s11", "rnd8s5",
    # stops at the 200k-marking cap after ~7.5 s
    "pipe12x2",
)

#: verify-serial: SERIAL handshakes, then batched flow equivalence and
#: the hold check.  The designs over 200 instances are the ones the
#: stock sweep leaves "unchecked"; mult16 (9-12 s alone) and the
#: rnd32 seeds whose SERIAL validation hits the state cap (rnd32s4,
#: rnd32s5, rnd32s8, rnd32s10) are left out.
VERIFY_SERIAL_DESIGNS = (
    # over 200 instances: the stock sweep marks these "unchecked"
    "dlx", "dlx16x16", "mult8", "mult12",
    "pipe12x8", "pipe16x8", "pipe20x4", "pipe20x8", "pipe24x4",
    "pipe24x8", "pipe28x4", "pipe28x8", "pipe32x4", "pipe32x8",
    # mid-size designs of the other families
    "counter32", "crc32", "lfsr64", "fir20", "fir24s", "fir32",
    "diamond2x16", "diamond8x12", "mult6", "pipe16x4",
    "rnd16d1", "rnd16s4", "rnd16s7", "rnd32s0", "rnd32s2", "rnd32s3",
)

#: The stock sweep's equivalence grid: 8 stimuli x 10 cycles, hold
#: screening over 8 handshake rounds.
STIMULI = 8
CYCLES = 10
HOLD_ROUNDS = 8

#: Relative tolerance of the cycle-ratio pin: the bisection tolerance
#: of ``repro.petri.analysis.cycle_time``, so an exact solver passes.
CYCLE_RATIO_RTOL = 1e-6

#: Classes a request may move to from the class pinned at the seed
#: commit, provided its ratios still match: an inconclusive or
#: unverified result that later gets a verdict is an improvement.
UPGRADES = {
    "capped": "validated",
    "unchecked": "ok",
    "model-only": "ok",
}

_TIMING_COLUMNS = ("build_ms", "verify_ms")


@dataclass
class Outcome:
    """One request: which design or cell, its verdict class, the time
    it took, and the quality ratios when it produced a design."""

    key: str
    verdict: str
    seconds: float = 0.0
    cycle_ratio: float | None = None
    area_ratio: float | None = None
    detail: str = ""


def stimulus_seeds(rng: random.Random) -> tuple[int, ...]:
    """Eight distinct stimulus seeds drawn from the run's generator.
    Each pass draws its own, so a run's per-design medians span three
    or more stimulus sets rather than resting on one."""
    return tuple(rng.sample(range(1 << 30), STIMULI))


def check_outcome(outcome: Outcome, pins: dict) -> str | None:
    """Compare ``outcome`` with its pin; return the mismatch, if any."""
    pin = pins.get(outcome.key)
    if pin is None:
        return f"{outcome.key}: no pinned result"
    if outcome.verdict != pin["verdict"] and \
            UPGRADES.get(pin["verdict"]) != outcome.verdict:
        return (f"{outcome.key}: verdict {outcome.verdict!r}, pinned "
                f"{pin['verdict']!r} {outcome.detail}".rstrip())
    if outcome.verdict == "capped":
        return None  # a stop at the cap produces no design to compare
    if outcome.area_ratio != pin["area_ratio"]:
        return (f"{outcome.key}: area_ratio {outcome.area_ratio!r}, pinned "
                f"{pin['area_ratio']!r}")
    got, want = outcome.cycle_ratio, pin["cycle_ratio"]
    if (got is None) != (want is None) or (
            got is not None
            and abs(got - want) > CYCLE_RATIO_RTOL * abs(want)):
        return f"{outcome.key}: cycle_ratio {got!r}, pinned {want!r}"
    return None


def _timed(host: HostSpeed, tracer, kind: str, request):
    """Run ``request()``; return ``(value, raw_seconds, window)`` (see
    :meth:`ttvbench.host.HostSpeed.timed`).  Under a tracer the request
    is scoped so its unattributed time is measured."""
    if tracer is None:
        return host.timed(request)
    with tracer.request(kind):
        return host.timed(request)


def _design_ratios(result) -> tuple[float, float]:
    cycle = result.desync_cycle_time().cycle_time
    return (cycle / result.sync_period(),
            result.desync_netlist.total_area()
            / result.sync_netlist.total_area())


def _cap_stop(exc: Exception) -> bool:
    """True when model validation stopped at its state cap."""
    from repro.utils.errors import PetriError, StgError
    return isinstance(exc, (PetriError, StgError)) and "exceeded" in str(exc)


@dataclass
class PassResult:
    """One pass: its outcomes, its host-normalized seconds and its mean
    host factor."""

    outcomes: list[Outcome]
    seconds: float
    factor: float = 1.0
    extra: dict = field(default_factory=dict)


class _DesignWorkload:
    """Pass loop and metrics shared by the workloads; a pass requests
    every design once.

    Netlists are generated once, in set-up (the DLX parse alone takes
    ~0.4 s).  Before each request the netlist's cached structural
    queries are dropped (``invalidate_query_caches``), so no request
    reuses another's derived state; compiled kernels, which the library
    caches by netlist fingerprint, are reused as they would be for a
    freshly generated copy."""

    name = ""
    designs: tuple[str, ...] = ()
    good = ""
    #: Passes a run needs at least: a per-design median over fewer than
    #: three passes is a single sample or a mean of two.
    min_passes = 3

    def __init__(self, seed: int, work_dir: str,
                 host: HostSpeed | None = None):
        self.seed = seed
        self.work_dir = work_dir
        self.host = host if host is not None else HostSpeed()
        self.rng = random.Random(seed)
        self.netlists: dict = {}

    def setup(self) -> None:
        import repro.desync  # noqa: F401  (the flow every request runs)
        import repro.equiv  # noqa: F401
        from repro.corpus import generate
        self.netlists = {name: generate(name) for name in self.designs}

    def request(self, name: str) -> Outcome:
        raise NotImplementedError

    def order(self) -> list[str]:
        return list(self.designs)

    def run_pass(self, tracer=None) -> PassResult:
        timed = []
        for name in self.order():
            self.netlists[name].invalidate_query_caches()
            try:
                timed.append(_timed(self.host, tracer, "request",
                                    lambda: self.request(name)))
            except Exception as exc:  # counted as failed, never dropped
                timed.append((Outcome(name, "error",
                                      detail=f"{type(exc).__name__}: {exc}"),
                              0.0, None))
        raw = 0.0
        for outcome, seconds, window in timed:
            if window is not None:
                outcome.seconds = self.host.seconds(seconds, window)
            raw += seconds
        total = sum(outcome.seconds for outcome, _s, _w in timed)
        return PassResult([outcome for outcome, _s, _w in timed], total,
                          raw / total if total else 1.0)

    def warm_seconds(self, passes: list[PassResult]) -> list[float]:
        """Times of warm repeats: every pass after the first."""
        return [result.seconds for result in passes[1:]]

    def metrics(self, passes: list[PassResult], pins: dict) -> dict:
        per_design: dict[str, list[float]] = {}
        verdicts = attempted = 0
        for result in passes:
            for outcome in result.outcomes:
                per_design.setdefault(outcome.key, []).append(outcome.seconds)
                attempted += 1
                verdicts += outcome.verdict == self.good
        samples = [stats.median(times) for times in per_design.values()]
        tail = stats.tail(samples)
        if tail is None:
            raise ValueError(f"{self.name}: {len(samples)} designs are too "
                             "few for a tail with "
                             f"{stats.TAIL_BEYOND} beyond it")
        last = {o.key: o for o in passes[-1].outcomes}
        geo_keys = [key for key, pin in pins.items()
                    if pin["verdict"] == self.good]
        pass_s = [result.seconds for result in passes]
        warm_s = self.warm_seconds(passes)
        return {
            "metrics": {
                "verdicts_per_s": (verdicts / len(passes))
                / stats.median(pass_s),
                "verdict_s.p50": stats.median(samples),
                "verdict_s.tail": tail[1],
                "verdict_share": verdicts / attempted,
                "cycle_ratio.geomean": _geomean(last, geo_keys,
                                                "cycle_ratio"),
                "area_ratio.geomean": _geomean(last, geo_keys, "area_ratio"),
                "warm_s.p50": stats.median(warm_s),
            },
            "detail": {
                "pass_s": pass_s,
                "pass_host_factor": [result.factor for result in passes],
                "warm_s": warm_s,
                "tail_percentile": tail[0],
                "tail_designs": len(samples),
                "verdicts_per_pass": verdicts / len(passes),
            },
        }


def _geomean(outcomes: dict[str, Outcome], keys: list[str],
             attr: str) -> float:
    """Geometric mean over ``keys``; a request that failed has no ratio
    and is already counted as failed."""
    values = [getattr(outcomes[key], attr) for key in keys
              if key in outcomes]
    return stats.geomean([value for value in values if value is not None])


class FlowOverlap(_DesignWorkload):
    """``desynchronize()`` with the paper's defaults, then
    ``desync_cycle_time()``."""

    name = "flow-overlap"
    designs = FLOW_OVERLAP_DESIGNS
    good = "validated"

    def order(self) -> list[str]:
        names = list(self.designs)
        self.rng.shuffle(names)
        return names

    def request(self, name: str) -> Outcome:
        from repro.desync import desynchronize
        try:
            result = desynchronize(self.netlists[name])
            result.desync_cycle_time()
        except Exception as exc:
            if _cap_stop(exc):
                return Outcome(name, "capped", detail=str(exc))
            raise
        cycle_ratio, area_ratio = _design_ratios(result)
        return Outcome(name, "validated", cycle_ratio=cycle_ratio,
                       area_ratio=area_ratio)


class VerifySerial(_DesignWorkload):
    """SERIAL ``desynchronize()``, batched flow equivalence on the
    sweep's grid, then ``verify_hold``."""

    name = "verify-serial"
    designs = VERIFY_SERIAL_DESIGNS
    good = "verified"

    def run_pass(self, tracer=None) -> PassResult:
        self.seeds = stimulus_seeds(self.rng)
        return super().run_pass(tracer)

    def request(self, name: str) -> Outcome:
        from repro.desync import DesyncOptions, HandshakeMode, desynchronize
        from repro.equiv import check_flow_equivalence_batch
        try:
            result = desynchronize(
                self.netlists[name], DesyncOptions(mode=HandshakeMode.SERIAL))
        except Exception as exc:
            if _cap_stop(exc):
                return Outcome(name, "capped", detail=str(exc))
            raise
        reports = check_flow_equivalence_batch(
            result, self.seeds, cycles=CYCLES, backend="compiled")
        holds = result.verify_hold(rounds=HOLD_ROUNDS)
        cycle_ratio, area_ratio = _design_ratios(result)
        diverged = [seed for seed, report in reports.items()
                    if not report.equivalent]
        if diverged:
            verdict, detail = "not-equivalent", f"stimulus seeds {diverged}"
        elif not all(check.ok for check in holds):
            verdict, detail = "hold-violation", ""
        else:
            verdict, detail = "verified", ""
        return Outcome(name, verdict, cycle_ratio=cycle_ratio,
                       area_ratio=area_ratio, detail=detail)


class SweepCore(_DesignWorkload):
    """``sweep_pipelines`` over the core tier and the stock variants,
    one pool worker: a cold sweep on fresh job and cache dirs, then warm
    reruns served from the filled cache on fresh job dirs."""

    name = "sweep-core"
    good = "ok"
    warm_reruns = 10
    #: A cell's host factor is read from its estimated stretch of the
    #: cold sweep, so the ~14 ms cells at the tail need more samples
    #: than the design workloads' requests; a cold sweep is ~7 s.
    min_passes = 5

    def setup(self) -> None:
        import repro.desync  # noqa: F401  (sweep_pipelines)
        import repro.equiv  # noqa: F401
        from repro.corpus import generate, names
        self.designs = self.designs or tuple(names("core"))
        self.netlists = {name: generate(name) for name in self.designs}
        self.fresh_dir("job")
        self.fresh_dir("cache")

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=f"{prefix}-", dir=self.work_dir)

    def sweep(self, tracer, kind: str, cache_dir: str):
        from repro.desync import sweep_pipelines
        job_dir = self.fresh_dir("job")
        try:
            (columns, rows, summary), seconds, window = _timed(
                self.host, tracer, kind, lambda: sweep_pipelines(
                    list(self.designs), seeds=self.seeds, jobs=1,
                    job_dir=job_dir, cache_dir=cache_dir))
        finally:
            shutil.rmtree(job_dir, ignore_errors=True)
        rows = [dict(zip(columns, row)) for row in rows]
        return rows, summary, seconds, window

    def run_pass(self, tracer=None) -> PassResult:
        self.seeds = stimulus_seeds(self.rng)
        cache_dir = self.fresh_dir("cache")
        try:
            cold, _summary, cold_raw, cold_window = self.sweep(
                tracer, "cold", cache_dir)
            warm_runs = [self.sweep(tracer, "warm", cache_dir)
                         for _ in range(self.warm_reruns)]
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        outcomes = self.cell_outcomes(cold, cold_window)
        cold_s = self.host.seconds(cold_raw, cold_window)
        problems = []
        for rows, summary, _seconds, _window in warm_runs:
            hit_rate = summary.get("jobs", {}).get("cache_hit_rate")
            if hit_rate != 1.0:
                problems.append(f"warm rerun cache hit rate {hit_rate!r}")
            problems.extend(_row_differences(cold, rows))
        return PassResult(outcomes, cold_s, cold_raw / cold_s, {
            "warm_s": [self.host.seconds(run[2], run[3])
                       for run in warm_runs],
            "warm_cells": sum(len(run[0]) for run in warm_runs),
            "problems": problems,
        })

    def cell_outcomes(self, rows: list[dict],
                      window: tuple[float, float]) -> list[Outcome]:
        """Cold-sweep rows as outcomes, each cell's time divided by the
        host factor sampled while it ran.  The single pool worker runs
        the cells in row order on the run's (pinned) CPU; each cell is
        placed in the sweep's time window in proportion to the cell
        times before it."""
        start, end = window
        times = [((row["build_ms"] or 0.0) + (row["verify_ms"] or 0.0)) / 1e3
                 for row in rows]
        scale = (end - start) / (sum(times) or 1.0)
        outcomes, elapsed = [], 0.0
        for row, seconds in zip(rows, times):
            cell = (start + elapsed * scale,
                    start + (elapsed + seconds) * scale)
            elapsed += seconds
            outcomes.append(_cell_outcome(row, self.host.seconds(seconds,
                                                                 cell)))
        return outcomes

    def warm_seconds(self, passes: list[PassResult]) -> list[float]:
        return [s for result in passes for s in result.extra["warm_s"]]


def _cell_outcome(row: dict, seconds: float) -> Outcome:
    status = str(row["status"] or "")
    return Outcome(f"{row['config']}/{row['variant']}",
                   status.split(":")[0].strip(), seconds=seconds,
                   cycle_ratio=row["cycle_ratio"],
                   area_ratio=row["area_ratio"],
                   detail=status if ":" in status else "")


def _row_differences(cold: list[dict], warm: list[dict]) -> list[str]:
    """Warm rows must equal cold rows except in their timing columns."""
    def key(row):
        return f"{row['config']}/{row['variant']}"

    def strip(row):
        return {k: v for k, v in row.items() if k not in _TIMING_COLUMNS}

    cold_rows = {key(row): strip(row) for row in cold}
    warm_rows = {key(row): strip(row) for row in warm}
    problems = [f"warm rerun lacks cell {cell}"
                for cell in sorted(set(cold_rows) - set(warm_rows))]
    problems += [f"warm rerun adds cell {cell}"
                 for cell in sorted(set(warm_rows) - set(cold_rows))]
    for cell in sorted(set(cold_rows) & set(warm_rows)):
        if cold_rows[cell] != warm_rows[cell]:
            changed = sorted(k for k in cold_rows[cell]
                             if cold_rows[cell][k] != warm_rows[cell].get(k))
            problems.append(f"warm row {cell} differs in {changed}")
    return problems


WORKLOADS = {
    "flow-overlap": FlowOverlap,
    "verify-serial": VerifySerial,
    "sweep-core": SweepCore,
}


def setup_probe(name: str, work_dir: str) -> float:
    """One set-up in host-normalized seconds: import ``repro``, generate
    the workload's designs and, for sweep-core, create fresh job and
    cache dirs.  Run it in a fresh process."""
    host = HostSpeed()
    host.start()
    try:
        _value, raw, window = host.timed(
            lambda: WORKLOADS[name](0, work_dir, host).setup())
    finally:
        host.stop()
    return host.seconds(raw, window)
