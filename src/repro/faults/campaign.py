"""Delay-fault injection campaigns over the de-synchronized corpus.

A campaign fans ``(config x perturbation x seed)`` cells through the
resilient executor (:mod:`repro.faults.executor`) and asserts the
paper's robustness claim cell by cell:

* **delay cells** perturb every instance delay — uniform scaling
  (flow equivalence must survive *any* dilation), seeded gaussian
  jitter, and the adversarial fast-request/slow-data attack — and
  expect the fabric to stay flow-equivalent;
* **fault cells** inject stuck-at/glitch faults on controller nets
  (:mod:`repro.faults.inject`) and expect the equivalence checker to
  *detect* each one — a silent pass is reported, never dropped;
* **margin cells** erode one stage's matched delay line
  (:meth:`~repro.timing.DelayModel.eroded`) and bisect the factor at
  which equivalence breaks, measuring the stage's real failure margin
  against the 10 % guard band the planner paid for.

Workers cache the built pipeline per config (one desynchronization
serves every cell of that config in the same process) and honour the
``REPRO_FAULTS_SLEEP=<substr>:<seconds>`` chaos hook, which delays any
cell whose key contains ``substr`` — how CI exercises the per-cell
timeout and quarantine paths with a deliberately slow cell.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.faults.executor import (
    CellOutcome,
    ExecutorPolicy,
    ExecutorStats,
    cell_retries,
    cell_timeout,
    run_cells,
)
from repro.faults.inject import (
    CONTROL_PREFIXES,
    FAULT_KINDS,
    GLITCH_PREFIXES,
    FaultSite,
    run_detection,
    sample_control_nets,
)
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.timing.delays import DelayModel
from repro.utils.errors import (
    FaultCampaignError,
    FlowEquivalenceError,
    ReproError,
    SimulationError,
)

#: Chaos hook: ``<substr>:<seconds>`` sleeps before any cell whose key
#: contains ``substr`` — deterministic way to make a cell slow.
SLEEP_ENV = "REPRO_FAULTS_SLEEP"

#: Columns of the ``BENCH_faults`` envelope, one row per campaign cell.
CAMPAIGN_COLUMNS = [
    "cell", "kind", "config", "target", "param", "seed",
    "status", "detail", "margin", "attempts", "wall_ms",
]

#: Statuses that count as the expected outcome per cell kind.
_EXPECTED = {"delay": "survived", "fault": "detected", "margin": "cliff"}


@dataclass(frozen=True)
class CampaignSpec:
    """What a campaign sweeps.

    ``configs`` are corpus registry names, run through the serial-mode
    ``desync`` pipeline (the statically race-free discipline — the one
    whose equivalence the repo guarantees).  ``margin_configs`` default
    to the first config; erosion bisection costs ``margin_steps + 2``
    equivalence checks per config, so it is opt-in per config rather
    than blanket.
    """

    configs: tuple[str, ...]
    seeds: tuple[int, ...] = (0,)
    cycles: int = 8
    scales: tuple[float, ...] = (1.0 / 3.0, 3.0)
    jitter_sigmas: tuple[float, ...] = (0.01,)
    adversarial_eps: tuple[float, ...] = (0.02,)
    fault_kinds: tuple[str, ...] = FAULT_KINDS
    max_fault_sites: int = 4
    margin_configs: tuple[str, ...] | None = None
    margin_steps: int = 6

    def __post_init__(self) -> None:
        if not self.configs:
            raise FaultCampaignError("campaign needs at least one config")
        for kind in self.fault_kinds:
            if kind not in FAULT_KINDS:
                raise FaultCampaignError(
                    f"unknown fault kind {kind!r} "
                    f"(have: {', '.join(FAULT_KINDS)})")
        if self.margin_steps < 1:
            raise FaultCampaignError(
                f"margin_steps must be >= 1, got {self.margin_steps}")

    def resolved_margin_configs(self) -> tuple[str, ...]:
        if self.margin_configs is not None:
            return self.margin_configs
        return self.configs[:1]


def campaign_cells(spec: CampaignSpec) -> list[tuple[str, dict]]:
    """The deterministic ``(key, payload)`` cell list of a campaign.

    Keys are stable across runs and processes — they are the checkpoint
    identity that makes ``--resume`` cell-exact.  Fault cells reference
    controller nets by *site index* into the seeded sample (the actual
    nets exist only after the worker builds the fabric).
    """
    cells: list[tuple[str, dict]] = []

    def add(key: str, **payload) -> None:
        payload.setdefault("seed", 0)
        payload["cell"] = key
        payload["cycles"] = spec.cycles
        cells.append((key, payload))

    for config in spec.configs:
        for seed in spec.seeds:
            for scale in spec.scales:
                add(f"delay:{config}:scale:{scale:g}:{seed}",
                    kind="delay", config=config, target="scale",
                    param=f"{scale:g}", seed=seed)
            for sigma in spec.jitter_sigmas:
                add(f"delay:{config}:jitter:{sigma:g}:{seed}",
                    kind="delay", config=config, target="jitter",
                    param=f"{sigma:g}", seed=seed)
            for eps in spec.adversarial_eps:
                add(f"delay:{config}:adversarial:{eps:g}:{seed}",
                    kind="delay", config=config, target="adversarial",
                    param=f"{eps:g}", seed=seed)
        seed = spec.seeds[0]
        for index in range(spec.max_fault_sites):
            for kind in spec.fault_kinds:
                add(f"fault:{config}:site{index}:{kind}:{seed}",
                    kind="fault", config=config, target=f"site{index}",
                    param=kind, seed=seed, site_index=index,
                    max_sites=spec.max_fault_sites)
    for config in spec.resolved_margin_configs():
        seed = spec.seeds[0]
        add(f"margin:{config}:erode:bisect:{seed}",
            kind="margin", config=config, target="erode", param="bisect",
            seed=seed, steps=spec.margin_steps)
    keys = [key for key, _ in cells]
    if len(set(keys)) != len(keys):
        raise FaultCampaignError("campaign spec generates duplicate cells")
    return cells


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

#: Per-process cache: one built serial-mode pipeline serves every cell
#: of the same config that lands on this worker.
_RESULT_CACHE: dict[str, object] = {}


def _campaign_worker_init() -> None:
    from repro.netlist import install_shared_memo
    from repro.obs.trace import TRACE_ENV
    os.environ.pop(TRACE_ENV, None)
    TRACER.disarm()
    install_shared_memo({})
    _RESULT_CACHE.clear()


def campaign_options():
    """The serial-mode flow options a campaign uses for every config.

    Shared between the worker (which builds the pipeline) and the
    driver (which derives result-cache keys from
    :meth:`~repro.desync.flow.DesyncOptions.digest` without building
    anything), so the cache key always reflects the options actually
    run.
    """
    from repro.desync.flow import DesyncOptions, HandshakeMode
    return DesyncOptions(mode=HandshakeMode.SERIAL)


def _campaign_result(config: str):
    result = _RESULT_CACHE.get(config)
    if result is None:
        from repro.corpus import generate
        from repro.desync.pipeline import make_result, run_pipeline
        netlist = generate(config)
        result = make_result(run_pipeline(netlist, campaign_options()))
        _RESULT_CACHE[config] = result
    return result


def _chaos_sleep(key: str) -> None:
    raw = os.environ.get(SLEEP_ENV, "").strip()
    if not raw or ":" not in raw:
        return
    substr, _, seconds = raw.rpartition(":")
    if substr and substr in key:
        time.sleep(float(seconds))


def _check(result, cycles: int, seed: int, delay_model=None):
    from repro.equiv.flow_equivalence import check_flow_equivalence
    from repro.testing.stimulus import random_stimulus
    stimulus = random_stimulus(result.sync_netlist, cycles, seed)
    return check_flow_equivalence(result, cycles=cycles,
                                  inputs_per_cycle=stimulus,
                                  delay_model=delay_model)


def _delay_cell(row: dict, result, payload: dict) -> None:
    target, param = payload["target"], float(payload["param"])
    if target == "scale":
        model = DelayModel.scaled(param)
    elif target == "jitter":
        model = DelayModel.jittered(param, seed=payload["seed"])
    elif target == "adversarial":
        model = DelayModel.adversarial(param)
    else:
        raise FaultCampaignError(f"unknown delay target {target!r}")
    try:
        report = _check(result, payload["cycles"], payload["seed"],
                        delay_model=model)
    except FlowEquivalenceError as exc:
        row.update(status="stalled", detail=str(exc)[:160])
        return
    if report.equivalent:
        row.update(status="survived",
                   detail=f"{report.registers} registers x "
                          f"{report.cycles_compared} cycles")
    else:
        first = report.divergences[0]
        row.update(status="diverged",
                   detail=f"{first.register}@cycle{first.cycle}")


def _fault_cell(row: dict, result, payload: dict) -> None:
    kind = payload["param"]
    prefixes = GLITCH_PREFIXES if kind == "glitch" else CONTROL_PREFIXES
    nets = sample_control_nets(result.desync_netlist,
                               payload["max_sites"], prefixes=prefixes)
    index = payload["site_index"]
    if index >= len(nets):
        row.update(status="skipped",
                   detail=f"only {len(nets)} controller sites")
        return
    site = FaultSite(nets[index], kind)
    detected, how = run_detection(result, site,
                                  cycles=payload["cycles"],
                                  seed=payload["seed"])
    row.update(status="detected" if detected else "undetected",
               detail=f"{site.label}: {how}"[:160])


def _margin_cell(row: dict, result, payload: dict) -> None:
    plans = result.network.delay_plans
    if not plans:
        row.update(status="skipped", detail="no matched delay lines")
        return
    pred, succ = max(plans, key=lambda edge: plans[edge].achieved)
    cycles, seed = payload["cycles"], payload["seed"]

    def survives(factor: float) -> bool:
        try:
            return _check(result, cycles, seed,
                          delay_model=DelayModel.eroded(pred, succ, factor)
                          ).equivalent
        except (FlowEquivalenceError, SimulationError):
            return False

    stage = f"{pred}->{succ}"
    if not survives(1.0):
        row.update(status="broken-at-nominal", detail=f"stage {stage}")
        return
    if survives(0.0):
        # Even a zero-delay request line keeps equivalence: the stage's
        # data path is outrun by the controller overhead itself.
        row.update(status="no-cliff", margin=1.0,
                   detail=f"stage {stage} survives factor 0")
        return
    lo, hi = 0.0, 1.0  # lo breaks, hi survives — invariant of the loop
    for _ in range(payload["steps"]):
        mid = (lo + hi) / 2.0
        if survives(mid):
            hi = mid
        else:
            lo = mid
    row.update(status="cliff", margin=round(1.0 - hi, 4),
               detail=f"stage {stage} breaks below {hi:.4f}x "
                      f"({plans[(pred, succ)].achieved:.0f} ps line)")


def _campaign_cell(payload: dict) -> dict:
    """One campaign cell, executed in a worker process.

    Returns the row as a JSON-serializable dict (the checkpoint
    round-trips it); ``attempts``/``wall_ms`` are filled by the driver.
    """
    from time import perf_counter
    _chaos_sleep(payload["cell"])
    row = {column: None for column in CAMPAIGN_COLUMNS}
    row.update(cell=payload["cell"], kind=payload["kind"],
               config=payload["config"], target=payload["target"],
               param=payload["param"], seed=payload["seed"])
    start = perf_counter()
    try:
        result = _campaign_result(payload["config"])
        if payload["kind"] == "delay":
            _delay_cell(row, result, payload)
        elif payload["kind"] == "fault":
            _fault_cell(row, result, payload)
        elif payload["kind"] == "margin":
            _margin_cell(row, result, payload)
        else:
            raise FaultCampaignError(
                f"unknown cell kind {payload['kind']!r}")
    except ReproError as exc:
        # A cell verdict, not a reason to lose the campaign: the row
        # records the failure and the survival/detection rates count it
        # against the claim.
        row.update(status=f"error: {type(exc).__name__}"[:60],
                   detail=str(exc)[:160])
    row["wall_ms"] = (perf_counter() - start) * 1e3
    return row


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

@dataclass
class CampaignReport:
    """Everything :func:`run_campaign` learned, envelope-ready."""

    columns: list[str]
    rows: list[list[object]]
    summary: dict
    quarantined: list[str] = field(default_factory=list)


def _campaign_cache_keys(cells: list[tuple[str, dict]]) -> dict[str, str]:
    """Content address of every campaign cell, computed driver-side.

    The netlist is generated in the parent (cheap — the expensive part
    is desynchronizing it, which is exactly what the cache skips) so
    the key can be derived from its structural fingerprint plus the
    digest of the flow options and the full cell payload.
    """
    from repro.corpus import generate
    from repro.jobs import cache_key, payload_digest
    per_config: dict[str, tuple[str, str]] = {}
    keys: dict[str, str] = {}
    for key, payload in cells:
        config = payload["config"]
        if config not in per_config:
            netlist = generate(config)
            per_config[config] = (netlist.fingerprint(),
                                  campaign_options().digest())
        fingerprint, options_digest = per_config[config]
        keys[key] = cache_key(
            fingerprint,
            f"{options_digest}:{payload_digest(payload)}",
            "campaign")
    return keys


def run_campaign(spec: CampaignSpec, jobs: int | None = None,
                 checkpoint: str | None = None, resume: bool = False,
                 timeout: float | None = None,
                 retries: int | None = None,
                 job_dir: str | None = None,
                 cache_dir: str | None = None,
                 worker_id: str | None = None,
                 lease_ttl: float | None = None) -> CampaignReport:
    """Run a fault-injection campaign through the resilient executor.

    ``timeout``/``retries`` default to the ``REPRO_CELL_TIMEOUT`` /
    ``REPRO_CELL_RETRIES`` environment knobs; ``checkpoint`` +
    ``resume`` make an interrupted campaign restartable cell-exact.
    Rows come back in canonical cell order whatever the completion
    order, so a resumed run's envelope is comparable row-for-row
    (modulo the wall-time fields) with an uninterrupted one.
    Quarantined cells become rows with status ``"quarantined: ..."``.

    ``job_dir`` (default :data:`repro.jobs.JOB_DIR_ENV` when no
    checkpoint is in play) routes scheduling through the durable job
    store: several processes running the same campaign against one
    directory cooperate, crashed workers are reclaimed, and every
    process returns the complete merged report.  ``cache_dir`` points
    at a content-addressed result cache — cells whose (netlist
    fingerprint, options digest, payload) was already computed are
    served from the cache instead of re-run.  In durable mode, cache
    hits are pre-published into the job store so every cooperating
    worker keeps the identical task manifest.
    """
    from repro.desync.pipeline import sweep_jobs
    cells = campaign_cells(spec)
    if job_dir is None and not checkpoint:
        from repro.jobs import default_job_dir
        job_dir = default_job_dir()

    cache = None
    cache_keys: dict[str, str] = {}
    cached: dict[str, CellOutcome] = {}
    if cache_dir:
        from repro.jobs import MISS, ResultCache
        cache = ResultCache(cache_dir)
        cache_keys = _campaign_cache_keys(cells)
        for key, _ in cells:
            value = cache.get(cache_keys[key])
            if value is not MISS:
                cached[key] = CellOutcome(key=key, status="ok",
                                          value=value, attempts=0)

    policy = ExecutorPolicy(
        jobs=jobs if jobs is not None else sweep_jobs(),
        timeout=timeout if timeout is not None else cell_timeout(),
        retries=retries if retries is not None else cell_retries(),
        checkpoint=checkpoint, resume=resume, job_dir=job_dir,
        worker_id=worker_id, lease_ttl=lease_ttl)

    if job_dir:
        # Every cooperating worker must bring the identical manifest,
        # so cache hits are pre-published as durable results instead of
        # being dropped from the task list (a later-starting worker
        # would otherwise see a different, mismatching cell set).
        dispatch = cells
        if cached:
            from repro.jobs import JobStore
            store = JobStore(job_dir, worker_id=worker_id, ttl=lease_ttl)
            store.ensure_tasks([key for key, _ in cells])
            durable = store.collect()
            for key, outcome in cached.items():
                if key not in durable:
                    store.complete(key, outcome.value, 0)
    else:
        dispatch = [(key, payload) for key, payload in cells
                    if key not in cached]

    with TRACER.span("faults:campaign", cells=len(cells),
                     configs=len(spec.configs), jobs=policy.jobs,
                     cache_hits=len(cached)):
        if dispatch:
            outcomes, stats = run_cells(
                dispatch, _campaign_cell, policy,
                initializer=_campaign_worker_init,
                metric_prefix="faults.executor")
        else:
            outcomes, stats = {}, ExecutorStats()
    for key, outcome in cached.items():
        outcomes.setdefault(key, outcome)
    if cache is not None:
        for key, outcome in outcomes.items():
            if key not in cached and outcome.status == "ok":
                cache.put(cache_keys[key], outcome.value)

    rows: list[list[object]] = []
    counts: dict[str, dict[str, int]] = {}
    margins: dict[str, float | None] = {}
    for key, payload in cells:
        outcome = outcomes[key]
        row = _outcome_row(key, payload, outcome)
        rows.append([row[column] for column in CAMPAIGN_COLUMNS])
        kind, status = row["kind"], (row["status"] or "").split(":")[0]
        per_kind = counts.setdefault(kind, {})
        per_kind[status] = per_kind.get(status, 0) + 1
        if kind == "margin" and status in ("cliff", "no-cliff"):
            margins[row["config"]] = row["margin"]

    store_stats = stats.store_stats or {}
    cache_stats = cache.stats() if cache is not None else {}
    summary = {
        "cells": len(cells),
        "statuses": {kind: dict(sorted(states.items()))
                     for kind, states in sorted(counts.items())},
        "survival_rate": _rate(counts.get("delay", {}), "survived"),
        "detection_rate": _rate(counts.get("fault", {}), "detected"),
        "margins": dict(sorted(margins.items())),
        "quarantined": list(stats.quarantined),
        "executor": stats.as_dict(),
        "jobs": {
            "cache_hits": len(cached),
            "cache_misses": (len(cells) - len(cached)
                             if cache is not None else 0),
            "cache_hit_rate": (len(cached) / len(cells)
                               if cache is not None and cells else None),
            "reclaimed": stats.reclaimed,
            "duplicates": stats.duplicates,
            "dead_letter": len(stats.dead_letter),
            "quarantined_entries": (
                int(store_stats.get("quarantined", 0))
                + int(cache_stats.get("quarantined", 0))),
        },
    }
    for kind, states in counts.items():
        for status, count in states.items():
            METRICS.counter(f"faults.{kind}.{status}").inc(count)
        expected = _EXPECTED.get(kind)
        if expected is not None:
            METRICS.counter(f"faults.{kind}.{expected}").inc(0)
    METRICS.counter("faults.cells").inc(len(cells))
    return CampaignReport(columns=list(CAMPAIGN_COLUMNS), rows=rows,
                          summary=summary,
                          quarantined=list(stats.quarantined))


def _outcome_row(key: str, payload: dict, outcome: CellOutcome) -> dict:
    if outcome.status == "ok":
        row = {column: outcome.value.get(column)
               for column in CAMPAIGN_COLUMNS}
    else:
        label = ("dead-letter" if outcome.status == "dead-letter"
                 else "quarantined")
        row = {column: None for column in CAMPAIGN_COLUMNS}
        row.update(cell=key, kind=payload["kind"],
                   config=payload["config"], target=payload["target"],
                   param=payload["param"], seed=payload["seed"],
                   status=f"{label}: {outcome.error}"[:160],
                   wall_ms=0.0)
    row["attempts"] = outcome.attempts
    return row


def _rate(states: dict[str, int], expected: str) -> float | None:
    total = sum(count for status, count in states.items()
                if status != "skipped")
    if not total:
        return None
    return states.get(expected, 0) / total
