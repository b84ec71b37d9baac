"""Self-tests of the benchmark.

Run from the repository root (under a minute)::

    PYTHONPATH=src python3 -m pytest ttvbench/selftest.py -q

Tiny runs use short design lists, so they check what the benchmark
emits and checks, not its figures.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from ttvbench import host as host_module
from ttvbench import layers, run, stats, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
with open(run.PINS) as _handle:
    PINS = json.load(_handle)

#: Short design lists: eleven fast designs each (the tail needs ten
#: beyond it) plus the DLX, which goes through the Verilog writer and
#: reader.  Every name is on the workload's own list, so the committed
#: pins check it.
TINY = {
    "flow-overlap": ("counter6", "counter8", "crc5", "crc8", "lfsr8",
                     "lfsr12", "mult2", "mult4", "pipe4x1", "pipe4x4",
                     "fir5", "dlx"),
    "verify-serial": ("counter32", "crc32", "lfsr64", "mult6", "mult8",
                      "pipe12x8", "pipe16x4", "pipe16x8", "pipe20x4",
                      "rnd32s0", "diamond2x16", "dlx"),
    "sweep-core": ("counter6", "crc5", "lfsr8", "mult2", "pipe4x1"),
}

#: Layers each workload must exercise; every other layer must record
#: zero calls on it.
EXERCISED = {
    "flow-overlap": {"corpus", "verilog", "desync.cluster",
                     "desync.latchify", "desync.network", "timing.sta",
                     "stg.model", "stg.check_model", "petri.cycle_time"},
    "verify-serial": {"corpus", "verilog", "desync.cluster",
                      "desync.latchify", "desync.network", "timing.sta",
                      "stg.model", "stg.check_model", "petri.cycle_time",
                      "petri.simulate", "equiv.reference", "equiv.desync",
                      "equiv.compare", "sim.kernel"},
    "sweep-core": {"corpus", "desync.cluster", "desync.latchify",
                   "desync.network", "timing.sta", "stg.model", "baselines",
                   "stg.check_model", "petri.cycle_time", "petri.simulate",
                   "equiv.reference", "equiv.desync", "equiv.compare",
                   "sim.kernel", "faults.executor", "jobs.store",
                   "jobs.cache"},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload to its short list; return pins and a work
    dir."""
    monkeypatch.setattr(workloads.FlowOverlap, "designs",
                        TINY["flow-overlap"])
    monkeypatch.setattr(workloads.VerifySerial, "designs",
                        TINY["verify-serial"])
    monkeypatch.setattr(workloads.SweepCore, "designs", TINY["sweep-core"])
    monkeypatch.setattr(workloads.SweepCore, "warm_reruns", 1)
    pins = {name: {key: pin for key, pin in PINS[name].items()
                   if key.split("/")[0] in TINY[name]}
            for name in PINS}
    return pins, str(tmp_path)


def _tiny_run(workload: str, pins: dict, work_dir: str, trace: bool):
    return run.run(workload, seed=7, seconds=0.0, trace=trace,
                   work_dir=work_dir, pins=pins, probes=1)


# -- the tail rule ------------------------------------------------------
def test_tail_needs_ten_beyond():
    assert stats.tail([float(i) for i in range(10)]) is None
    percentile, value = stats.tail([float(i) for i in range(11)])
    assert (percentile, value) == (100.0 / 11, 0.0)
    samples = [float(i) for i in range(47, 0, -1)]
    percentile, value = stats.tail(samples)
    assert value == 37.0
    assert percentile == pytest.approx(100.0 * 37 / 47)
    assert sum(sample > value for sample in samples) == 10


def test_quartiles_match_statistics_quantiles():
    assert stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)


# -- what a run emits ----------------------------------------------------
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(tiny, workload):
    pins, work_dir = tiny
    record = _tiny_run(workload, pins, work_dir, trace=False)
    assert record["correct"], record["detail"].get("problems")
    assert record["failed"] == 0 and record["attempted"] > 0
    expected = {entry["name"]: entry["unit"]
                for entry in BENCHMARK["end_to_end"]}
    emitted = {name: entry["unit"]
               for name, entry in record["metrics"].items()}
    assert emitted == expected
    for name, entry in record["metrics"].items():
        assert isinstance(entry["value"], float) and entry["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_exercises_the_predicted_layers(tiny, workload):
    pins, work_dir = tiny
    record = _tiny_run(workload, pins, work_dir, trace=True)
    assert record["correct"], record["detail"].get("problems")
    expected = {entry["name"]: entry["unit"]
                for entry in BENCHMARK["per_layer"]}
    emitted = {name: entry["unit"]
               for name, entry in record["metrics"].items()}
    assert emitted == expected
    calls = {layer: record["metrics"][f"{layer}.calls"]["value"]
             for layer in layers.LAYERS}
    exercised = EXERCISED[workload]
    assert {layer for layer, count in calls.items() if count > 0} \
        == exercised
    entry_calls = record["detail"]["entry_calls"]
    for layer, points in layers.ENTRY_POINTS.items():
        for module, qualname in points:
            count = entry_calls[f"{module}.{qualname}"]
            assert (count > 0) == (layer in exercised), (qualname, count)
    unattributed = record["metrics"]["unattributed.share"]["value"]
    assert 0.0 <= unattributed < 1.0
    if workload == "sweep-core":
        assert record["metrics"]["jobs.cache.hit_ratio"]["value"] == 1.0


def test_wrappers_reach_by_name_imports():
    """``repro.desync.pipeline`` binds ``cycle_time`` and friends by
    name; installing the tracer must replace those bindings too, and
    uninstalling must restore them."""
    import repro.desync.pipeline as pipeline
    import repro.stg.stg as stg
    originals = (pipeline.cycle_time, pipeline.analyze,
                 pipeline.build_network, pipeline.fabric_model,
                 stg.Stg.__dict__["check_model"])
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        assert pipeline.cycle_time.__wrapped__ is originals[0]
        assert pipeline.analyze.__wrapped__ is originals[1]
        assert pipeline.build_network.__wrapped__ is originals[2]
        assert pipeline.fabric_model.__wrapped__ is originals[3]
        assert stg.Stg.__dict__["check_model"].__wrapped__ is originals[4]
    finally:
        tracer.uninstall()
    assert (pipeline.cycle_time, pipeline.analyze, pipeline.build_network,
            pipeline.fabric_model, stg.Stg.__dict__["check_model"]) \
        == originals


# -- failures are counted, never dropped --------------------------------
def test_forced_failure_is_counted(tiny, monkeypatch):
    pins, work_dir = tiny
    original = workloads.FlowOverlap.request

    def request(self, name):
        if name == "lfsr8":
            raise RuntimeError("forced failure")
        return original(self, name)

    monkeypatch.setattr(workloads.FlowOverlap, "request", request)
    record = _tiny_run("flow-overlap", pins, work_dir, trace=False)
    passes = record["detail"]["passes"]
    assert not record["correct"]
    assert record["failed"] == passes
    assert record["attempted"] == passes * len(TINY["flow-overlap"])
    assert any("forced failure" in problem
               for problem in record["detail"]["problems"])


def test_changed_ratio_fails_the_check(tiny):
    pins, work_dir = tiny
    key = "counter32"
    pins["verify-serial"][key] = dict(pins["verify-serial"][key],
                                      area_ratio=1.0)
    record = _tiny_run("verify-serial", pins, work_dir, trace=False)
    assert not record["correct"]
    assert record["failed"] == record["detail"]["passes"]


def test_check_rules():
    pin = {"verdict": "capped", "cycle_ratio": 2.0, "area_ratio": 1.5}
    pins = {"d": pin}
    check = workloads.check_outcome
    Outcome = workloads.Outcome
    assert check(Outcome("d", "capped"), pins) is None
    # A capped design that later validates with the same ratios passes.
    assert check(Outcome("d", "validated", cycle_ratio=2.0 * (1 + 5e-7),
                         area_ratio=1.5), pins) is None
    assert check(Outcome("d", "validated", cycle_ratio=2.1,
                         area_ratio=1.5), pins) is not None
    assert check(Outcome("d", "validated", cycle_ratio=2.0,
                         area_ratio=1.5000001), pins) is not None
    pins = {"d": dict(pin, verdict="validated")}
    assert check(Outcome("d", "capped"), pins) is not None
    assert check(Outcome("e", "validated"), pins) is not None
    # An unverified sweep cell may gain a verdict, never lose one.
    pins = {"c": dict(pin, verdict="unchecked")}
    assert check(Outcome("c", "ok", cycle_ratio=2.0, area_ratio=1.5),
                 pins) is None
    assert check(Outcome("c", "failed", cycle_ratio=2.0, area_ratio=1.5),
                 pins) is not None


def test_host_normalized_time():
    host = host_module.HostSpeed()
    value, raw, window = host.timed(lambda: sum(range(100000)))
    assert value == sum(range(100000))
    assert len(host.samples) == 2  # one probe before, one after
    assert window[0] < window[1] and 0 < raw <= window[1] - window[0]
    assert host.seconds(raw, window) == raw / host.factor(window) > 0


def test_main_exits_nonzero_on_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.setattr(sys, "path", list(sys.path))

    def failing(*args, **kwargs):
        return {"correct": False, "attempted": 3, "failed": 1, "metrics": {},
                "detail": {"problems": ["x: forced"]}}

    monkeypatch.setattr(run, "run", failing)
    assert run.main(["--workload", "flow-overlap", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == {"correct": False, "attempted": 3,
                                "failed": 1, "metrics": {}}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "ttvbench"), tmp_path / "ttvbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "ttvbench/run.py", "--workload", "flow-overlap",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
