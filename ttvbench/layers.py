"""Outside-in per-layer tracing of the ``repro`` library.

The benchmark measures layers without touching library code: it wraps
the public entry points named in :data:`ENTRY_POINTS` and records, in
memory, one span per call.  A layer's self time is its span's duration
minus the time of the wrapped calls nested inside it; time inside a
request that falls under no wrapped call is *unattributed*.

Wrapping replaces the function everywhere it is bound: in its defining
module and in every loaded ``repro`` module that imported it by name
(``repro.desync.pipeline`` imports ``cycle_time``, ``analyze``,
``build_network`` and ``fabric_model`` that way).  Methods are wrapped
on their class.

The sweep runs its cells in a forked pool worker.  The worker inherits
the wrappers; its spans are written to a spool directory per task and
merged into the parent's table after each request, with the worker's
task time moved out of ``faults.executor`` (which waits for it).
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: layer -> entry points ("module", "function" or "Class.method").
ENTRY_POINTS: dict[str, tuple[tuple[str, str], ...]] = {
    "corpus": (("repro.corpus.registry", "generate"),),
    "verilog": (("repro.verilog.writer", "netlist_to_verilog"),
                ("repro.verilog.reader", "read_verilog")),
    "desync.cluster": (("repro.desync.clustering", "cluster_registers"),),
    "desync.latchify": (("repro.desync.latchify", "latchify"),),
    "desync.network": (("repro.desync.network", "build_network"),),
    "timing.sta": (("repro.timing.sta", "analyze"),),
    "stg.model": (("repro.stg.cluster_model", "fabric_model"),),
    "baselines": (("repro.baselines.doubly_latched", "dlap_model"),
                  ("repro.baselines.nonoverlap", "nonoverlap_model")),
    "stg.check_model": (("repro.stg.stg", "Stg.check_model"),),
    "petri.cycle_time": (("repro.petri.analysis", "cycle_time"),),
    "petri.simulate": (("repro.petri.simulate", "simulate"),),
    "equiv.reference": (("repro.equiv.flow_equivalence",
                         "reference_streams_batch"),),
    "equiv.desync": (("repro.equiv.flow_equivalence",
                      "desync_streams_batch"),),
    "equiv.compare": (("repro.equiv.flow_equivalence", "compare_streams"),),
    "sim.kernel": (("repro.sim.vector", "compile_pass_cached"),),
    "faults.executor": (("repro.faults.executor", "run_cells"),),
    "jobs.store": (("repro.jobs.store", "JobStore.claim"),
                   ("repro.jobs.store", "JobStore.complete"),
                   ("repro.jobs.store", "JobStore.collect")),
    "jobs.cache": (("repro.jobs.cache", "ResultCache.get"),
                   ("repro.jobs.cache", "ResultCache.put")),
}

LAYERS = tuple(ENTRY_POINTS)

#: Ratio metrics counted at the wrappers: name -> (numerator count,
#: denominator count).  ``stg.check_model.verdict_ratio`` (calls that
#: returned over calls) comes from the layer's own counts.
RATIOS = {
    "equiv.replay_ratio": ("equiv.replay_stimuli", "equiv.stimuli"),
    "sim.kernel.hit_ratio": ("sim.kernel.hits", "sim.kernel.lookups"),
    "jobs.cache.hit_ratio": ("jobs.cache.warm_hits", "jobs.cache.warm_gets"),
}

_KERNEL_COUNTERS = ("sim.vector.kernel_cache_hits",
                    "sim.vector.kernel_cache_misses")

#: The tracer whose wrappers are installed.  The pool worker reaches it
#: through :func:`_spooled_task`, which must be a module-level function
#: so the executor can pickle it by name.
_INSTALLED: "LayerTracer | None" = None
_SWEEP_TASK = ("repro.desync.pipeline", "_sweep_config_task")


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    failed: int = 0
    #: The part of ``self_s`` spent inside a request.
    request_self_s: float = 0.0


class _Frame:
    __slots__ = ("layer", "start", "child_s")

    def __init__(self, layer: str | None):
        self.layer = layer
        self.start = time.perf_counter()
        self.child_s = 0.0


class LayerTracer:
    """Per-layer call counts, self time and failures, plus request
    totals; install with :meth:`install`, scope work with
    :meth:`request`."""

    def __init__(self, spool_dir: str | None = None):
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self.counts: dict[str, int] = {}
        self.request_s = 0.0
        self.unattributed_s = 0.0
        self.kind = ""
        self.spool_dir = spool_dir
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []
        self._setup: dict[str, tuple[int, float, int]] = {}

    def mark_setup(self) -> None:
        """Record everything traced so far as set-up: :meth:`table`
        reports it once, not per pass."""
        self._setup = {layer: (entry.calls, entry.self_s, entry.failed)
                       for layer, entry in self.stats.items()}

    # -- recording -----------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _enter(self, layer: str | None) -> _Frame:
        frame = _Frame(layer)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, failed: bool) -> float:
        duration = time.perf_counter() - frame.start
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("layer spans closed out of order")
        if self._stack:
            self._stack[-1].child_s += duration
        if frame.layer is not None:
            entry = self.stats[frame.layer]
            entry.calls += 1
            entry.self_s += duration - frame.child_s
            entry.failed += failed
            if self._stack and self._stack[0].layer is None:
                entry.request_self_s += duration - frame.child_s
        return duration

    @contextmanager
    def request(self, kind: str = ""):
        """Scope one request: its time not under a layer span is
        unattributed.  ``kind`` labels counts that are kept per kind of
        request (the cache hit ratio reads warm sweeps only)."""
        from repro.obs.metrics import METRICS
        if self._stack:
            raise RuntimeError("requests do not nest")
        self.kind = kind
        before = {name: METRICS.counter(name).value
                  for name in _KERNEL_COUNTERS}
        frame = self._enter(None)
        try:
            yield
        finally:
            duration = self._exit(frame, failed=False)
            self.request_s += duration
            self.unattributed_s += duration - frame.child_s
            hits, misses = (METRICS.counter(name).value - before[name]
                            for name in _KERNEL_COUNTERS)
            self.count("sim.kernel.hits", int(hits))
            self.count("sim.kernel.lookups", int(hits + misses))
            self._merge_spool()
            self.kind = ""

    # -- wrapping ------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        global _INSTALLED
        if _INSTALLED is not None:
            raise RuntimeError("a layer tracer is already installed")
        for layer, points in ENTRY_POINTS.items():
            for module_name, qualname in points:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    owner_name, attr = qualname.split(".")
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr,
                                self._wrap(layer, module_name, qualname,
                                           original))
                else:
                    original = getattr(module, qualname)
                    wrapper = self._wrap(layer, module_name, qualname,
                                         original)
                    for holder in _holders(original):
                        self._patch(holder, qualname, wrapper)
        if self.spool_dir is not None:
            module = importlib.import_module(_SWEEP_TASK[0])
            self._sweep_task = getattr(module, _SWEEP_TASK[1])
            self._patch(module, _SWEEP_TASK[1], _spooled_task)
        _INSTALLED = self

    def uninstall(self) -> None:
        global _INSTALLED
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _INSTALLED = None

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap(self, layer: str, module_name: str, qualname: str,
              original):
        observe = _OBSERVERS.get(qualname)
        entry_point = f"{module_name}.{qualname}"
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count(entry_point)
            frame = tracer._enter(layer)
            failed = True
            try:
                result = original(*args, **kwargs)
                failed = False
            finally:
                tracer._exit(frame, failed)
                if observe is not None:
                    observe(tracer, None if failed else result, failed)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", qualname)
        wrapper.__qualname__ = getattr(original, "__qualname__", qualname)
        return wrapper

    # -- pool workers --------------------------------------------------
    def _run_spooled(self, payload):
        """Run one sweep task in the worker and spool its layer table."""
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self.counts = {}
        self._stack = []
        frame = self._enter(None)
        try:
            return self._sweep_task(payload)
        finally:
            total = self._exit(frame, failed=False)
            record = {
                "total_s": total,
                "unattributed_s": total - frame.child_s,
                "stats": {layer: [entry.calls, entry.self_s, entry.failed,
                                  entry.request_self_s]
                          for layer, entry in self.stats.items()},
                "counts": self.counts,
            }
            path = os.path.join(self.spool_dir,
                                f"{os.getpid()}-{time.monotonic_ns()}.json")
            with open(path + ".tmp", "w") as handle:
                json.dump(record, handle)
            os.replace(path + ".tmp", path)

    def _merge_spool(self) -> None:
        if self.spool_dir is None:
            return
        for name in sorted(os.listdir(self.spool_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.spool_dir, name)
            with open(path) as handle:
                record = json.load(handle)
            os.remove(path)
            for layer, values in record["stats"].items():
                entry = self.stats[layer]
                entry.calls += values[0]
                entry.self_s += values[1]
                entry.failed += values[2]
                entry.request_self_s += values[3]
            for key, amount in record["counts"].items():
                self.count(key, amount)
            # The parent's executor span waited for this task: its time
            # belongs to the worker's layers, not to the executor.
            executor = self.stats["faults.executor"]
            executor.self_s -= record["total_s"]
            executor.request_self_s -= record["total_s"]
            self.unattributed_s += record["unattributed_s"]

    # -- report --------------------------------------------------------
    def entry_calls(self) -> dict[str, int]:
        """Calls per wrapped entry point (``module.qualname``)."""
        return {f"{module}.{qualname}": self.counts.get(
                    f"{module}.{qualname}", 0)
                for points in ENTRY_POINTS.values()
                for module, qualname in points}

    def table(self, per: int = 1) -> dict[str, float]:
        """Per-layer metrics of one set-up plus one pass: what was
        traced after :meth:`mark_setup` is divided by ``per``, the
        number of traced passes.  Shares are of request time."""
        metrics: dict[str, float] = {}
        for layer, entry in self.stats.items():
            calls, self_s, failed = self._setup.get(layer, (0, 0.0, 0))
            metrics[f"{layer}.calls"] = calls + (entry.calls - calls) / per
            metrics[f"{layer}.self_s"] = \
                self_s + (entry.self_s - self_s) / per
            metrics[f"{layer}.failed"] = \
                failed + (entry.failed - failed) / per
            metrics[f"{layer}.share"] = (
                entry.request_self_s / self.request_s
                if self.request_s else 0.0)
        model = self.stats["stg.check_model"]
        metrics["stg.check_model.verdict_ratio"] = (
            (model.calls - model.failed) / model.calls
            if model.calls else 0.0)
        for name, (num, den) in RATIOS.items():
            denominator = self.counts.get(den, 0)
            metrics[name] = (self.counts.get(num, 0) / denominator
                             if denominator else 0.0)
        metrics["unattributed"] = self.unattributed_s / per
        metrics["unattributed.share"] = (self.unattributed_s / self.request_s
                                         if self.request_s else 0.0)
        return metrics


def _spooled_task(payload):
    if _INSTALLED is None:
        raise RuntimeError("sweep task wrapper called with no tracer")
    return _INSTALLED._run_spooled(payload)


def _holders(function) -> list[object]:
    """Every loaded ``repro`` module that binds ``function``."""
    holders = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is function and attr == function.__name__:
                holders.append(module)
    return holders


def _observe_desync_batch(tracer: LayerTracer, result, failed: bool) -> None:
    if failed:
        return
    _streams, engines = result
    tracer.count("equiv.stimuli", len(engines))
    tracer.count("equiv.replay_stimuli",
                 sum(1 for engine, _reason in engines if engine == "replay"))


def _observe_cache_get(tracer: LayerTracer, result, failed: bool) -> None:
    from repro.jobs import MISS
    if tracer.kind != "warm":
        return
    tracer.count("jobs.cache.warm_gets")
    if not failed and result is not MISS:
        tracer.count("jobs.cache.warm_hits")


_OBSERVERS = {
    "desync_streams_batch": _observe_desync_batch,
    "ResultCache.get": _observe_cache_get,
}
