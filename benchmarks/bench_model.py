"""BENCH model — structural model validation against exploration.

For every core-tier config, in the SERIAL and the paper-default OVERLAP
handshake modes, builds the composed fabric model and validates it two
ways: structurally (:meth:`repro.stg.Stg.check_model`: liveness,
boundedness and consistency from token distances) and by exploring the
reachability graph (:mod:`repro.testing.model_oracle`) under a fixed
marking budget.  Each row records both verdicts, both times and whether
the verdicts agree; an explored check that runs out of budget reads
``capped`` and its ``agree`` cell is null.

The load-bearing assertions: every model validates structurally, and
no decided explored verdict disagrees with it (``check_envelopes.py``
re-checks the ``agree`` column of the artifact).

Artifacts: ``benchmarks/out/BENCH_model.txt`` and
``benchmarks/out/BENCH_model.json``.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_model.py -q
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import out_path, write_out
from repro.corpus import generate, names
from repro.desync import DesyncOptions, HandshakeMode, run_pipeline
from repro.obs import METRICS
from repro.report import TextTable, write_json
from repro.testing.model_oracle import (
    CAPPED,
    VALID,
    explored_verdict,
    structural_verdict,
)

#: Markings the explored check may visit per model.
BUDGET = 20_000
#: Structural checks are timed as the best of this many runs.
REPEATS = 3

COLUMNS = [
    "config", "mode", "transitions", "places", "structural",
    "structural_ms", "explored", "explored_ms", "agree",
]


def _timed(check, repeats: int = 1):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        verdict, _message = check()
        elapsed = (time.perf_counter() - start) * 1e3
        best = elapsed if best is None else min(best, elapsed)
    return verdict, round(best, 3)


def _row(config: str, mode: HandshakeMode) -> list[object]:
    options = DesyncOptions(mode=mode, validate_model=False)
    model = run_pipeline(generate(config), options).model
    structural, structural_ms = _timed(lambda: structural_verdict(model),
                                       REPEATS)
    explored, explored_ms = _timed(
        lambda: explored_verdict(model, budget=BUDGET))
    agree = None if explored == CAPPED else explored == structural
    return [config, mode.value, len(model.transitions), len(model.places),
            structural, structural_ms, explored, explored_ms, agree]


@pytest.mark.benchmark(group="model")
def test_bench_model(benchmark):
    METRICS.reset()  # the envelope's metrics block is this run's alone

    def sweep():
        return [_row(config, mode) for config in names("core")
                for mode in (HandshakeMode.SERIAL, HandshakeMode.OVERLAP)]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = TextTable(f"BENCH model - structural vs explored validation "
                      f"(budget {BUDGET} markings)", COLUMNS)
    for row in rows:
        table.add_row(*("-" if cell is None else cell for cell in row))
    table.print()
    write_out("BENCH_model.txt", table.render())
    write_json(out_path("BENCH_model.json"), COLUMNS, rows,
               metrics=METRICS.snapshot())

    by_name = [dict(zip(COLUMNS, row)) for row in rows]
    assert all(row["structural"] == VALID for row in by_name), by_name
    disagreements = [row for row in by_name if row["agree"] is False]
    assert not disagreements, disagreements
    assert any(row["agree"] for row in by_name)
