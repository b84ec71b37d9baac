"""Write ``ttvbench/pins.json``: the verdict class and quality ratios of
every design and sweep cell, as the library produces them now.

Usage, from the repository root: ``python3 ttvbench/pin.py``.

Run it only when the benchmark's workloads change.  A change to the
library is checked against the pins; it must not rewrite them.  A design
that stops at the state cap is pinned with the ratios of the same flow
run without model validation, so that it passes if it later validates
with those ratios.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _pin(outcome) -> dict:
    return {"verdict": outcome.verdict, "cycle_ratio": outcome.cycle_ratio,
            "area_ratio": outcome.area_ratio}


def _capped_ratios(name: str, mode) -> tuple[float, float]:
    from repro.corpus import generate
    from repro.desync import DesyncOptions, desynchronize
    from ttvbench.workloads import _design_ratios
    result = desynchronize(generate(name),
                           DesyncOptions(mode=mode, validate_model=False))
    return _design_ratios(result)


def collect(work_dir: str) -> dict:
    from repro.desync import HandshakeMode
    from ttvbench.workloads import WORKLOADS
    pins: dict[str, dict] = {}
    modes = {"flow-overlap": HandshakeMode.OVERLAP,
             "verify-serial": HandshakeMode.SERIAL}
    for name, factory in WORKLOADS.items():
        workload = factory(0, work_dir)
        workload.setup()
        result = workload.run_pass()
        entries = {}
        for outcome in sorted(result.outcomes, key=lambda o: o.key):
            if outcome.verdict == "error":
                raise RuntimeError(f"{name}: {outcome.key}: {outcome.detail}")
            if outcome.verdict == "capped":
                outcome.cycle_ratio, outcome.area_ratio = _capped_ratios(
                    outcome.key, modes[name])
            entries[outcome.key] = _pin(outcome)
        pins[name] = entries
        print(f"{name}: {len(entries)} pinned", file=sys.stderr)
    return pins


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    os.makedirs(os.path.join(ROOT, ".ttvbench-work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="pin-",
                                dir=os.path.join(ROOT, ".ttvbench-work"))
    try:
        pins = collect(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(os.path.join(HERE, "pins.json"), "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
