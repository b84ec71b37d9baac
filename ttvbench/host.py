"""Host-speed sampling, and request times in host-normalized seconds.

On the 2-vCPU KVM guest (Xeon, Python 3.11) this benchmark was tuned on,
Python runs at one of two speeds about 1.6x apart, switching every
0.3-2 s, and the share of slow time drifts from one minute to the next;
CPU time slows with wall time, and the guest has no hardware counters.
Raw times of identical runs there spread by 15-35 % (IQR over median).

:class:`HostSpeed` samples the host while a run works: every
:data:`INTERVAL_S` a ``SIGALRM`` handler times a fixed stdlib probe
(plain function calls and integer arithmetic, the instruction mix the
library's model checker and simulators run).  A request is timed with a
probe just before and just after it; its time, less the probes taken
inside it, is divided by its *host factor*: the mean probe time over the
request, widened by :data:`WINDOW_S` on each side, relative to
:data:`REFERENCE_PROBE_S`.  The result reads as the seconds the request
would take on a host where the probe takes :data:`REFERENCE_PROBE_S`,
about the probe's fast-state time on that guest.  A change to the library moves it exactly as it moves
the raw time; a change of host speed largely cancels.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Probe time that defines the reference host, in seconds.
REFERENCE_PROBE_S = 75e-6
#: Sampling period of the probe while a run works, in seconds.
INTERVAL_S = 0.02
#: A request's host factor is read from the probes within this many
#: seconds of it, so a millisecond request averages about ten probes;
#: the host holds each speed for 0.3 s or more.
WINDOW_S = 0.1
_PROBE_CALLS = 1000


def _add(a: int, b: int) -> int:
    return a + b


def _probe_work() -> int:
    acc = 0
    for i in range(_PROBE_CALLS):
        acc = _add(acc, i) & 0xFFFFFF
    return acc


class HostSpeed:
    """Probe samples of one process; :meth:`timed` measures a call."""

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []
        self._previous = None

    def probe(self, *_signal_args) -> float:
        start = time.perf_counter()
        _probe_work()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.times.append(end)
        return end - start

    def start(self) -> None:
        """Sample every :data:`INTERVAL_S` until :meth:`stop`."""
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def timed(self, call) -> tuple[object, float, tuple[float, float]]:
        """Run ``call()``; return ``(value, raw_seconds, window)``: its
        time less the probes taken inside it, and its ``perf_counter``
        interval.  Normalize later with :meth:`seconds`, once the
        probes after it are in."""
        self.probe()
        first = len(self.samples)
        start = time.perf_counter()
        value = call()
        end = time.perf_counter()
        inside = sum(self.samples[first:])
        self.probe()
        return value, end - start - inside, (start, end)

    def factor(self, window: tuple[float, float]) -> float:
        """Host factor over ``window`` widened by :data:`WINDOW_S`."""
        low = bisect.bisect_left(self.times, window[0] - WINDOW_S)
        high = bisect.bisect_right(self.times, window[1] + WINDOW_S)
        if high == low:
            raise ValueError("no host-speed probe near the window")
        return statistics.fmean(self.samples[low:high]) / REFERENCE_PROBE_S

    def seconds(self, raw: float, window: tuple[float, float]) -> float:
        """``raw`` seconds taken over ``window``, host-normalized."""
        return raw / self.factor(window)

    def summary(self) -> dict[str, float]:
        """Probe statistics of the run, for the detail record."""
        ordered = sorted(self.samples)
        return {"probes": len(ordered),
                "probe_p05_s": ordered[len(ordered) // 20],
                "probe_p50_s": ordered[len(ordered) // 2],
                "host_factor": statistics.fmean(ordered) / REFERENCE_PROBE_S}
