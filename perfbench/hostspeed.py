"""Host-speed probes, so that times repeat on a shared host.

On a shared host a vCPU runs at anywhere from full to a quarter of its
speed for seconds to minutes at a time, and CPU time tracks wall time, so
neither clock alone repeats between runs.  `start` times a fixed
pure-Python loop (`probe`) every PROBE_EVERY_S of wall time, from a SIGALRM
handler in the thread doing the work.  An interval's reference time is its
wall time, less the probes run inside it, times the mean over its probes of
PROBE_REF_S / probe duration: the seconds it would take on a host where one
probe takes PROBE_REF_S.  The mean of that ratio, not of the durations, is
the share of the interval's wall time the vCPU ran at full speed.  A stall
of the vCPU that falls between two probes is not seen: the handler runs
after it, at full speed.  It weighs little in a sum over many operations,
and much in a single short one.

All times are `time.monotonic()`.
"""

import signal
import statistics
import time
from fractions import Fraction
from typing import Dict, List, Tuple

PROBE_EVERY_S = 0.01
PROBE_REF_S = 0.25e-3   # one probe on an uncontended 2-vCPU Xeon host
PROBE_MIN = 5           # an interval with fewer probes uses its nearest ones
PROBES: List[Tuple[float, float]] = []   # (start, duration) of every probe


def probe() -> None:
    t0 = time.monotonic()
    acc, seen = Fraction(0), {}
    for i in range(1, 101):
        acc += Fraction(i % 7, 1 + i % 5)
        seen[i % 13, i] = acc
    PROBES.append((t0, time.monotonic() - t0))


def _tick(*_) -> None:
    probe()
    # re-armed after each probe, so that a slow probe never nests in another
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)


def start() -> None:
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)


def stop() -> None:
    # A _tick still pending would re-arm the timer, and its alarm would meet
    # the default action at interpreter exit and kill the process.  With the
    # signal ignored first, a pending _tick is dropped and no alarm kills.
    signal.signal(signal.SIGALRM, signal.SIG_IGN)
    signal.setitimer(signal.ITIMER_REAL, 0)


def timed(a: float, b: float, probes=PROBES) -> Dict[str, float]:
    """Times of the interval [a, b]: `wall_s` in all, `probe_s` of it spent
    in probes, and `ref_s`, the reference time of the rest."""
    inside = [p for p in probes if a <= p[0] < b]
    probe_s = sum(d for _, d in inside)
    near = inside
    if len(near) < PROBE_MIN:
        mid = (a + b) / 2
        near = sorted(probes, key=lambda p: abs(p[0] - mid))[:PROBE_MIN]
    speed = statistics.fmean(PROBE_REF_S / d for _, d in near)
    return {"wall_s": b - a, "probe_s": probe_s, "ref_s": (b - a - probe_s) * speed}


def median_probe_ms() -> float:
    return 1e3 * statistics.median(d for _, d in PROBES)
