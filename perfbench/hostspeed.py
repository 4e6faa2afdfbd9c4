"""Host speed, sampled inside the benchmark process, for steady timings.

The benchmark runs on a few cores of a shared machine whose speed swings
by 20-40 % within seconds and over minutes, so the program's own
timings move with its neighbours' load even when they are taken in the
process's CPU time, which leaves out the time a neighbour holds the core.
HostSpeed measures that speed from inside the process that runs the
program: a SIGALRM timer interrupts it every PERIOD_S of wall time and
runs a fixed probe (big-integer, Fraction, mpmath and dict work, the
program's own mix, about 2.5 ms), recording how long the probe took on
the given clock.  (A CPU-time timer would not do: while one is armed,
Linux reads the process CPU clock only at scheduler ticks.)

work_seconds(a, b) then turns a clock interval into the seconds the
program would have needed at the reference speed, the speed at which one
probe takes REF_PROBE_S: the interval is cut at the midpoints between
probes, each piece is scaled by REF_PROBE_S / (that probe's duration,
a running median of SMOOTH probes), and the probes' own time inside the
interval is taken out.  A later change to the program moves these
figures; a change in the neighbours' load mostly does not.

The probe is part of the benchmark's definition: changing it, PERIOD_S
or REF_PROBE_S changes the scale of every time the benchmark reports.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from fractions import Fraction

import mpmath

PERIOD_S = 0.05
REF_PROBE_S = 0.0025
SMOOTH = 5
BURST = 16

_A = random.Random(7).getrandbits(3000) | 1
_B = random.Random(8).getrandbits(3000) | 1
_MP = mpmath.MPContext()        # its own precision, never the program's mp
_MP.prec = 200


def probe() -> int:
    """A fixed amount of work; only its duration matters."""
    s = 0
    for i in range(40):
        s ^= (_A * _B + i) % (_B >> 9 | 1)
    fr = Fraction(1)
    for i in range(1, 40):
        fr = fr * Fraction(i + 3, i + 1) + Fraction(1, i)
    x = _MP.mpf(1)
    for i in range(1, 60):
        x = x * (i + _MP.mpf(0.5)) / (x + i)
    d = {}
    for i in range(600):
        d[i & 31] = d.get(i & 31, 0) + i
    return s ^ fr.numerator ^ int(x) ^ len(d)


class HostSpeed:
    def __init__(self, clock, on_probe=None):
        self.clock = clock
        self.on_probe = on_probe    # called with each timer probe's duration
        self.probes = []            # (start, duration), in clock time
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:              # a signal that arrived during a probe
            return
        self._busy = True
        t0 = self.clock()
        probe()
        dt = self.clock() - t0
        self.probes.append((t0, dt))
        if self.on_probe is not None:
            self.on_probe(dt)
        self._busy = False

    def burst_scale(self) -> float:
        """REF_PROBE_S over the median of BURST probes run now, for an
        interval measured just before (set-up)."""
        durs = []
        for _ in range(BURST):
            t0 = self.clock()
            probe()
            durs.append(self.clock() - t0)
        return REF_PROBE_S / statistics.median(durs)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.probes:
            self._sample()          # a run shorter than one period
        durs = [d for _, d in self.probes]
        h = SMOOTH // 2
        smooth = [statistics.median(durs[max(0, i - h):i + h + 1]) for i in range(len(durs))]
        self._starts = [t for t, _ in self.probes]
        self._speed = [REF_PROBE_S / d for d in smooth]
        mids = [t + d / 2 for t, d in self.probes]
        self._cuts = [(u + v) / 2 for u, v in zip(mids, mids[1:])]

    def work_seconds(self, a: float, b: float) -> float:
        """Seconds at the reference speed that the program ran in [a, b]."""
        cuts, speed = self._cuts, self._speed
        i = bisect.bisect_right(cuts, a)
        total, t = 0.0, a
        while t < b:
            end = min(cuts[i], b) if i < len(cuts) else b
            total += (end - t) * speed[i]
            t, i = end, i + 1
        j0, j1 = bisect.bisect_left(self._starts, a), bisect.bisect_left(self._starts, b)
        total -= sum(self.probes[j][1] * speed[j] for j in range(j0, j1))
        return max(total, 0.0)

    def summary(self) -> dict:
        durs = [d for _, d in self.probes]
        return {"probes": len(durs), "probe_total_s": sum(durs),
                "probe_p50_ms": 1e3 * statistics.median(durs),
                "probe_min_ms": 1e3 * min(durs), "probe_max_ms": 1e3 * max(durs)}
