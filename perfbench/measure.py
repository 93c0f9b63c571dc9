"""Statistics and host probes shared by the workloads.

Kept free of ``repro`` imports so the benchmark's own tests can exercise
the summary rules without the program under test.
"""

from __future__ import annotations

import math
import re
import resource
import signal
import statistics
import time

#: Every metric name the benchmark prints must match this.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile of ``samples``
    with at least ``TAIL_BEYOND`` samples beyond it.

    With ``n`` sorted samples that is the ``(n - TAIL_BEYOND)``-th smallest,
    the ``100 * (n - TAIL_BEYOND) / n`` percentile.  With ``TAIL_BEYOND``
    samples or fewer no percentile qualifies, and that is an error: the
    workloads are sized so it cannot happen.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"{n} samples: a tail needs more than {TAIL_BEYOND}"
        )
    rank = n - TAIL_BEYOND
    return sorted(samples)[rank - 1], 100.0 * rank / n, n


def geomean(values: list[float]) -> float:
    """Geometric mean of positive ratios."""
    if not values or min(values) <= 0:
        raise ValueError(f"geometric mean needs positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def family_geomean(values: list[tuple[str, float]]) -> float:
    """Geometric mean over families of each family's geometric mean.

    ``values`` holds ``(family, ratio)`` pairs.  Every design family weighs
    the same however many seeded variants it has, so a change confined to
    one Table III design moves the result by its sixth root, not by its
    share of the jobs.
    """
    families: dict[str, list[float]] = {}
    for family, value in values:
        families.setdefault(family, []).append(value)
    return geomean([geomean(ratios) for ratios in families.values()])


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    """User plus system CPU of this process (or its waited-for children)."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB, reported with unit ``MB``
    (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


#: The host-speed probe: a fixed pure-Python loop of this many turns of
#: arithmetic and as many steps of a walk through a list, run every
#: ``PROBE_PERIOD`` seconds (about 1.3 ms of every 50 ms).
PROBE_LOOPS = 5_000
PROBE_PERIOD = 0.05

#: The probe's time at the reference host speed.  Any constant serves: it
#: only fixes the speed that rescaled seconds are expressed in.
REFERENCE_PROBE_S = 0.0012

#: Probes this many seconds either side of an interval also weigh in its
#: speed, so a short job still has several.
PROBE_PAD = 0.5

#: The walk's list: a full-period linear congruential step over 2**15
#: slots, so it visits every slot of about a megabyte in a scattered
#: order.  The program's dict- and pointer-heavy code slows with the
#: host's caches as well as its arithmetic, and a probe of arithmetic alone
#: tracked it less closely.
_WALK = [(i * 7917 + 12345) % (1 << 15) for i in range(1 << 15)]


def _probe_loop(loops: int) -> int:
    acc = 0
    for i in range(loops):
        acc = (acc * 31 + i) % 1_000_003
    slot = 0
    for _ in range(loops):
        slot = _WALK[slot]
    return acc + slot


class HostSpeed:
    """Samples the host's speed through a run and rescales compute time to
    the reference speed.

    The benchmark shares a few cores of a busy host: a fixed loop's speed
    swings by a third over windows of seconds, and CPU time swings with it
    (it is the core that slows, not the scheduler that withholds it).  So
    a ``SIGALRM`` interval timer runs the probe loop in this process's main
    thread every ``PROBE_PERIOD`` seconds, also in the middle of a job, and
    a compute interval is rescaled by the mean of ``REFERENCE_PROBE_S /
    probe`` over the probes around it (the tenth at each end trimmed).  An
    interval spent in this process has the probes' own time taken out of
    it first.  The correction is partial: the program often slows somewhat
    more than the probe does, so some drift remains.

    Used as a context manager around the part of the run it measures.
    """

    def __init__(self, loops: int = PROBE_LOOPS, period: float = PROBE_PERIOD) -> None:
        self.loops = loops
        self.period = period
        #: ``(start, end)`` of every probe, in ``time.perf_counter`` seconds.
        self.probes: list[tuple[float, float]] = []
        self._previous = None

    def _probe(self, _signum, _frame) -> None:
        started = time.perf_counter()
        _probe_loop(self.loops)
        self.probes.append((started, time.perf_counter()))

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def probe_seconds(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` the probes themselves took."""
        return sum(
            max(0.0, min(b, end) - max(a, start)) for a, b in self.probes
        )

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the host's speed around ``[start, end]``."""
        ratios = sorted(
            REFERENCE_PROBE_S / (b - a) for a, b in self.probes
            if a >= start - PROBE_PAD and b <= end + PROBE_PAD
        )
        if not ratios:
            raise ValueError(f"no host-speed probe near [{start}, {end}]")
        cut = len(ratios) // 10
        return statistics.fmean(ratios[cut:len(ratios) - cut])

    def rescale(
        self, start: float, end: float, compute: float | None = None,
        *, probed: bool = True,
    ) -> float:
        """Seconds of ``[start, end]`` at the reference host speed.

        When the interval was spent in this process (``probed``), the
        probes ran inside it and their time is removed first; work done in
        a child process ran beside them.  Then ``compute`` of the seconds
        (all of them by default) is rescaled; the rest -- sleeps, poll
        intervals -- is time that host speed does not change.
        """
        wall = end - start
        if probed:
            wall -= self.probe_seconds(start, end)
        compute = wall if compute is None else min(compute, wall)
        return wall + compute * (self.factor(start, end) - 1.0)

    def median_probe_s(self) -> float:
        """The median probe time: the ``host.calib_s`` drift diagnostic."""
        return statistics.median(b - a for a, b in self.probes)
