"""Host speed sampled during timed calls, and call times scaled to one host speed.

The benchmark runs on a vCPU of a shared host whose speed drifts with what
its other tenants run. In one two-minute stretch the same train episode took
1.2 s to 1.9 s, and the medians of its 30 s windows spread by 43%. How hard
the drift hits depends on the code: in some stretches trajgen's pure-Python
calls barely moved while numpy-heavy code slowed, in others both slowed
alike.

``Sampler`` times a fixed probe every ``PERIOD_S`` from a SIGALRM handler
while a timed call runs. ``ref_speed_s`` scales each stretch between two
probes by ``REF_PROBE_S / probe``: the result is the call's time on a host
where the probe always takes ``REF_PROBE_S``, about its time at full speed on
the Xeon host the benchmark was sized on. The probe mixes the kinds of code
the program runs, so that its slowdown tracks the program's on every
workload: small numpy operations, first with whatever the program left in
the caches and then again warm, a pure-Python arithmetic loop, and a
heap-and-dict shortest-path search. Over two-minute stretches of strong
drift, scaling cut the quartile spread of 30 s medians from 31% to 4%
(trajgen) and from 11% to 1% (train). The probe takes about 1.5% of a call.
"""

from __future__ import annotations

import heapq
import signal
import time

import numpy as np

PERIOD_S = 0.010
REF_PROBE_S = 100e-6

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((32, 32))
_X = _rng.standard_normal(32)
_NODES = 64
_ADJ = {u: [((u + k) % _NODES, 1.0 + (u * k) % 7) for k in (1, 5, 11)] for u in range(_NODES)}


def probe() -> None:
    for _ in range(2):
        x = _X
        for _ in range(6):
            x = np.tanh(_W @ x)
    total = 0
    for i in range(300):
        total += i * i
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, w in _ADJ[u]:
            if du + w < dist.get(v, float("inf")):
                dist[v] = du + w
                heapq.heappush(heap, (du + w, v))


class Sampler:
    """Probe times ``(end, duration)`` taken every PERIOD_S between start and stop."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        a = time.perf_counter()
        probe()
        b = time.perf_counter()
        self.samples.append((b, b - a))

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> list[tuple[float, float]]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.samples


def ref_speed_s(start: float, end: float, samples: list[tuple[float, float]]) -> float:
    """Time of the call [start, end] at the reference host speed.

    Each stretch up to a probe loses the probe's own time and is scaled by
    ``REF_PROBE_S / probe``; the stretch after the last probe takes the last
    probe's scale. Without probes the call is returned as measured.
    """
    total = 0.0
    last = start
    scale = 1.0
    for t, d in samples:
        scale = REF_PROBE_S / d
        total += (t - last - d) * scale
        last = t
    return total + (end - last) * scale
