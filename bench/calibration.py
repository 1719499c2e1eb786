"""A fixed loop whose speed tracks the host's, sampled during measured calls.

The benchmark runs on shared machines whose speed drifts by a quarter or
more within seconds, and every timing drifts with it.  The calibration loop
is the mix the program's march runs (small dense solves and Python float
work) and does not depend on the program.  :class:`Sampler` times a short
piece of it every ``SAMPLE_PERIOD_S`` of a measured call, from a SIGALRM
handler in the calling thread (no thread of its own), and subtracts the
time it took from the call.  The call's time is then scaled to a fixed host
speed, one that runs a loop step in ``REFERENCE_STEP_S``:

    time_at_reference = time * REFERENCE_STEP_S / measured_step_s

A change that loads the host while the program runs (a background thread,
say) would slow the loop too and hide part of its own cost; the plain times
are reported beside the scaled ones for that reason.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Seconds per loop step at the reference host speed, near the median of a
#: 2.1 GHz Xeon vCPU sampled during calls, so scaled times read like
#: seconds on such a machine.
REFERENCE_STEP_S = 2.0e-5

#: Wall time between two samples during a call, and loop steps per sample
#: (about 3 ms, so sampling costs about 3% of a call).
SAMPLE_PERIOD_S = 0.1
SAMPLE_STEPS = 150

_rng = np.random.default_rng(0)
_MATRIX = _rng.random((23, 23)) + 23.0 * np.eye(23)
_DRIVE = _rng.random(23)


def loop(steps: int) -> float:
    """Seconds the fixed loop takes now for ``steps`` steps."""
    state = np.zeros(23)
    total = 0.0
    t0 = time.perf_counter()
    for _ in range(steps):
        state = np.linalg.solve(_MATRIX, _DRIVE + 0.5 * state)
        for x in state.tolist():
            total += x * x
    elapsed = time.perf_counter() - t0
    if not total > 0.0:
        raise RuntimeError("calibration loop produced no work")
    return elapsed


def scaled(seconds: float, step_s: float) -> float:
    """``seconds`` scaled to the reference host speed."""
    return seconds * REFERENCE_STEP_S / step_s


class Sampler:
    """Samples the loop during a call; main thread only.

    ``start`` arms an interval timer, ``stop`` disarms it.  ``spent`` is the
    wall time the samples took (to subtract from the call), ``step_s()``
    the mean time of one loop step over them.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(loop(SAMPLE_STEPS))
        self.spent += time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def step_s(self) -> float:
        return sum(self.samples) / (len(self.samples) * SAMPLE_STEPS)
