"""Host-speed reference: a fixed kernel timed between operations.

On a shared VM the speed of a vCPU drifts by 20-50% over seconds to
minutes, in process CPU time as much as in wall time, so a run's
medians inherit whatever mode the host was in.  The harness therefore
times this kernel every ``INTERVAL_S`` of measured work and before each
set-up, and scales each figure by ``REFERENCE_S`` over the median kernel
time while that figure was measured.  The drift changes within seconds,
so the samples must interleave with the work they scale.  In ten
processes that each timed the same 96 ``bn_inference`` posteriors with
a sample every four, wall time spread by 19% (IQR/median) and scaled
time by 3%; timed only after the work, the kernel did not track it.

A scaled time reads as milliseconds on a host where the kernel takes
``REFERENCE_S``: it moves when the program does more or less work, and
much less when the host changes speed.  The kernel uses no ``repro``
code, so no change to the program can move it.  It mixes what the
workloads spend their time on: interpreted Python over dicts, lists
and tuples (optimizer, serving path) and numpy sorts, gathers and
``np.unique`` over tens of thousands of keys (kernels).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the reference box (2-vCPU Xeon VM, 2.0 GHz).
REFERENCE_S = 0.009
# Measured work between two kernel samples inside a closed loop.
INTERVAL_S = 0.2

_rng = np.random.default_rng(20_240_611)
_KEYS = _rng.integers(0, 1 << 40, 40_000)
_PICK = _rng.integers(0, len(_KEYS), 20_000)
_TABLE = {int(k): (i, i & 7) for i, k in enumerate(_KEYS[:20_000])}
_PROBES = [int(k) for k in _KEYS[_rng.integers(0, 20_000, 3_000)]]


def kernel() -> int:
    """The fixed reference work: ~9 ms on the reference box."""
    order = np.argsort(_KEYS, kind="stable")
    gathered = _KEYS[order][_PICK]
    np.unique(gathered & 0xFFFF, return_inverse=True)
    buckets: dict[int, list] = {}
    for key in _PROBES:
        slot, tag = _TABLE[key]
        buckets.setdefault(tag, []).append((slot, key))
    return sum(len(v) for v in buckets.values())


class HostSpeed:
    """Kernel samples of one run, kept apart per closed-loop phase, so
    each phase's figures are scaled by the host speed while it ran."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.paused_s = 0.0
        """Wall time spent in the kernel, to leave out of loop times."""
        self._last = float("-inf")

    def sample(self, key: str) -> None:
        t0 = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.setdefault(key, []).append(end - t0)
        self.paused_s += end - t0
        self._last = end

    def due(self, key: str) -> None:
        """Sample when ``INTERVAL_S`` has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample(key)

    def median_s(self, key: str | None = None) -> float:
        """Median kernel time under ``key``, or over the whole run."""
        if key is None:
            return statistics.median(
                t for samples in self.samples.values() for t in samples
            )
        return statistics.median(self.samples[key])

    def scale(self, key: str | None = None) -> float:
        """Factor that turns times measured during ``key`` (or spread
        over the whole run) into reference-host times."""
        return REFERENCE_S / self.median_s(key)
