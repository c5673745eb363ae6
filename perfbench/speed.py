"""CPU-speed normalisation of timings.

The benchmark runs on shared machines whose effective CPU speed drifts by
tens of percent within seconds and flips between two modes about 2x apart
(other tenants, core sharing): on a shared 2-vCPU x86-64 VM the same
pure-Python loop took anywhere from 0.6 to 1.2 ms. Timings are therefore
expressed at a reference speed. A fixed calibration loop, independent of
refrank, runs between timed segments at least every ``INTERVAL_S``. Of each
segment, the CPU time the process used is scaled by ``REFERENCE_S /
mean(calibration before, calibration after)`` and the rest, time spent
waiting (on the stub server, say), is kept as measured. A purely CPU-bound
segment is thus scaled whole and a purely waiting one not at all.

The scale cancels when two commits are compared on one machine.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time

# Calibration time that defines the reference speed (about the median on that VM).
REFERENCE_S = 0.001
INTERVAL_S = 0.02


def calibrate(rounds: int = 300) -> float:
    """Seconds this process needs for a fixed mix of hashing, float math and dict work."""
    started = time.perf_counter()
    acc = 0.0
    table: dict[bytes, tuple[int, float]] = {}
    for i in range(rounds):
        digest = hashlib.blake2b(f"calibration\x1f{i}".encode(), digest_size=16).digest()
        u = (int.from_bytes(digest[:8], "big") + 0.5) / 2.0**64
        acc += math.sqrt(-2.0 * math.log(u)) * math.cos(2.0 * math.pi * u)
        table[digest] = (i, acc)
        if len(table) > 64:
            table.clear()
        sorted((u, i, -u))
    return time.perf_counter() - started


def calibrate_median(times: int = 3) -> float:
    return statistics.median(calibrate() for _ in range(times))


class SpeedMeter:
    """Times segments of work; reports them raw and at the reference speed."""

    def __init__(self, scale: bool):
        self.scale = scale
        self.calibrations = [calibrate()] if scale else []
        self._last = time.perf_counter()
        # (wall seconds, CPU seconds, calibration before, is a query)
        self.segments: list[tuple[float, float, int, bool]] = []

    def time(self, call, query: bool = False):
        """Run ``call()`` as one timed segment and return its result."""
        if self.scale and time.perf_counter() - self._last >= INTERVAL_S:
            self.calibrations.append(calibrate())
            self._last = time.perf_counter()
        started, cpu_started = time.perf_counter(), time.process_time()
        try:
            return call()
        finally:
            wall = time.perf_counter() - started
            cpu = min(time.process_time() - cpu_started, wall)
            self.segments.append((wall, cpu, len(self.calibrations) - 1, query))

    def scaled(self) -> list[float]:
        """Every segment's duration at the reference speed (as measured when not scaling).

        Call once, after the last segment: it takes the closing calibration.
        """
        if not self.scale:
            return [wall for wall, _, _, _ in self.segments]
        calibrations = self.calibrations + [calibrate()]
        return [
            at_reference(wall, cpu, (calibrations[before] + calibrations[before + 1]) / 2.0)
            for wall, cpu, before, _ in self.segments
        ]


def at_reference(wall: float, cpu: float, calibration: float) -> float:
    """``wall`` seconds, of which ``cpu`` were computing, at the reference speed."""
    return wall - cpu + cpu * REFERENCE_S / calibration
