"""Shared measurement helpers: percentiles, memory, machine context."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float | None:
    """Peak resident set (``VmHWM``) of a live process, or ``None`` where
    ``/proc`` does not report it."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def host_loop_ms() -> float:
    """Milliseconds a fixed pure-Python loop takes now (median of five).

    Recorded with each result, before and after the workload, so that a
    shift between two sets of runs can be told apart from a change in
    the program: on a shared virtual machine the host's speed drifts by
    tens of percent over minutes."""
    times = []
    for _ in range(5):
        began = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - began)
    return statistics.median(times) * 1e3


def machine_context() -> dict:
    """What a result was measured on (recorded with every result)."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not on Linux
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "sched_affinity": affinity,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
