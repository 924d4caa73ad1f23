"""Shared pieces of the benchmark: configuration, statistics, memory."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

CONFIG_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "config.json")

#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


def load_config() -> dict[str, Any]:
    with open(CONFIG_PATH, encoding="utf-8") as fh:
        return json.load(fh)


_YARD = np.random.default_rng(0).random((128, 128))


def yardstick_s() -> float:
    """Time a fixed mix of NumPy and interpreter work that shares no code
    with the program.  Timed beside each measurement, it gives the
    machine's speed at that moment, so that slow phases of a shared host
    can be divided out of CPU-bound times."""
    start = time.perf_counter()
    x = _YARD
    for _ in range(20):
        x = np.sort(x, axis=1) @ _YARD[:, :16] @ _YARD[:16, :]
    total = 0
    for i in range(20000):
        total += i * i
    return time.perf_counter() - start


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that leaves
    :data:`TAIL_BEYOND` samples above it (the 11th-largest sample)."""
    if len(values) <= TAIL_BEYOND:
        return math.nan, math.nan
    ordered = sorted(values)
    return (ordered[-TAIL_BEYOND - 1],
            100.0 * (1.0 - TAIL_BEYOND / len(ordered)))


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_hwm_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, 0 when unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


@dataclass
class Outcome:
    """What one workload run measured (before the JSON line is built)."""

    attempted: int = 0
    failed: int = 0
    breaches: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def breach(self, text: str) -> None:
        """A failed check: fails the run."""
        if len(self.breaches) < 20:
            self.breaches.append(text)

    def fail(self, text: str) -> None:
        """A failed operation: counts in ``failed`` and fails the run."""
        self.failed += 1
        self.breach(text)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)
