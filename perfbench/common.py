"""Helpers shared by the workloads: seeds, percentiles, memory."""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
from typing import Iterable, List, Sequence

#: A percentile needs this many samples beyond it to count as a tail.
TAIL_BEYOND = 10
#: Below this many samples the tail is reported as the median.
TAIL_MIN_SAMPLES = 40


def derive(seed: int, *parts) -> int:
    """A 32-bit seed derived from the workload seed and ``parts``."""
    text = ":".join(str(part) for part in (seed,) + parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)


def p50(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail(values: Sequence[float]) -> float:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it."""
    ordered = sorted(values)
    if len(ordered) < TAIL_MIN_SAMPLES:
        return statistics.median(ordered)
    return ordered[len(ordered) - TAIL_BEYOND - 1]


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (from /proc; empty where unavailable)."""
    children: List[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children.extend(int(child) for child in handle.read().split())
    except OSError:
        pass
    return children


def peak_rss_mb(extra_pids: Iterable[int] = ()) -> float:
    """Peak resident set of this process plus ``extra_pids``, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(_vm_hwm_kb(pid) for pid in extra_pids)) / 1024.0

