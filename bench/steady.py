"""Reference computation and order statistics shared by the benchmark's
parent and worker processes.

The host's speed drifts by tens of percent within a minute while the
process keeps its core (CPU time tracks wall time), so a raw latency
mostly measures the host. Each timed command is therefore flanked by a
fixed pure-Python computation of the same flavour as kava's own work
(frozen dataclasses, string keys, dict grouping, sorting), and latencies
are reported at the reference's nominal speed:

    normalized_ms = raw_ms * REF_NOMINAL_MS / ref_ms
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

# Nominal duration of reference(): normalized latencies are in milliseconds
# at this reference speed. Only ratios matter for comparisons; the value is
# the reference's early median on a shared 2-core Linux host (the reference
# runs in README.md saw medians of 35-36 ms).
REF_NOMINAL_MS = 30.0

# Nominal wall time of a child `python -c pass`, the reference of the
# cold-start metric (the proof runs saw medians of 71-73 ms).
BARE_START_NOMINAL_MS = 50.0

_REF_ITEMS = 12000


@dataclass(frozen=True)
class _Cell:
    key: str
    value: int


def reference() -> int:
    n = _REF_ITEMS
    cells = [_Cell(f"n{(i * 7919) % n:05d}", i) for i in range(n)]
    index: dict = {}
    for c in cells:
        index.setdefault(c.key[:4], []).append(c)
    ordered = sorted(cells, key=lambda c: c.key)
    return len(index) + ordered[0].value + len({c for c in cells[: n // 4]})


def timed_reference_ms() -> float:
    t0 = time.perf_counter_ns()
    reference()
    return (time.perf_counter_ns() - t0) / 1e6


def windowed_refs(refs):
    """Speed estimate per command from its flanking reference pair.

    refs holds (before, after) durations for each command in time order.
    Each command gets the mean of its own pair plus the nearest reference
    of each neighbouring command: four samples spanning the command. On a
    shared 2-core host this steadied validate's normalized latency (CV 0.13
    -> 0.10) as much as a reference three times as long, at no extra cost."""
    out = []
    for i in range(len(refs) // 2):
        window = refs[max(0, 2 * i - 1): 2 * i + 3]
        out.append(sum(window) / len(window))
    return out


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Highest whole percentile with at least ten samples beyond it, or
    None when there are fewer than forty samples (it would be no tail)."""
    n = len(values)
    if n < 40:
        return None
    pct = math.floor(100 * (1 - 10 / n))
    ordered = sorted(values)
    k = min(n - 1, math.ceil(pct / 100 * n) - 1)
    return {"percentile": pct, "value": ordered[k], "beyond": n - 1 - k}


def loglog_slope(points):
    """Least-squares slope of log(y) over log(x); 0.0 when some y is not
    positive (the layer did no work at that size)."""
    if len(points) < 2 or any(y <= 0 for _, y in points):
        return 0.0
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
