"""Order statistics used by the benchmark: median and the reported tail."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, lowest first.  The reported tail is the highest
# one that still leaves at least MIN_BEYOND samples strictly above its rank.
TAIL_LADDER = (50.0, 60.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
MIN_BEYOND = 10


def rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n sorted samples."""
    return max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it.

    With fewer than 2 * MIN_BEYOND samples no ladder entry qualifies and the
    median (50) is returned; ``samples_beyond`` then reports the shortfall.
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - rank(p, n) >= MIN_BEYOND:
            best = p
    return best


def samples_beyond(p: float, n: int) -> int:
    return n - rank(p, n)


def percentile(sorted_values, p: float):
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[rank(p, len(sorted_values)) - 1]


def windows(groups, size: int):
    """Cut the samples, in the order they were taken, into windows of ``size``.

    A remainder shorter than ``size`` joins the last window; fewer samples
    than ``size`` in all make a single window.
    """
    flat = [x for group in groups for x in group]
    cuts = list(range(0, max(len(flat) - size, 0) + 1, size)) or [0]
    out = [flat[a:a + size] for a in cuts]
    out[-1] = flat[cuts[-1]:]
    return out


def summarise_latencies(groups, window: int) -> dict:
    """Median latency over all samples and the tail over windows, in ms.

    ``groups`` holds the latencies (ns) of each pass, in order.  The tail is
    taken in each window of ``window`` consecutive samples and the median
    over windows is reported, so a rare stall of the host moves it less.
    """
    wins = [sorted(w) for w in windows(groups, window)]
    shortest = min(len(w) for w in wins)
    p = tail_percentile(min(window, shortest))
    return {
        "op_ms_p50": statistics.median(x for w in wins for x in w) / 1e6,
        "op_ms_tail": statistics.median(percentile(w, p) for w in wins) / 1e6,
        "tail_percentile": p,
        "tail_samples_beyond": samples_beyond(p, shortest),
        "samples": sum(len(w) for w in wins),
        "tail_windows": len(wins),
    }

