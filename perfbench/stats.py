"""Summary statistics and failure accounting for the benchmark.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it (``tail``), always with the sample
count, so a tail figure is never an extrapolation from a handful of
points.  Failures are counted against attempts: a refused request, a
timeout and a wrong answer all count the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

__all__ = [
    "TAIL_LADDER",
    "Tally",
    "Timing",
    "percentile",
    "summarize",
    "tail_percentile",
]

# Candidate tail percentiles, highest first.  Decades rather than a fine
# ladder, so a run-to-run wobble in the sample count does not switch
# which percentile a workload reports.
TAIL_LADDER = (99.9, 99.0, 90.0)

# Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of already-sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = (len(sorted_values) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    return float(sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * frac)


def tail_percentile(n: int, ceiling: float = TAIL_LADDER[0]) -> Optional[float]:
    """The highest ladder percentile with >= 10 of ``n`` samples beyond it.

    Rungs above ``ceiling`` are skipped: a workload whose sample count
    straddles a rung pins its tail below it, so that run-to-run changes
    in throughput do not switch which percentile it reports.  ``None``
    when even the lowest rung lacks ten samples above it.
    """
    for pct in TAIL_LADDER:
        if pct > ceiling:
            continue
        beyond = n - 1 - math.floor((n - 1) * pct / 100.0)
        if beyond >= MIN_BEYOND:
            return pct
    return None


@dataclass(frozen=True)
class Timing:
    """Median and tail of one latency population."""

    n: int
    median: float
    tail_pct: Optional[float]
    tail: float


def summarize(values: Sequence[float], ceiling: float = TAIL_LADDER[0]) -> Timing:
    """Median plus the rule-conforming tail, at most the ``ceiling`` percentile.

    With too few samples for any ladder percentile, the tail is the
    slowest sample and ``tail_pct`` is ``None`` — shown as ``max``.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples to summarize")
    pct = tail_percentile(len(ordered), ceiling)
    tail = percentile(ordered, pct) if pct is not None else float(ordered[-1])
    return Timing(len(ordered), percentile(ordered, 50.0), pct, tail)


@dataclass
class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def ok(self) -> None:
        """Count one operation that succeeded and checked out."""
        self.attempted += 1

    def fail(self, reason: str) -> None:
        """Count one operation that was refused, timed out or was wrong."""
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def reject(self, reason: str) -> None:
        """Turn an operation already counted as good into a failure.

        For checks made after the timed window, such as recomputing a
        sample of results.
        """
        if self.failed >= self.attempted:
            raise ValueError("no successful operation left to reject")
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def merge(self, other: "Tally") -> None:
        """Fold another tally into this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        for reason, count in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + count

    @property
    def error_rate(self) -> float:
        """Failed over attempted (0.0 when nothing was attempted)."""
        return self.failed / self.attempted if self.attempted else 0.0
