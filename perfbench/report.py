"""What a workload hands back to ``run.py``, and the percentile rule."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.metrics.histogram import LatencyHistogram, nearest_rank

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise it reads 0.
MIN_BEYOND = 10


def percentile_or_zero(samples: Sequence[float], percentile: float) -> float:
    """Nearest-rank ``percentile`` of ``samples`` (the repo's histogram
    rule), or 0 when fewer than :data:`MIN_BEYOND` samples lie beyond it."""
    count = len(samples)
    if count == 0 or count - nearest_rank(percentile, count) < MIN_BEYOND:
        return 0.0
    return LatencyHistogram(samples).percentile(percentile)


@dataclass
class Outcome:
    """Result of one workload run.

    ``end_to_end`` holds the measured figures the workload owns
    (``ops_per_s`` and ``wall_s``); ``run.py`` adds ``setup_s`` from
    ``setup_build_s`` and the package import time, and ``peak_rss_mb``.
    """

    attempted: int
    failed: int
    setup_build_s: float = 0.0
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        """Record a failed correctness check."""
        self.errors.append(message)

    def compare_repeat(self, first: object, second: object, what: str) -> None:
        """Same-seed self-check: ``first`` and ``second`` summarise two runs
        of identical work and must be equal.  A difference is counted in
        ``determinism.mismatches`` rather than failing the run, because it
        says the program is not repeatable, not that its output is wrong."""
        same = first == second
        self.per_layer["determinism.mismatches"] = 0 if same else 1
        if not same:
            self.notes.append(f"DETERMINISM: {what} differ between same-seed runs")

    @property
    def correct(self) -> bool:
        return not self.errors
