"""Declared-vs-measured drift report.

Epoch 1 shipped ``Message.size_bytes()`` as a byte *model* (24-byte header
plus field estimates) while the wire codecs produced the *measured* frame
size, and this report tracked the gap.  Since the epoch-2 re-baseline the
golden ``results/*.txt`` files charge the measured sizes, and
``size_bytes()`` and the codec now derive from one wire spec per kind, so
``results/wire_drift.txt`` must show zero drift for every kind: any row
beyond :data:`DRIFT_THRESHOLD` — or any nonzero drift, per the tests —
means the size derivation and the encoder disagree.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

#: Relative drift above which an estimate counts as wrong (satellite rule:
#: "measured and size_bytes() disagree by >25%").
DRIFT_THRESHOLD = 0.25


def drift_rows(
    estimated: Mapping[str, int],
    measured: Mapping[str, int],
    counts: Optional[Mapping[str, int]] = None,
) -> List[Dict[str, object]]:
    """Per-kind drift table from total estimated/measured byte counters.

    ``estimated`` and ``measured`` map kind name to total bytes (over the
    same set of messages); ``counts`` optionally maps kind name to the
    number of messages, turning the totals into per-message columns.
    Rows are sorted by descending relative drift.
    """
    rows: List[Dict[str, object]] = []
    for kind in sorted(set(estimated) | set(measured)):
        estimate = int(estimated.get(kind, 0))
        measure = int(measured.get(kind, 0))
        count = int(counts.get(kind, 1)) if counts else 1
        if count <= 0:
            count = 1
        drift = abs(measure - estimate) / estimate if estimate else float(measure > 0)
        rows.append(
            {
                "kind": kind,
                "estimate_bytes": round(estimate / count, 1) if counts else estimate,
                "measured_bytes": round(measure / count, 1) if counts else measure,
                "drift_pct": round(100.0 * drift, 1),
                "drifted": drift > DRIFT_THRESHOLD,
                # Kept for golden-format stability: since epoch 2 the
                # declared size IS the measured size, so this column must
                # equal ``measured_bytes`` on every row.
                "corrected_estimate": round(measure / count, 1) if counts else measure,
            }
        )
    rows.sort(key=lambda row: (-float(row["drift_pct"]), str(row["kind"])))
    return rows


def drifted_kinds(rows: List[Dict[str, object]]) -> List[str]:
    """Kind names whose estimate drifts beyond the threshold."""
    return [str(row["kind"]) for row in rows if row["drifted"]]
