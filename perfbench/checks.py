"""Output checks on sweep records and the determinism digest of a sweep CSV.

The checks use only the paper's theorems and the workload's grid, never a
stored answer: no code's loss lies below the PCA lower bound, the closed-form
construction reaches it, and the sweep returns one record per grid cell.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from collections import Counter

from workloads import CONSTRUCTION

# tolerance of both bound checks, relative to max(|bound|, 1): the synthetic
# tasks have rank 2Z, so their bound is zero up to rounding
BOUND_RTOL = 1e-8
TIMING_COLUMN = "wall_ms"


def check_records(records, expected_counts: dict[str, int]) -> list[str]:
    """Messages for every failed check; an empty list means the output is right.

    `records` are `ResultRecord`s (or anything with the same attributes).
    Failed records are counted by the caller, not here, but they still count
    toward the grid.
    """
    problems = []
    counts = dict(Counter(r.approach for r in records))
    if counts != expected_counts:
        problems.append(
            f"records per approach {sorted(counts.items())} != grid "
            f"{sorted(expected_counts.items())}")
    for r in records:
        if r.status != "ok":
            continue
        where = f"{r.approach} at {r.sweep_param_name}={r.sweep_param_value} seed {r.seed}"
        if not (math.isfinite(r.L_total) and math.isfinite(r.lower_bound)):
            problems.append(f"{where}: non-finite loss or bound")
            continue
        slack = BOUND_RTOL * max(abs(r.lower_bound), 1.0)
        if r.L_total < r.lower_bound - slack:
            problems.append(
                f"{where}: L_total {r.L_total!r} below the lower bound "
                f"{r.lower_bound!r}")
        if r.approach == CONSTRUCTION and r.L_total > r.lower_bound + slack:
            problems.append(
                f"{where}: construction misses the lower bound "
                f"{r.lower_bound!r} with L_total {r.L_total!r}")
    return problems


def csv_digest(text: str) -> str:
    """SHA-256 of a sweep CSV with its timing column removed."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or TIMING_COLUMN not in rows[0]:
        raise ValueError(f"sweep CSV lacks a {TIMING_COLUMN} column")
    drop = rows[0].index(TIMING_COLUMN)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow(row[:drop] + row[drop + 1:])
    return hashlib.sha256(out.getvalue().encode()).hexdigest()
