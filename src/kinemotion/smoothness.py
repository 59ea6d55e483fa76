"""Jerk-based smoothness statistics, cohort contrast and session evolution.

All published reference tables report a single axis (x), so comparisons
and improvement flags are computed for one named axis at a time; the
per-segment statistics of :func:`smoothness_set` always carry all three
axes.

Reference-table fixture format (also accepted from user files): CSV
with header ``movement,statistic,cohort_or_session,value`` where
statistic is mean|max|min and the third column is either a cohort name
(healthy|patient) or a session number (an integer >= 1).  Each movement
in a table needs every statistic in every column (both cohorts, or each
session number the table uses) exactly once.  Tables pooled from those
statistics (:func:`table_from_records`) have the same cells, so the
comparison and the flags are computed by one function each, whichever
source the numbers come from.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import (
    KEY_MOVEMENTS,
    _parse_float,
    _parse_int,
    is_key_movement,
    read_csv_body,
)
from .errors import ContractError, DegenerateInputError, InvalidDataError, ParseError
from .kinematics import AXES, _axis_index, central_difference

MEASURES = ("jerk", "squared_jerk")
STATISTICS = ("mean", "max", "min")
COHORTS = ("healthy", "patient")

HEALTHY_HIGHER = "healthy_higher"
PATIENT_HIGHER = "patient_higher"
EQUAL = "equal"


@dataclass(frozen=True)
class SmoothnessSet:
    """Jerk statistics of key-movement segments as arrays.

    ``stats[i, m, s, a]``, shape (N, 2, 3, 3), is statistic ``STATISTICS[s]``
    of measure ``MEASURES[m]`` on axis ``AXES[a]`` over segment i.  The
    segment is movement ``movements[i]`` of subject ``subject_ids[i]`` (of
    ``groups[i]``) in session ``sessions[i]``.
    """

    stats: np.ndarray
    subject_ids: np.ndarray
    groups: np.ndarray
    sessions: np.ndarray
    movements: np.ndarray


def smoothness_set(recordings) -> SmoothnessSet:
    """Statistics of every key-movement (M1-M4) segment of some recordings.

    Rows follow the recordings, then their annotations.  The jerk of
    annotation ``a`` is ``differentiate(recording.series.slice(a.start, a.end))``,
    by the :func:`central_difference` that ``differentiate`` calls; a mean
    sums left to right (ufunc accumulate).  A segment under 3 samples, or
    one whose statistics overflow float64, is an error.
    """
    keys = [(r, a) for r in recordings for a in r.annotations if is_key_movement(a.label)]
    stats = np.empty((len(keys), len(MEASURES), len(STATISTICS), len(AXES)))
    with np.errstate(over="ignore", invalid="ignore"):
        for row, (rec, a) in zip(stats, keys):
            n = a.end - a.start
            if n < 3:
                raise DegenerateInputError(
                    f"segment too short for jerk computation: {n} samples"
                )
            jerk = central_difference(rec.series.samples[a.start : a.end], rec.series.fs)
            both = np.stack((jerk, jerk * jerk), axis=1)  # (n, measure, axis)
            row[:, 0] = np.add.accumulate(both)[-1] / n
            row[:, 1] = both.max(axis=0)
            row[:, 2] = both.min(axis=0)
            if not np.isfinite(row).all():
                raise InvalidDataError(
                    f"{rec.subject_id} session {rec.session} {a.label} "
                    f"[{a.start}, {a.end}): jerk statistics overflow float64"
                )
    return SmoothnessSet(
        stats=stats,
        subject_ids=np.array([r.subject_id for r, _ in keys], dtype=str),
        groups=np.array([r.group for r, _ in keys], dtype=str),
        sessions=np.array([r.session for r, _ in keys], dtype=np.int64),
        movements=np.array([a.label for _, a in keys], dtype=str),
    )


# ---------------------------------------------------------------------------
# Scalar tables (one axis) and the fixture format
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceTable:
    """movement -> statistic -> column -> value, for a single axis.

    ``kind`` is "cohort", with columns ``COHORTS``, or "session", with
    the session numbers in ascending order.
    """

    kind: str
    columns: tuple
    values: dict

    def __post_init__(self):
        if self.kind not in ("cohort", "session"):
            raise ContractError(f"unknown table kind {self.kind!r}")

    def cell(self, movement, statistic, column):
        return self.values[movement][statistic][column]

    def report_parts(self):
        label = "{}" if self.kind == "cohort" else "session{}"
        header = ["movement"] + [
            f"{s}_{label.format(c)}" for s in STATISTICS for c in self.columns
        ]
        json_columns = sorted(self.columns, key=str)
        rows, payload = [], {}
        for movement in sorted(self.values):
            rows.append(
                [movement]
                + [self.cell(movement, s, c) for s in STATISTICS for c in self.columns]
            )
            # keys in sorted order at every level, as the published JSON has them
            payload[movement] = {
                s: {str(c): self.cell(movement, s, c) for c in json_columns}
                for s in sorted(STATISTICS)
            }
        return header, rows, payload


def load_table(path) -> ReferenceTable:
    """Load a fixture CSV, inferring cohort vs session layout.

    Every movement present needs every statistic in every column, once.
    """
    path = Path(path)
    values: dict = {}
    kinds = set()
    body = read_csv_body(
        path, ["movement", "statistic", "cohort_or_session", "value"], "table"
    )
    for line_no, row in enumerate(body, start=2):
        if len(row) != 4:
            raise ParseError(
                f"expected 4 columns, got {len(row)}", path=path, line=line_no
            )
        movement, statistic, key, value = row
        if movement not in KEY_MOVEMENTS:
            raise ParseError(
                f"unknown movement {movement!r}",
                path=path,
                line=line_no,
                field="movement",
            )
        if statistic not in STATISTICS:
            raise ParseError(
                f"unknown statistic {statistic!r}",
                path=path,
                line=line_no,
                field="statistic",
            )
        if key in COHORTS:
            kinds.add("cohort")
        else:
            kinds.add("session")
            where = (path, line_no, "cohort_or_session")
            key = _parse_int(key, *where)
            if key < 1:
                raise ParseError(f"session must be >= 1, got {key}", *where)
        number = _parse_float(value, path, line_no, "value")
        cells = values.setdefault(movement, {}).setdefault(statistic, {})
        if key in cells:
            raise ParseError(
                f"repeated cell {movement} {statistic} {key}",
                path=path,
                line=line_no,
                field="cohort_or_session",
            )
        cells[key] = number
    if len(kinds) != 1:
        raise ParseError(
            "table mixes cohort and session rows (or is empty)", path=path
        )
    (kind,) = kinds
    columns = COHORTS
    if kind == "session":
        columns = tuple(
            sorted({k for stats in values.values() for c in stats.values() for k in c})
        )
    for movement, stats in values.items():
        for statistic in STATISTICS:
            for column in columns:
                if column not in stats.get(statistic, {}):
                    raise ParseError(
                        f"missing cell {movement} {statistic} {column}", path=path
                    )
    return ReferenceTable(kind, columns, values)


def table_from_records(sset, kind, measure, axis="x", rows=slice(None)) -> ReferenceTable:
    """Pool ``rows`` of a SmoothnessSet (default all) into one axis's table
    of ``measure`` ("jerk" or "squared_jerk").

    Columns come from each row's group (kind "cohort") or session (kind
    "session").  A cell is the mean of the per-segment means, summed left
    to right in row order, the max of the maxes or the min of the mins.
    Unlike a loaded table, a movement may lack a column that none of its
    rows has; a mean that overflows float64 is an error.
    """
    movements = sset.movements[rows]
    columns = (sset.groups if kind == "cohort" else sset.sessions)[rows]
    stats = sset.stats[rows, MEASURES.index(measure), :, _axis_index(axis)]
    values = {}
    for movement, column in dict.fromkeys(zip(movements.tolist(), columns.tolist())):
        means, maxima, minima = stats[(movements == movement) & (columns == column)].T
        # ufunc accumulate adds in order; a 1-D np.mean sums pairwise
        with np.errstate(over="ignore"):
            mean = float(np.add.accumulate(means)[-1] / len(means))
        if not np.isfinite(mean):
            where = column if kind == "cohort" else f"session {column}"
            raise InvalidDataError(
                f"pooled {measure} mean of {movement} {where} overflows float64"
            )
        cells = values.setdefault(movement, {s: {} for s in STATISTICS})
        cells["mean"][column] = mean
        # builtin max and min keep the first of equal values (-0.0 or 0.0)
        cells["max"][column] = max(maxima.tolist())
        cells["min"][column] = min(minima.tolist())
    if kind == "session":
        return ReferenceTable(kind, tuple(sorted(set(columns.tolist()))), values)
    return ReferenceTable(kind, COHORTS, values)


# ---------------------------------------------------------------------------
# Cohort comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonCell:
    healthy: float
    patient: float
    ratio: float  # |patient| / |healthy|
    direction: str


@dataclass(frozen=True)
class CohortComparison:
    """Healthy-vs-patient contrast per movement and statistic, one axis."""

    axis: str
    cells: dict  # (movement, statistic) -> ComparisonCell

    def cell(self, movement, statistic) -> ComparisonCell:
        return self.cells[(movement, statistic)]

    def report_parts(self):
        header = ["movement", "statistic", "healthy", "patient", "ratio", "direction"]
        rows = [
            [m, s, cell.healthy, cell.patient, cell.ratio, cell.direction]
            for (m, s), cell in sorted(self.cells.items())
        ]
        cells = [dict(zip(header, row)) for row in rows]
        for cell in cells:
            # JSON has no infinity: a ratio over a zero healthy cell is null
            if np.isinf(cell["ratio"]):
                cell["ratio"] = None
        return header, rows, {"axis": self.axis, "cells": cells}


def _compare_cell(healthy, patient):
    if abs(healthy) > 0:
        ratio = abs(patient) / abs(healthy)
    else:
        ratio = 1.0 if patient == 0 else float("inf")
    if healthy > patient:
        direction = HEALTHY_HIGHER
    elif patient > healthy:
        direction = PATIENT_HIGHER
    else:
        direction = EQUAL
    return ComparisonCell(
        healthy=float(healthy), patient=float(patient), ratio=ratio, direction=direction
    )


def compare_cohort_table(table: ReferenceTable, axis="x") -> CohortComparison:
    """Healthy-vs-patient contrast of every key movement in a cohort reference
    table, loaded or built from records; each cohort needs each movement."""
    cells = {}
    for movement in KEY_MOVEMENTS:
        means = table.values.get(movement, {}).get("mean", {})
        if not set(COHORTS) <= means.keys():
            raise ContractError(f"movement {movement} missing from a cohort")
        for statistic in STATISTICS:
            cells[(movement, statistic)] = _compare_cell(
                *(table.cell(movement, statistic, cohort) for cohort in COHORTS)
            )
    return CohortComparison(axis=axis, cells=cells)


# ---------------------------------------------------------------------------
# Session evolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MovementEvolution:
    baseline: float  # session-1 mean squared jerk on the chosen axis
    session_means: dict  # session -> mean
    improved_sessions: frozenset  # sessions strictly below baseline


@dataclass(frozen=True)
class ImprovementFlags:
    """Per-movement sessions that strictly undercut the session-1 mean."""

    axis: str
    movements: dict  # movement -> MovementEvolution

    def improved(self, movement) -> frozenset:
        return self.movements[movement].improved_sessions

    def report_parts(self):
        rows, movements = [], {}
        for movement, ev in sorted(self.movements.items()):
            improved = sorted(ev.improved_sessions)
            rows.append([movement, ev.baseline, ";".join(map(str, improved))])
            movements[movement] = {
                "baseline": ev.baseline,
                "session_means": {str(s): v for s, v in ev.session_means.items()},
                "improved_sessions": improved,
            }
        header = ["movement", "baseline", "improved_sessions"]
        return header, rows, {"axis": self.axis, "movements": movements}


def evolution_from_table(table: ReferenceTable, axis="x") -> ImprovementFlags:
    """Flags from a session reference table's mean rows, loaded or built.

    Session 1 is the baseline and must be present for every movement;
    a later session is improved iff its mean is strictly lower.
    """
    movements = {}
    for movement, stats in table.values.items():
        means = stats["mean"]
        if 1 not in means:
            raise ContractError(f"movement {movement}: session 1 baseline is missing")
        baseline = means[1]
        improved = frozenset(
            s for s, value in means.items() if s > 1 and value < baseline
        )
        movements[movement] = MovementEvolution(
            baseline=float(baseline),
            session_means={s: float(v) for s, v in sorted(means.items())},
            improved_sessions=improved,
        )
    return ImprovementFlags(axis=axis, movements=movements)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def render_report(obj, fmt="csv") -> str:
    """Render a comparison, flags object or reference table.

    Each of them supplies a CSV header, CSV rows and a JSON payload from
    the same cells.  CSV floats have period decimals and six significant
    digits.
    CSV column order follows the published layout: statistics grouped
    mean/max/min, each split healthy/patient or by session.
    """
    if fmt not in ("csv", "json"):
        raise ContractError(f"unknown report format {fmt!r}")
    if not isinstance(obj, (ReferenceTable, CohortComparison, ImprovementFlags)):
        raise ContractError(f"cannot render object of type {type(obj).__name__}")
    header, rows, payload = obj.report_parts()
    if fmt == "json":
        return json.dumps(payload, indent=2, allow_nan=False)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.6g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()
