"""Exceedance comparison of a new envelope against a previously substantiated one.

"Exceeds" means widening only: a new maximum above the old maximum or a new
minimum below the old minimum. Shrinkage shows up in the deltas but never
raises a flag, because only growth beyond the substantiated envelope forces
re-analysis. Deltas are reported as percentage change of bound magnitude,
which keeps the sign convention unambiguous for negative bounds.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .analysis import check_tolerance
from .errors import LoadsmithError
from .export import format_deck_value, one_line
from .model import COMPONENT_ORDER, Component, EnvelopeExtremes, UnitSystem


class ComparisonCell(NamedTuple):
    old_max: float
    new_max: float
    max_delta_pct: float | None
    max_exceeds: bool
    old_min: float
    new_min: float
    min_delta_pct: float | None
    min_exceeds: bool


class ComparisonReport(NamedTuple):
    new_name: str
    new_version: int
    old_name: str
    old_version: int
    units: UnitSystem
    new_exceeds_old: bool
    cells: dict[str, dict[Component, ComparisonCell]]


def _magnitude_delta_pct(old: float, new: float) -> float | None:
    """Percentage change of |bound|; None (undefined) when old is zero and new is not."""
    if old == 0.0:
        return None if new != 0.0 else 0.0
    return 100.0 * (abs(new) - abs(old)) / abs(old)


def compare_envelopes(
    new: EnvelopeExtremes, old: EnvelopeExtremes, widen_tol: float = 0.0
) -> ComparisonReport:
    """Compare two envelopes cell by cell.

    Both envelopes must cover identical (point, component) cells in the
    same units. A cell flags max_exceeds when new_max > old_max + widen_tol
    and min_exceeds when new_min < old_min - widen_tol; the report's
    new_exceeds_old is true when any cell flags. A widen_tol that is not
    finite or is negative raises BAD_TOLERANCE.
    """
    check_tolerance("widen_tol", widen_tol)
    if new.units != old.units:
        raise LoadsmithError(
            f"envelope units differ: {new.units.force_unit}/{new.units.moment_unit}"
            f" vs {old.units.force_unit}/{old.units.moment_unit}",
            code="UNIT_MISMATCH",
        )
    if new.points() != old.points():
        raise LoadsmithError(
            f"envelope point sets differ: {new.points()} vs {old.points()}",
            code="POINT_SET_MISMATCH",
        )

    cells: dict[str, dict[Component, ComparisonCell]] = {}
    any_exceeds = False
    for point in new.points():
        cells[point] = {}
        for comp in COMPONENT_ORDER:
            n, o = new.cell(point, comp), old.cell(point, comp)
            max_exceeds = n.max_value > o.max_value + widen_tol
            min_exceeds = n.min_value < o.min_value - widen_tol
            any_exceeds = any_exceeds or max_exceeds or min_exceeds
            cells[point][comp] = ComparisonCell(
                old_max=o.max_value,
                new_max=n.max_value,
                max_delta_pct=_magnitude_delta_pct(o.max_value, n.max_value),
                max_exceeds=max_exceeds,
                old_min=o.min_value,
                new_min=n.min_value,
                min_delta_pct=_magnitude_delta_pct(o.min_value, n.min_value),
                min_exceeds=min_exceeds,
            )

    return ComparisonReport(
        new_name=new.name,
        new_version=new.version,
        old_name=old.name,
        old_version=old.version,
        units=new.units,
        new_exceeds_old=any_exceeds,
        cells=cells,
    )


def suggested_report_filename(report: ComparisonReport) -> str:
    return f"v{report.old_version}_vs_v{report.new_version}.json"


def write_comparison_report(report: ComparisonReport) -> str:
    """Canonical comparison JSON mirroring the report structure."""
    data = {
        "new": {"name": report.new_name, "version": report.new_version},
        "old": {"name": report.old_name, "version": report.old_version},
        "units": {
            "force": report.units.force_unit,
            "moment": report.units.moment_unit,
        },
        "new_exceeds_old": report.new_exceeds_old,
        "cells": {
            point: {
                comp.name: {
                    "old_max": cell.old_max,
                    "new_max": cell.new_max,
                    "max_delta_pct": cell.max_delta_pct,
                    "max_exceeds": cell.max_exceeds,
                    "old_min": cell.old_min,
                    "new_min": cell.new_min,
                    "min_delta_pct": cell.min_delta_pct,
                    "min_exceeds": cell.min_exceeds,
                }
                for comp in COMPONENT_ORDER
                for cell in [report.cells[point][comp]]
            }
            for point in sorted(report.cells)
        },
    }
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


def _fmt_delta(delta: float | None) -> str:
    return "n/a" if delta is None else f"{delta:+.2f}%"


def comparison_to_markdown(report: ComparisonReport) -> str:
    """Human-readable summary table per point, flags spelled out.

    Raises:
        LoadsmithError: BAD_LABEL for an envelope name or point name that
            spans lines.
    """
    lines = [
        "# Envelope comparison",
        "",
        f"New: {one_line(report.new_name, 'new envelope name')} v{report.new_version}",
        f"Old: {one_line(report.old_name, 'old envelope name')} v{report.old_version}",
        f"Units: force {report.units.force_unit}, moment {report.units.moment_unit}",
        f"New exceeds old: {'yes' if report.new_exceeds_old else 'no'}",
    ]
    for point in sorted(report.cells):
        lines.append("")
        lines.append(f"## {one_line(point, 'point')}")
        lines.append("")
        lines.append(
            "| Component | Old max | New max | Max delta | Max exceeds"
            " | Old min | New min | Min delta | Min exceeds |"
        )
        lines.append("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
        for comp in COMPONENT_ORDER:
            cell = report.cells[point][comp]
            lines.append(
                f"| {comp.name} | {format_deck_value(cell.old_max)} | {format_deck_value(cell.new_max)}"
                f" | {_fmt_delta(cell.max_delta_pct)} | {'yes' if cell.max_exceeds else 'no'}"
                f" | {format_deck_value(cell.old_min)} | {format_deck_value(cell.new_min)}"
                f" | {_fmt_delta(cell.min_delta_pct)} | {'yes' if cell.min_exceeds else 'no'} |"
            )
    return "\n".join(lines) + "\n"
