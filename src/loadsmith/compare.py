"""Exceedance comparison of a new envelope against a previously substantiated one.

"Exceeds" means widening only: a new maximum above the old maximum or a new
minimum below the old minimum. Shrinkage shows up in the deltas but never
raises a flag, because only growth beyond the substantiated envelope forces
re-analysis. Deltas are reported as percentage change of bound magnitude,
which keeps the sign convention unambiguous for negative bounds.
"""

from __future__ import annotations

import json
import math
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
    delta = 100.0 * (abs(new) - abs(old)) / abs(old)
    if math.isinf(delta):  # 100 times the change overflowed; divide first
        return (abs(new) - abs(old)) / abs(old) * 100.0
    return delta


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


# A point's cells, as json.dumps(indent=2) lays them out: per component, a
# float slot for each bound and a JSON text slot for each delta and flag.
_REPORT_POINT_JSON = ",\n".join(
    f'      "{comp.name}": {{\n'
    '        "old_max": %r,\n        "new_max": %r,\n'
    '        "max_delta_pct": %s,\n        "max_exceeds": %s,\n'
    '        "old_min": %r,\n        "new_min": %r,\n'
    '        "min_delta_pct": %s,\n        "min_exceeds": %s\n      }'
    for comp in COMPONENT_ORDER
)
_NON_FINITE_JSON = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_delta(delta: float | None) -> str:
    """A delta as json.dumps writes it: ``null``, or a float, ``Infinity``
    for one that overflowed."""
    if delta is None:
        return "null"
    number = float.__repr__(delta)
    return _NON_FINITE_JSON.get(number, number)


def write_comparison_report(report: ComparisonReport) -> str:
    """Canonical comparison JSON mirroring the report structure.

    The text is exactly ``json.dumps`` of that structure with ``indent=2`` and
    ``ensure_ascii=False``, plus a newline, rendered directly as
    ``export.write_envelope_json`` renders extremes: bounds written by ``%r``
    (``float.__repr__``), deltas by ``_json_delta`` and flags as ``true`` or
    ``false``.
    """
    text = json.encoder.encode_basestring
    points = []
    for point in sorted(report.cells):
        values = []
        for cell in map(report.cells[point].__getitem__, COMPONENT_ORDER):
            old_max, new_max, max_delta, max_exceeds, old_min, new_min, min_delta, min_exceeds = cell
            values += (
                old_max, new_max, _json_delta(max_delta), "true" if max_exceeds else "false",
                old_min, new_min, _json_delta(min_delta), "true" if min_exceeds else "false",
            )
        points.append(f"    {text(point)}: {{\n{_REPORT_POINT_JSON % tuple(values)}\n    }}")
    rows = "{\n" + ",\n".join(points) + "\n  }" if points else "{}"
    units = report.units
    return (
        f'{{\n  "new": {{\n    "name": {text(report.new_name)},\n'
        f'    "version": {int.__repr__(report.new_version)}\n  }},\n'
        f'  "old": {{\n    "name": {text(report.old_name)},\n'
        f'    "version": {int.__repr__(report.old_version)}\n  }},\n'
        f'  "units": {{\n    "force": {text(units.force_unit)},\n'
        f'    "moment": {text(units.moment_unit)}\n  }},\n'
        f'  "new_exceeds_old": {"true" if report.new_exceeds_old else "false"},\n'
        f'  "cells": {rows}\n}}\n'
    )


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
