"""Equilibrium verification and envelope downselection.

Envelope rule: per (point, component) the case holding the maximum is
always kept; the case holding the minimum is kept only when the minimum is
strictly negative. Ties resolve to the earliest case in delivery order so
that repeated runs select identical ids.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from .errors import LoadsmithError
from .model import (
    COMPONENT_ORDER,
    CheckedRecord,
    Component,
    EnvelopeExtremes,
    ExtremeCell,
    LoadCase,
    LoadsDelivery,
    point_names,
)

Coordinates = dict[str, tuple[float, float, float]]


def check_tolerance(name: str, value: float) -> float:
    """``value`` if it is a finite number >= 0; otherwise BAD_TOLERANCE, since
    a NaN or infinite tolerance would switch its check off."""
    if not (math.isfinite(value) and value >= 0.0):
        raise LoadsmithError(
            f"{name} must be finite and >= 0, got {value!r}", code="BAD_TOLERANCE"
        )
    return value


class Tolerance(CheckedRecord, namedtuple("Tolerance", "abs rel")):
    """Absolute/relative tolerance pair for residual checks."""

    __slots__ = ()

    def __new__(cls, abs=1e-9, rel=1e-3):
        check_tolerance("abs tolerance", abs)
        check_tolerance("rel tolerance", rel)
        return super().__new__(cls, abs, rel)

    def threshold(self, reference: float) -> float:
        return max(self.abs, self.rel * reference)


class EquilibriumResult(NamedTuple):
    case_id: int
    force_residual: tuple[float, float, float]
    force_residual_magnitude: float
    balanced: bool
    tolerance_used: Tolerance
    moment_residual: tuple[float, float, float] | None = None
    moment_residual_magnitude: float | None = None

    def to_dict(self) -> dict:
        out = {
            "case_id": self.case_id,
            "force_residual": list(self.force_residual),
            "force_residual_magnitude": self.force_residual_magnitude,
            "balanced": self.balanced,
            "tolerance": {"abs": self.tolerance_used.abs, "rel": self.tolerance_used.rel},
        }
        if self.moment_residual is not None:
            out["moment_residual"] = list(self.moment_residual)
            out["moment_residual_magnitude"] = self.moment_residual_magnitude
        return out


class EquilibriumSurvey(NamedTuple):
    results: tuple[EquilibriumResult, ...]

    @property
    def all_balanced(self) -> bool:
        return all(r.balanced for r in self.results)

    def to_dict(self) -> dict:
        return {
            "all_balanced": self.all_balanced,
            "cases": [r.to_dict() for r in self.results],
        }


def _cross(r: tuple[float, float, float], f: tuple[float, float, float]) -> tuple[float, float, float]:
    return (
        r[1] * f[2] - r[2] * f[1],
        r[2] * f[0] - r[0] * f[2],
        r[0] * f[1] - r[1] * f[0],
    )


def _case_equilibrium(case: LoadCase, coords: Coordinates | None, tol: Tolerance) -> EquilibriumResult:
    """Force (and, with ``coords``, moment) residuals of one case; see check_equilibrium_all."""
    points = sorted(case.loads)
    rows = [case.loads[point] for point in points]
    force_sum = [0.0, 0.0, 0.0]
    for row in rows:
        force_sum[0] += row[0]
        force_sum[1] += row[1]
        force_sum[2] += row[2]
    # Summed left to right, not by sum(), whose float result since Python 3.12
    # is compensated: the printed magnitude must not depend on the interpreter.
    x, y, z = force_residual = tuple(force_sum)
    force_magnitude = math.sqrt(x * x + y * y + z * z)

    force_ref = max((abs(v) for row in rows for v in row[:3]), default=0.0)
    balanced = force_magnitude <= tol.threshold(force_ref)

    moment_residual = None
    moment_magnitude = None
    if coords is not None:
        moment_sum = [0.0, 0.0, 0.0]
        for point, (fx, fy, fz, mx, my, mz) in zip(points, rows):
            rx_f = _cross(coords[point], (fx, fy, fz))
            moment_sum[0] += mx + rx_f[0]
            moment_sum[1] += my + rx_f[1]
            moment_sum[2] += mz + rx_f[2]
        x, y, z = moment_residual = tuple(moment_sum)
        moment_magnitude = math.sqrt(x * x + y * y + z * z)
        moment_ref = max((abs(v) for row in rows for v in row[3:]), default=0.0)
        balanced = balanced and moment_magnitude <= tol.threshold(moment_ref)

    return EquilibriumResult(
        case_id=case.id,
        force_residual=force_residual,
        force_residual_magnitude=force_magnitude,
        moment_residual=moment_residual,
        moment_residual_magnitude=moment_magnitude,
        balanced=balanced,
        tolerance_used=tol,
    )


def check_equilibrium_all(
    delivery: LoadsDelivery,
    tol: Tolerance = Tolerance(),
    coords: Coordinates | None = None,
) -> EquilibriumSurvey:
    """Sum forces (and, with coordinates, moments about the origin) for every
    case in delivery order.

    The force residual is the componentwise sum over points. With
    coordinates (``coords``, else the delivery's own ``point_coordinates``)
    the moment residual is sum(M_i + r_i x F_i); that mixes meters with the
    load units, so it is refused unless the delivery is SI, and the
    coordinates must cover every point. Balanced means every computed
    residual magnitude is within max(abs_tol, rel_tol * L_ref) where L_ref is
    the largest single component magnitude of that kind in the case.
    """
    if coords is None:
        coords = delivery.point_coordinates
    if coords is not None:
        missing = sorted(set(point_names(delivery)) - set(coords))
        if missing:
            raise LoadsmithError(
                f"coordinates missing for points {missing}", code="COORDINATE_COVERAGE"
            )
        units = delivery.units
        if not units.is_si:
            raise LoadsmithError(
                "moment equilibrium with coordinates requires SI units "
                f"(got {units.force_unit}/{units.moment_unit}); convert first",
                code="NON_SI_EQUILIBRIUM",
            )
    return EquilibriumSurvey(tuple(_case_equilibrium(case, coords, tol) for case in delivery.cases))


class SelectionReason(NamedTuple):
    point: str
    component: Component
    kind: str  # "max" | "min"


class EnvelopeSelection(NamedTuple):
    selected_case_ids: tuple[int, ...]
    extremes: EnvelopeExtremes
    reasons: dict[int, tuple[SelectionReason, ...]]


def envelope_extremes(delivery: LoadsDelivery) -> EnvelopeExtremes:
    """Max/min value and originating case per (point, component).

    Strict comparisons keep the earliest case in delivery order on ties.
    """
    cells: dict[str, dict[Component, ExtremeCell]] = {}
    point_set: set[str] = set()
    for case in delivery.cases:
        point_set.update(case.loads)

    for point in sorted(point_set):
        holding = [case for case in delivery.cases if point in case.loads]
        case_ids = [case.id for case in holding]
        rows = [case.loads[point] for case in holding]
        per_comp: dict[Component, ExtremeCell] = {}
        for comp, values in zip(COMPONENT_ORDER, zip(*rows)):
            # max() and min() keep the first of equal values, and index() finds
            # the first equal one: the earliest case.
            high, low = max(values), min(values)
            per_comp[comp] = ExtremeCell(
                max_value=high,
                max_case=case_ids[values.index(high)],
                min_value=low,
                min_case=case_ids[values.index(low)],
            )
        cells[point] = per_comp

    return EnvelopeExtremes(
        name=delivery.name, version=delivery.version, units=delivery.units, cells=cells
    )


def envelope_select(delivery: LoadsDelivery) -> EnvelopeSelection:
    """Downselect to the critical cases per the envelope rule.

    Selected set = every max case id, plus min case ids whose minimum is
    strictly negative; ids are reported in ascending order with the
    (point, component, max|min) reasons that caused each selection.
    """
    extremes = envelope_extremes(delivery)
    reasons: dict[int, list[SelectionReason]] = {}
    for point in extremes.points():
        for comp in COMPONENT_ORDER:
            cell = extremes.cell(point, comp)
            reasons.setdefault(cell.max_case, []).append(SelectionReason(point, comp, "max"))
            if cell.min_value < 0.0:
                reasons.setdefault(cell.min_case, []).append(
                    SelectionReason(point, comp, "min")
                )
    selected = tuple(sorted(reasons))
    return EnvelopeSelection(
        selected_case_ids=selected,
        extremes=extremes,
        reasons={cid: tuple(rs) for cid, rs in reasons.items()},
    )
