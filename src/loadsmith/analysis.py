"""Equilibrium verification and envelope downselection.

Envelope rule: per (point, component) the case holding the maximum is
always kept; the case holding the minimum is kept only when the minimum is
strictly negative. Ties resolve to the earliest case in delivery order so
that repeated runs select identical ids.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import reduce
from itertools import chain
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


class Tolerance(CheckedRecord, namedtuple("Tolerance", "abs rel")):
    """Absolute/relative tolerance pair for residual checks. Each is a finite
    number >= 0, else BAD_TOLERANCE: a NaN or infinite tolerance would switch
    its check off."""

    __slots__ = ()

    def __new__(cls, abs=1e-9, rel=1e-3):
        for name, value in (("abs", abs), ("rel", rel)):
            if not (math.isfinite(value) and value >= 0.0):
                raise LoadsmithError(
                    f"{name} tolerance must be finite and >= 0, got {value!r}", code="BAD_TOLERANCE"
                )
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

    def error(self) -> LoadsmithError | None:
        """UNBALANCED_CASE naming every unbalanced case, located at the first
        one's ``load_cases[<index>]``; None when every case is balanced."""
        unbalanced = [(i, r.case_id) for i, r in enumerate(self.results) if not r.balanced]
        if not unbalanced:
            return None
        return LoadsmithError(
            "unbalanced case ids: " + ", ".join(str(case_id) for _, case_id in unbalanced),
            code="UNBALANCED_CASE",
            location=f"load_cases[{unbalanced[0][0]}]",
        )


def _case_equilibrium(case: LoadCase, coords: Coordinates | None, tol: Tolerance) -> EquilibriumResult:
    """Force (and, with ``coords``, moment) residuals of one case; see check_equilibrium_all.

    Each residual component is its column summed point by point from 0.0 in
    sorted point order, not by sum(), whose float result since Python 3.12 is
    compensated: the printed magnitude must not depend on the interpreter.
    """
    points = sorted(case.loads)
    fx, fy, fz, mx, my, mz = zip(*map(case.loads.__getitem__, points))
    add = operator.add
    x, y, z = force_residual = (reduce(add, fx, 0.0), reduce(add, fy, 0.0), reduce(add, fz, 0.0))
    force_magnitude = math.sqrt(x * x + y * y + z * z)
    force_ref = max(map(abs, chain(fx, fy, fz)))
    balanced = force_magnitude <= tol.threshold(force_ref)

    moment_residual = None
    moment_magnitude = None
    if coords is not None:
        # Each point's term M + r x F, added in sorted point order. One loop over
        # the points: at a few points per case it beats a map per operation.
        x = y = z = 0.0
        terms = zip(map(coords.__getitem__, points), fx, fy, fz, mx, my, mz)
        for (rx, ry, rz), f1, f2, f3, m1, m2, m3 in terms:
            x += m1 + (ry * f3 - rz * f2)
            y += m2 + (rz * f1 - rx * f3)
            z += m3 + (rx * f2 - ry * f1)
        moment_residual = (x, y, z)
        moment_magnitude = math.sqrt(x * x + y * y + z * z)
        moment_ref = max(map(abs, chain(mx, my, mz)))
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


class EnvelopeSelection(NamedTuple):
    selected_case_ids: tuple[int, ...]
    extremes: EnvelopeExtremes


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
    strictly negative; ids are reported in ascending order. The extremes
    name the cell each selected case holds.
    """
    extremes = envelope_extremes(delivery)
    selected: set[int] = set()
    for point in extremes.points():
        for comp in COMPONENT_ORDER:
            cell = extremes.cell(point, comp)
            selected.add(cell.max_case)
            if cell.min_value < 0.0:
                selected.add(cell.min_case)
    return EnvelopeSelection(tuple(sorted(selected)), extremes)
