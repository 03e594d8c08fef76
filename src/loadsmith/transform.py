"""Pure delivery transformations: renaming, scaling, unit conversion.

All functions return new deliveries; inputs are never modified. The CLI
applies them in the documented order rename -> scale -> units, but each
operation is independent and, being linear, order-agnostic in the math.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, cycle, repeat
from typing import NamedTuple

from .errors import LoadsmithError
from .model import (
    COMPONENT_ORDER,
    FORCE_TO_N,
    MOMENT_TO_NM,
    Component,
    ComponentSet,
    LoadCase,
    LoadsDelivery,
    UnitSystem,
    point_names,
)


def _check_factor(factor: float) -> float:
    factor = float(factor)
    if not math.isfinite(factor) or factor <= 0.0:
        raise LoadsmithError(
            f"scale factor must be finite and positive, got {factor!r}",
            code="BAD_FACTOR",
        )
    return factor


def rename_points(
    delivery: LoadsDelivery, mapping: dict[str, str]
) -> tuple[LoadsDelivery, int]:
    """Rename interface points in every case (and in point coordinates).

    The mapping must be injective and every key must exist in the delivery;
    new names may not collide with names that stay. Values are untouched.

    Returns:
        (renamed delivery, rename count) where the count is
        len(mapping) x number of cases.
    """
    if not mapping:
        return delivery, 0

    existing = set(point_names(delivery))
    for old in mapping:
        if old not in existing:
            raise LoadsmithError(
                f"cannot rename unknown point {old!r}", code="UNKNOWN_POINT", location=old
            )
    targets = list(mapping.values())
    if len(set(targets)) != len(targets):
        raise LoadsmithError(
            "rename map is not injective: two points map to the same name",
            code="RENAME_COLLISION",
        )
    untouched = existing - set(mapping)
    collisions = untouched & set(targets)
    if collisions:
        raise LoadsmithError(
            f"rename targets collide with existing points: {sorted(collisions)}",
            code="RENAME_COLLISION",
        )

    def rename(name: str) -> str:
        return mapping.get(name, name)

    new_cases = tuple(
        LoadCase(
            id=case.id,
            label=case.label,
            loads={rename(point): loads for point, loads in case.loads.items()},
        )
        for case in delivery.cases
    )
    new_coords = None
    if delivery.point_coordinates is not None:
        new_coords = {rename(p): xyz for p, xyz in delivery.point_coordinates.items()}

    renamed = delivery._replace(cases=new_cases, point_coordinates=new_coords)
    return renamed, len(mapping) * len(delivery.cases)


def _scale_cases(delivery: LoadsDelivery, factors: tuple[float, ...]) -> LoadsDelivery:
    """Multiply every row by ``factors`` (one per component, canonical order).

    The delivery's values are multiplied as one flat sequence, rows in case
    and point order, and regrouped into rows of six. A product that overflows
    to infinity is refused with the location of the value it came from.
    """
    cases = delivery.cases
    values = chain.from_iterable(chain.from_iterable(case.loads.values() for case in cases))
    products = list(map(operator.mul, values, cycle(factors)))
    # An infinite product makes the total infinite; so can a sum of finite
    # products, for which _locate_overflow finds nothing to refuse.
    if not math.isfinite(sum(products)):
        _locate_overflow(delivery, factors)
    # Floats times floats, finite as checked: each row is built unchecked.
    rows = map(tuple.__new__, repeat(ComponentSet), zip(*[iter(products)] * len(factors)))
    new_cases = tuple(
        LoadCase(id=case.id, label=case.label, loads=dict(zip(case.loads, rows)))
        for case in cases
    )
    return delivery._replace(cases=new_cases)


def _locate_overflow(delivery: LoadsDelivery, factors: tuple[float, ...]) -> None:
    """Raise for the first value whose product with its factor is not finite;
    return when every product is finite."""
    for index, case in enumerate(delivery.cases):
        for point, row in case.loads.items():
            for comp, value, factor in zip(COMPONENT_ORDER, row, factors):
                product = value * factor
                if not math.isfinite(product):
                    raise LoadsmithError(
                        f"{comp.value} must be finite, got {product!r}",
                        code="SCALE_OVERFLOW",
                        location=f"load_cases[{index}].point_loads.{point}.{comp.value}",
                    )


def scale_component(
    delivery: LoadsDelivery, component: Component, factor: float
) -> LoadsDelivery:
    """Multiply one component by ``factor`` at every point in every case."""
    factor = _check_factor(factor)
    return _scale_cases(
        delivery, tuple(factor if c is component else 1.0 for c in COMPONENT_ORDER)
    )


def convert_units(delivery: LoadsDelivery, target: UnitSystem) -> LoadsDelivery:
    """Convert every value to ``target`` units with a single multiplication.

    The per-kind ratio source/target is computed once from the exact
    constants table, so repeated conversions never accumulate chained
    rounding beyond one multiply per value.
    """
    force_ratio = FORCE_TO_N[delivery.units.force_unit] / FORCE_TO_N[target.force_unit]
    moment_ratio = MOMENT_TO_NM[delivery.units.moment_unit] / MOMENT_TO_NM[target.moment_unit]

    factors = tuple(force_ratio if c.is_force else moment_ratio for c in COMPONENT_ORDER)
    converted = _scale_cases(delivery, factors)
    return converted._replace(units=target)


class CoordinateSystemCheck(NamedTuple):
    """Outcome of comparing a delivery's coordinate-system label to the expected one."""

    status: str  # "match" | "mismatch" | "unlabeled"
    found: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "match"


def verify_coordinate_system(delivery: LoadsDelivery, expected: str) -> CoordinateSystemCheck:
    """Case-insensitive, trimmed comparison of the coordinate-system label.

    No transformation is performed; a mismatch is a finding for the
    engineer, not something to fix silently.
    """
    if delivery.coordinate_system is None:
        return CoordinateSystemCheck("unlabeled")
    found = delivery.coordinate_system
    if found.strip().lower() == expected.strip().lower():
        return CoordinateSystemCheck("match", found)
    return CoordinateSystemCheck("mismatch", found)
