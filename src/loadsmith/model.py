"""Core domain model: load components, cases, deliveries and envelope extremes.

Every record here is an immutable tuple of its fields. A point's loads are one
``ComponentSet``: a tuple of six finite floats in ``COMPONENT_ORDER``, built
and checked once per row by ``ComponentSet.of``, or built unchecked with
``tuple.__new__`` by a reader that checked the row itself or by a transform
that checked all its values at once. Constructors reject locally invalid
data (non-finite numbers, bad ids, unrecognized units); consistency rules
that span several cases of one delivery (unique ids, identical point sets)
are checked by :func:`loadsmith.ingest.validate_delivery` so that a broken
delivery can still be loaded and reported on.

Deterministic ordering rules live here and are shared by every exporter:
points sort lexicographically, components follow the canonical FX, FY, FZ,
MX, MY, MZ order, and cases keep their delivery order.
"""

from __future__ import annotations

import enum
import math
import operator
from collections import namedtuple

from .errors import UnknownUnitError

# The recognized units and their factors to SI base units, built from the
# exact definitions 1 lbf = 0.45359237 kg x 9.80665 m/s^2 and 1 in = 0.0254 m.
# Compile-time constants, never read from configuration.
LBF_TO_N = 0.45359237 * 9.80665  # 4.4482216152605 exactly
IN_TO_M = 0.0254

FORCE_TO_N = {
    "N": 1.0,
    "kN": 1000.0,
    "lbf": LBF_TO_N,
    "klbf": LBF_TO_N * 1000.0,
}

MOMENT_TO_NM = {
    "N·m": 1.0,
    "kN·m": 1000.0,
    "lbf·in": LBF_TO_N * IN_TO_M,
    "klbf·in": LBF_TO_N * 1000.0 * IN_TO_M,
}

# Closed alias table. "klbs"/"klbs.in" are spellings seen in OEM deliveries;
# the ASCII-dot and bare forms exist so the tokens can be typed on any shell.
# Unknown strings are errors, never guesses.
UNIT_ALIASES = {
    "klbs": "klbf",
    "klbs.in": "klbf·in",
    "N.m": "N·m",
    "Nm": "N·m",
    "kN.m": "kN·m",
    "kNm": "kN·m",
    "lbf.in": "lbf·in",
    "klbf.in": "klbf·in",
}


def canonical_unit(token: str, kind: str) -> str:
    """Normalize a unit token, resolving aliases.

    Args:
        token: Unit string as found in an input file.
        kind: "force" or "moment".

    Raises:
        UnknownUnitError: If the token is not a recognized unit or alias.
    """
    resolved = UNIT_ALIASES.get(token, token)
    allowed = FORCE_TO_N if kind == "force" else MOMENT_TO_NM
    if resolved not in allowed:
        raise UnknownUnitError(
            f"unknown {kind} unit {token!r}; recognized: {', '.join(allowed)}",
            location=f"units.{kind}",
        )
    return resolved


class Component(enum.Enum):
    """One of the six load components at an interface point.

    The declaration order FX, FY, FZ, MX, MY, MZ (``COMPONENT_ORDER``) is
    the canonical output ordering used by every exporter.
    """

    FX = "fx"
    FY = "fy"
    FZ = "fz"
    MX = "mx"
    MY = "my"
    MZ = "mz"

    @property
    def is_force(self) -> bool:
        return self in (Component.FX, Component.FY, Component.FZ)


COMPONENT_ORDER = (
    Component.FX,
    Component.FY,
    Component.FZ,
    Component.MX,
    Component.MY,
    Component.MZ,
)


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def require_positive_int(name: str, value) -> None:
    """The one rule for case ids and the delivery version: ``value`` is an
    int, not a bool, of at least 1; else ValueError names it ``name``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


class ComponentSet(tuple):
    """The six load components at one point: a tuple of six finite floats,
    three forces then three moments, in ``COMPONENT_ORDER``.

    ``ComponentSet(fx=..., ...)`` and ``ComponentSet(fx, fy, fz, mx, my, mz)``
    default missing components to 0.0; both go through ``of``.
    """

    __slots__ = ()

    def __new__(cls, fx=0.0, fy=0.0, fz=0.0, mx=0.0, my=0.0, mz=0.0):
        return cls.of((fx, fy, fz, mx, my, mz))

    @classmethod
    def of(cls, values) -> "ComponentSet":
        """The row of six ``values`` as floats; a non-finite one is refused by field name."""
        row = tuple.__new__(cls, map(float, values))
        if len(row) != 6:
            raise ValueError(f"a component set has 6 values, got {len(row)}")
        # A NaN or an infinity anywhere makes the sum non-finite; a sum that
        # overflows from finite values is told apart by the per-field check.
        if not math.isfinite(sum(row)):
            for comp, value in zip(COMPONENT_ORDER, row):
                _require_finite(comp.value, value)
        return row

    def __reduce__(self):
        return (type(self), tuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{c.value}={v!r}" for c, v in zip(COMPONENT_ORDER, self))
        return f"ComponentSet({fields})"

    fx = property(operator.itemgetter(0))
    fy = property(operator.itemgetter(1))
    fz = property(operator.itemgetter(2))
    mx = property(operator.itemgetter(3))
    my = property(operator.itemgetter(4))
    mz = property(operator.itemgetter(5))

    def value(self, component: Component) -> float:
        return self[COMPONENT_ORDER.index(component)]


class CheckedRecord:
    """Base of the records whose constructor checks its fields (those of this
    module, ``analysis.Tolerance`` and ``evalkit.scenario.Scenario``): ``_make``
    and ``_replace`` build through the constructor, where namedtuple's skip it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})


class UnitSystem(CheckedRecord, namedtuple("UnitSystem", "force_unit moment_unit")):
    """Force/moment unit pair of a delivery."""

    __slots__ = ()

    def __new__(cls, force_unit="N", moment_unit="N·m"):
        force, moment = canonical_unit(force_unit, "force"), canonical_unit(moment_unit, "moment")
        return super().__new__(cls, force, moment)

    @property
    def is_si(self) -> bool:
        return self.force_unit == "N" and self.moment_unit == "N·m"


SI_UNITS = UnitSystem("N", "N·m")


class LoadCase(CheckedRecord, namedtuple("LoadCase", "id loads label")):
    """One load condition: a component set per interface point.

    Ids must be positive; uniqueness across a delivery is a delivery-level
    rule checked by validate_delivery.
    """

    __slots__ = ()

    def __new__(cls, id, loads, label=None):
        require_positive_int("case id", id)
        if not loads:
            raise ValueError(f"case {id} has no point loads")
        return super().__new__(cls, id, dict(loads), label)

    def point_names(self) -> list[str]:
        return sorted(self.loads)


class LoadsDelivery(
    CheckedRecord,
    namedtuple("LoadsDelivery", "name version units cases coordinate_system point_coordinates")
):
    """An OEM load delivery: ordered cases over a fixed set of points.

    ``point_coordinates``, when present, are (x, y, z) in meters and must
    cover exactly the case point set (checked by validate_delivery).
    """

    __slots__ = ()

    def __new__(cls, name, version, units, cases, coordinate_system=None, point_coordinates=None):
        require_positive_int("delivery version", version)
        cases = tuple(cases)
        if not cases:
            raise ValueError("delivery must contain at least one load case")
        if point_coordinates is not None:
            point_coordinates = {
                point: tuple(_require_finite(f"{point}[{i}]", v) for i, v in enumerate(xyz))
                for point, xyz in point_coordinates.items()
            }
            for point, xyz in point_coordinates.items():
                if len(xyz) != 3:
                    raise ValueError(f"coordinates for {point!r} must have 3 entries")
        fields = (name, version, units, cases, coordinate_system, point_coordinates)
        return super().__new__(cls, *fields)


def point_names(delivery: LoadsDelivery) -> list[str]:
    """Lexicographically sorted union of point names over all cases."""
    names: set[str] = set()
    for case in delivery.cases:
        names.update(case.loads)
    return sorted(names)


class ExtremeCell(CheckedRecord, namedtuple("ExtremeCell", "max_value max_case min_value min_case")):
    """Max/min values of one (point, component) pair with originating cases;
    the values are kept as the finite floats they convert to."""

    __slots__ = ()

    def __new__(cls, max_value, max_case, min_value, min_case):
        max_value = _require_finite("max_value", max_value)
        min_value = _require_finite("min_value", min_value)
        require_positive_int("max_case", max_case)
        require_positive_int("min_case", min_case)
        if min_value > max_value:
            raise ValueError(f"min_value {min_value} exceeds max_value {max_value}")
        return super().__new__(cls, max_value, max_case, min_value, min_case)


class EnvelopeExtremes(CheckedRecord, namedtuple("EnvelopeExtremes", "name version units cells")):
    """Per-(point, component) extremes table with delivery provenance."""

    __slots__ = ()

    def __new__(cls, name, version, units, cells):
        cells = {p: dict(per_comp) for p, per_comp in cells.items()}
        return super().__new__(cls, name, version, units, cells)

    def points(self) -> list[str]:
        return sorted(self.cells)

    def cell(self, point: str, component: Component) -> ExtremeCell:
        return self.cells[point][component]
