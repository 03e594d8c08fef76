"""Delivery ingestion: parse, validate and canonically serialize.

The delivery file schema is this toolkit's contract (documented in
``schema/delivery.schema.json``):

.. code-block:: json

    {
      "name": "...", "version": 2,
      "units": {"force": "klbf", "moment": "klbf·in"},
      "coordinate_system": "engine_cs",
      "point_coordinates": {"bearing": [0.0, 0.0, 0.0]},
      "load_cases": [
        {"id": 1, "label": "cruise",
         "point_loads": {"bearing": {"fx": 1.0, "fy": 0.0, "fz": 0.0,
                                      "mx": 0.0, "my": 0.0, "mz": 0.0}}}
      ]
    }

JSON is the canonical form; YAML is accepted on input and read by
``yaml_reader``, imported on the first YAML read. Missing components are
schema errors, never implicit zeros, and unit tokens outside the closed
alias table are refused: silent coercion is exactly the failure class this
layer exists to surface.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from . import strict
from .errors import InputSyntaxError, LoadsmithError, SchemaError
from .model import (
    COMPONENT_ORDER,
    ComponentSet,
    LoadCase,
    LoadsDelivery,
    UnitSystem,
    point_names,
)
# The field checks run per case and point, so they are looked up as globals.
from .strict import expect_int, expect_keys, expect_mapping, expect_number, expect_text


class Finding(NamedTuple):
    severity: str  # "error" | "warning"
    code: str
    message: str
    location: str


class ValidationReport(NamedTuple):
    findings: tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    def to_dict(self) -> dict:
        return {"ok": self.ok, "findings": [f._asdict() for f in self.findings]}


def read_units(node, loc: str) -> UnitSystem:
    """A ``{"force": ..., "moment": ...}`` unit pair; unknown units are refused."""
    units_node = expect_mapping(node, loc)
    expect_keys(units_node, required=("force", "moment"), optional=(), location=loc)
    return UnitSystem(
        expect_text(units_node["force"], f"{loc}.force"),
        expect_text(units_node["moment"], f"{loc}.moment"),
    )


def read_coordinates(node, loc: str) -> dict[str, tuple[float, float, float]]:
    """A ``{point: [x, y, z]}`` mapping of numbers."""
    coords_node = expect_mapping(node, loc)
    point_coordinates = {}
    for name, xyz in coords_node.items():
        ploc = f"{loc}.{name}"
        if not isinstance(xyz, list) or len(xyz) != 3:
            raise SchemaError(f"expected [x, y, z] at {ploc}", location=ploc)
        point_coordinates[expect_text(name, ploc)] = tuple(
            expect_number(v, f"{ploc}[{i}]") for i, v in enumerate(xyz)
        )
    return point_coordinates


_COMPONENT_KEYS = tuple(c.value for c in COMPONENT_ORDER)
_component_values = operator.itemgetter(*_COMPONENT_KEYS)


def _row_at_once(point, comp_node) -> ComponentSet | None:
    """The row of a component map that passes every field check at once: a
    ``dict`` of exactly the six components whose values are all ``float``
    with a finite sum, under a ``str`` point name. None for any other map,
    which ``_row_by_field`` then reads or refuses."""
    if type(comp_node) is not dict or len(comp_node) != 6 or type(point) is not str:
        return None
    try:
        row = _component_values(comp_node)
    except KeyError:
        return None
    fx, fy, fz, mx, my, mz = row
    # An int (or bool) goes field by field, which converts or refuses it; a
    # NaN or an infinity makes the sum non-finite, as an overflowing sum does.
    if type(fx) is type(fy) is type(fz) is type(mx) is type(my) is type(mz) is float:
        if math.isfinite(fx + fy + fz + mx + my + mz):
            return ComponentSet._checked(row)
    return None


def _row_by_field(point, comp_node, ploc: str) -> ComponentSet:
    """The row of one point's component map at ``ploc``, each field checked
    on its own; the first bad field is refused at its location."""
    comp_map = expect_mapping(comp_node, ploc)
    expect_keys(comp_map, required=_COMPONENT_KEYS, optional=(), location=ploc)
    row = ComponentSet.of([expect_number(comp_map[key], f"{ploc}.{key}") for key in _COMPONENT_KEYS])
    expect_text(point, ploc)
    return row


def parse_delivery(raw: str | bytes) -> LoadsDelivery:
    """Parse raw JSON/YAML text into a LoadsDelivery.

    The carrier comes from the text after an optional byte order mark: JSON
    when its first non-blank character is ``{`` or ``[``, YAML otherwise;
    blank input is refused. The JSON reader refuses the mark, the YAML reader
    allows it. The parsed value is independent of the carrier; unit aliases
    are normalized. Errors name the offending field or file position. A
    point's component map that passes every check at once becomes its row in
    one step; any other is read field by field, so a refusal does not depend
    on which path saw it.

    Args:
        raw: Delivery file content (UTF-8 text or bytes).
    """
    text = strict.decode(raw, "delivery")
    start = text.removeprefix("\ufeff").lstrip()[:1]
    if not start:
        raise InputSyntaxError("empty delivery input", location="offset 0")
    if start in "{[":
        data = strict.read_json(text, "delivery")
    else:
        from .yaml_reader import load_yaml

        data = load_yaml(text)

    root = expect_mapping(data, "$")
    expect_keys(
        root,
        required=("name", "version", "units", "load_cases"),
        optional=("coordinate_system", "point_coordinates"),
        location="$",
    )

    units = read_units(root["units"], "units")

    coordinate_system = None
    if "coordinate_system" in root:
        coordinate_system = expect_text(root["coordinate_system"], "coordinate_system")

    point_coordinates = None
    if "point_coordinates" in root:
        point_coordinates = read_coordinates(root["point_coordinates"], "point_coordinates")

    cases_node = root["load_cases"]
    if not isinstance(cases_node, list) or not cases_node:
        raise SchemaError("load_cases must be a non-empty list", location="load_cases")

    cases = []
    for idx, case_node in enumerate(cases_node):
        loc = f"load_cases[{idx}]"
        case_map = expect_mapping(case_node, loc)
        expect_keys(case_map, required=("id", "point_loads"), optional=("label",), location=loc)
        case_id = expect_int(case_map["id"], f"{loc}.id")
        label = expect_text(case_map["label"], f"{loc}.label") if "label" in case_map else None
        points_node = expect_mapping(case_map["point_loads"], f"{loc}.point_loads")
        if not points_node:
            raise SchemaError(f"empty point_loads at {loc}", location=f"{loc}.point_loads")
        loads = {}
        for point, comp_node in points_node.items():
            row = _row_at_once(point, comp_node)
            if row is None:
                row = _row_by_field(point, comp_node, f"{loc}.point_loads.{point}")
            loads[point] = row
        try:
            cases.append(LoadCase(id=case_id, label=label, loads=loads))
        except ValueError as exc:
            raise SchemaError(str(exc), location=loc) from exc

    try:
        return LoadsDelivery(
            name=expect_text(root["name"], "name"),
            version=expect_int(root["version"], "version"),
            units=units,
            coordinate_system=coordinate_system,
            point_coordinates=point_coordinates,
            cases=tuple(cases),
        )
    except ValueError as exc:
        raise SchemaError(str(exc), location="$") from exc


def validate_delivery(delivery: LoadsDelivery) -> ValidationReport:
    """Run delivery-level consistency checks and collect findings.

    Errors: duplicate case ids, point sets differing between cases,
    coordinates not covering the point set. Warnings: non-SI units (a
    finding to surface, not a failure).
    """
    findings: list[Finding] = []

    seen: dict[int, int] = {}
    for idx, case in enumerate(delivery.cases):
        if case.id in seen:
            findings.append(
                Finding(
                    "error",
                    "DUPLICATE_CASE_ID",
                    f"case id {case.id} appears at load_cases[{seen[case.id]}] and load_cases[{idx}]",
                    f"load_cases[{idx}].id",
                )
            )
        else:
            seen[case.id] = idx

    reference = delivery.cases[0].point_names()
    for idx, case in enumerate(delivery.cases[1:], start=1):
        if case.point_names() != reference:
            missing = sorted(set(reference) - set(case.loads))
            extra = sorted(set(case.loads) - set(reference))
            detail = []
            if missing:
                detail.append(f"missing {missing}")
            if extra:
                detail.append(f"extra {extra}")
            findings.append(
                Finding(
                    "error",
                    "POINT_SET_MISMATCH",
                    f"case {case.id} point set differs from case {delivery.cases[0].id}: "
                    + "; ".join(detail),
                    f"load_cases[{idx}].point_loads",
                )
            )

    if delivery.point_coordinates is not None:
        coord_points = sorted(delivery.point_coordinates)
        case_points = point_names(delivery)
        if coord_points != case_points:
            findings.append(
                Finding(
                    "error",
                    "COORDINATE_COVERAGE",
                    f"point_coordinates keys {coord_points} do not match case points {case_points}",
                    "point_coordinates",
                )
            )

    if not delivery.units.is_si:
        findings.append(
            Finding(
                "warning",
                "NON_SI_UNITS",
                f"delivery units are {delivery.units.force_unit}/{delivery.units.moment_unit}; "
                "convert before FEM export",
                "units",
            )
        )

    return ValidationReport(tuple(findings))


def _delivery_to_plain(delivery: LoadsDelivery) -> dict:
    """Delivery as plain dicts in canonical key/point order."""
    out: dict = {
        "name": delivery.name,
        "version": delivery.version,
        "units": {"force": delivery.units.force_unit, "moment": delivery.units.moment_unit},
    }
    if delivery.coordinate_system is not None:
        out["coordinate_system"] = delivery.coordinate_system
    if delivery.point_coordinates is not None:
        out["point_coordinates"] = {
            point: list(delivery.point_coordinates[point])
            for point in sorted(delivery.point_coordinates)
        }
    out["load_cases"] = []
    for case in delivery.cases:
        case_out: dict = {"id": case.id}
        if case.label is not None:
            case_out["label"] = case.label
        case_out["point_loads"] = {
            point: {c.value: case.loads[point].value(c) for c in COMPONENT_ORDER}
            for point in sorted(case.loads)
        }
        out["load_cases"].append(case_out)
    return out


# One point's row and one point's coordinates, as json.dumps(indent=2) lays them
# out. The row's name slot is filled first, so its value slots are escaped.
_POINT_LOADS_JSON = (
    "        %s: {\n"
    + ",\n".join(f'          "{key}": %%r' for key in _COMPONENT_KEYS)
    + "\n        }"
)
_POINT_COORDINATES_JSON = "    %s: [\n      %s,\n      %s,\n      %s\n    ]"


def _point_loads_template(points: tuple[str, ...]) -> str:
    """The rows of ``points`` in a case's ``point_loads``, with a ``%r`` slot
    per value; a ``%`` in a point name is escaped."""
    text = json.encoder.encode_basestring
    return ",\n".join(_POINT_LOADS_JSON % text(point).replace("%", "%%") for point in points)


def write_delivery_json(delivery: LoadsDelivery) -> str:
    """Canonical JSON rendering: fixed key order, sorted points, LF, trailing newline.

    The text is exactly ``json.dumps(_delivery_to_plain(delivery), indent=2,
    ensure_ascii=False) + "\\n"``, rendered directly: with ``indent`` the json
    module falls back to its pure-Python encoder, which took most of the time.
    Strings are escaped by the json module's own ``encode_basestring`` and
    numbers written with ``int.__repr__`` and ``float.__repr__``, as it does.
    A case's point loads are one ``%`` of a template built once per point set,
    whose ``%r`` is ``float.__repr__`` on the rows' floats.
    """
    text, number = json.encoder.encode_basestring, float.__repr__
    units = delivery.units
    parts = [
        f'{{\n  "name": {text(delivery.name)},\n'
        f'  "version": {int.__repr__(delivery.version)},\n'
        f'  "units": {{\n    "force": {text(units.force_unit)},\n'
        f'    "moment": {text(units.moment_unit)}\n  }},\n'
    ]
    if delivery.coordinate_system is not None:
        parts.append(f'  "coordinate_system": {text(delivery.coordinate_system)},\n')
    coords = delivery.point_coordinates
    if coords is not None:
        rows = ",\n".join(
            _POINT_COORDINATES_JSON % (text(point), *map(number, coords[point]))
            for point in sorted(coords)
        )
        rows = f"{{\n{rows}\n  }}" if rows else "{}"
        parts.append(f'  "point_coordinates": {rows},\n')
    cases = []
    templates = {}  # by sorted point set, which the cases of a delivery share
    for case in delivery.cases:
        label = "" if case.label is None else f'      "label": {text(case.label)},\n'
        loads = case.loads
        points = tuple(sorted(loads))
        template = templates.get(points)
        if template is None:
            template = templates[points] = _point_loads_template(points)
        rows = template % tuple(chain.from_iterable(map(loads.__getitem__, points)))
        cases.append(
            f'    {{\n      "id": {int.__repr__(case.id)},\n{label}'
            f'      "point_loads": {{\n{rows}\n      }}\n    }}'
        )
    parts.append('  "load_cases": [\n' + ",\n".join(cases) + "\n  ]\n}\n")
    return "".join(parts)


def yaml_backend() -> str:
    """The parser that reads YAML deliveries: ``"libyaml"`` or ``"python"``."""
    from .yaml_reader import backend

    return backend()


def yaml_backend_used() -> str | None:
    """The parser that has read YAML in this process, or None when none has;
    unlike ``yaml_backend()``, never imports PyYAML or the YAML reader."""
    reader = sys.modules.get(f"{__package__}.yaml_reader")
    return None if reader is None else reader.backend()


def write_delivery_yaml(delivery: LoadsDelivery) -> str:
    """Deterministic YAML rendering of the same canonical structure."""
    import yaml

    return yaml.safe_dump(
        _delivery_to_plain(delivery),
        sort_keys=False,
        allow_unicode=True,
        default_flow_style=False,
    )


def load_delivery(path: str | Path) -> LoadsDelivery:
    """Read, parse and validate a delivery file; raise on error findings."""
    raw = Path(path).read_bytes()
    delivery = parse_delivery(raw)
    report = validate_delivery(delivery)
    if not report.ok:
        first = next(f for f in report.findings if f.severity == "error")
        raise LoadsmithError(
            f"invalid delivery {path}: {first.message}",
            code=first.code,
            location=first.location,
        )
    return delivery
