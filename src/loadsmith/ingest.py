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

JSON is the canonical form; YAML is accepted on input restricted to plain
scalars, mappings and sequences (anchors, aliases, tags and the merge key
``<<`` are rejected so a delivery file can always be audited line by line).
Missing components are schema errors, never implicit zeros, and unit tokens
outside the closed alias table are refused: silent coercion is exactly the
failure class this layer exists to surface.

Every other pipeline input (node map, extremes, config, coordinates) is
decoded by ``read_json`` and checked by the same field helpers. Both carriers
refuse a key repeated within one mapping, and YAML numerals are decimal only:
``010``, ``0x1F``, ``1_000`` and ``1:30`` stay strings, which a field check
then refuses. Numbers must be finite: ``NaN`` and ``Infinity`` are refused
at their field. An integer numeral beyond Python's digit limit is refused by
the reader, as a syntax error.

YAML is parsed by libyaml (``yaml.CSafeLoader``) when PyYAML was built with
it, else by the pure-Python ``yaml.SafeLoader``; ``yaml_backend()`` names the
one in use. PyYAML is imported on the first YAML read or write, so reading,
validating and writing JSON never load it. One pass over the parser's events
builds the data and refuses each fault at its event. A plain scalar is typed
as SafeLoader types it (YAML 1.1) but for the decimal-only numerals, so
``yes``, ``~`` and ``2024-01-01`` reach the field checks as a bool, None and
a date. Each distinct plain scalar text that reads as a string, an int or a
float is typed once per document. The refusals are the same on both parsers,
but the wording of a YAML syntax error, and at times its position, comes from
the parser: for ``name: [unclosed`` libyaml reports line 2, column 1 and the
pure-Python parser line 1, column 16.
"""

from __future__ import annotations

import json
import math
import operator
import re
import sys
from itertools import chain
from pathlib import Path
from typing import NamedTuple, NoReturn

from .errors import InputSyntaxError, LoadsmithError, SchemaError
from .model import (
    COMPONENT_ORDER,
    ComponentSet,
    LoadCase,
    LoadsDelivery,
    UnitSystem,
    point_names,
)


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
        return {
            "ok": self.ok,
            "findings": [
                {
                    "severity": f.severity,
                    "code": f.code,
                    "message": f.message,
                    "location": f.location,
                }
                for f in self.findings
            ],
        }


def _decode(raw: str | bytes, what: str = "delivery") -> str:
    """The text of the input named ``what``; bytes that are not UTF-8 raise
    InputSyntaxError at their offset."""
    if isinstance(raw, bytes):
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputSyntaxError(
                f"{what} is not UTF-8 text: {exc.reason}", location=f"offset {exc.start}"
            ) from exc
    return raw


def _position(mark) -> str:
    return f"line {mark.line + 1}, column {mark.column + 1}"


def read_json(text: str, what: str):
    """Decode the JSON input named ``what``; malformed JSON (with line and
    column), a name repeated within an object and an integer beyond Python's
    digit limit raise InputSyntaxError."""

    def unique(pairs: list) -> dict:
        mapping = dict(pairs)
        if len(mapping) < len(pairs):  # name the first repeated key
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise InputSyntaxError(f"duplicate key {key!r} in {what} JSON")
                seen.add(key)
        return mapping

    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise InputSyntaxError(
            f"invalid {what} JSON: {exc.msg}", location=f"line {exc.lineno}, column {exc.colno}"
        ) from exc
    except ValueError as exc:  # the decoder's one other ValueError: int()'s digit limit
        raise InputSyntaxError(f"{_too_long_int()} in {what} JSON") from exc


def _too_long_int() -> str:
    return f"integer of more than {sys.get_int_max_str_digits()} digits"


# YAML 1.1 numerals that are not plain decimal (octal 010, hex, binary, 1_000,
# sexagesimal 1:30) resolve to strings, so a field check refuses them.
_DECIMAL_RESOLVERS = {
    "tag:yaml.org,2002:int": re.compile(r"^[-+]?(?:0|[1-9][0-9]*)$"),
    "tag:yaml.org,2002:float": re.compile(
        r"^(?:[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?|\.[0-9]+(?:[eE][-+][0-9]+)?"
        r"|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN))$"
    ),
}


def _delivery_loader(base: type) -> type:
    """A ``base`` loader whose resolver table reads numerals as decimal only."""
    import yaml

    class DeliveryLoader(base):
        backend = "python" if issubclass(base, yaml.parser.Parser) else "libyaml"

        yaml_implicit_resolvers = {
            first: [(tag, _DECIMAL_RESOLVERS.get(tag, regexp)) for tag, regexp in resolvers]
            for first, resolvers in base.yaml_implicit_resolvers.items()
        }

    return DeliveryLoader


# Built on the first YAML read (or yaml_backend() call), so a process that
# reads and writes only JSON never imports PyYAML. Tests patch it to pin a parser.
_DeliveryLoader = None


def _yaml_loader() -> type:
    """The delivery loader: libyaml when PyYAML was built with it, else the
    pure-Python parser."""
    global _DeliveryLoader
    if _DeliveryLoader is None:
        import yaml

        _DeliveryLoader = _delivery_loader(
            yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        )
    return _DeliveryLoader


def yaml_backend() -> str:
    """The parser that reads YAML deliveries: ``"libyaml"`` or ``"python"``."""
    return _yaml_loader().backend


def yaml_backend_used() -> str | None:
    """The parser that has read YAML in this process, or None when none has;
    unlike ``yaml_backend()``, never imports PyYAML."""
    return None if _DeliveryLoader is None else _DeliveryLoader.backend


_INT, _FLOAT, _MERGE, _VALUE = (
    f"tag:yaml.org,2002:{name}" for name in ("int", "float", "merge", "value")
)


def _refuse(problem: str, event) -> NoReturn:
    raise InputSyntaxError(problem, location=_position(event.start_mark))


def _build_yaml(loader):
    """The one document's data, built from the loader's parser events in one pass.

    A plain scalar is typed by the loader's resolver table; a decimal int or
    float is built here, any other typed scalar by the loader's SafeConstructor.
    A text typed ``str``, ``int`` or ``float`` reads the same as a key and as a
    value, so each distinct one is typed once per document.
    """
    import yaml

    get_event, construct = loader.get_event, loader.construct_object
    scalar_event, mapping_start, sequence_start = (
        yaml.ScalarEvent, yaml.MappingStartEvent, yaml.SequenceStartEvent
    )
    mapping_end, sequence_end = yaml.MappingEndEvent, yaml.SequenceEndEvent
    resolvers = loader.yaml_implicit_resolvers.get  # by first character; "" for an empty scalar
    typed = {}  # plain text -> its value, for the texts typed str, int or float

    def scalar(event, is_key: bool):
        """The value of a scalar event that has no anchor and no tag."""
        text = event.value
        if not event.implicit[0]:  # quoted
            return text
        value = typed.get(text)
        if value is not None:
            return value
        for tag, regexp in resolvers(text[:1], ()):
            if regexp.match(text):
                break
        else:
            typed[text] = text
            return text
        if tag == _FLOAT and text[-1] not in "fFnN":  # not .inf or .nan
            typed[text] = value = float(text)
        elif tag == _INT:
            try:
                typed[text] = value = int(text)
            except ValueError:  # beyond int()'s digit limit
                _refuse(f"{_too_long_int()} in delivery YAML", event)
        elif is_key and tag == _MERGE:  # a quoted '<<' is an ordinary string key
            _refuse("YAML merge key '<<' is not allowed in delivery files", event)
        elif is_key and tag == _VALUE:  # a '=' key is a string
            value = text
        else:
            value = construct(yaml.ScalarNode(tag, text, event.start_mark, event.end_mark))
        return value

    root = container = []  # the document's one node goes into ``root``
    parents = []  # the open containers that hold ``container``, innermost last
    in_map = document = False
    while True:
        event = get_event()
        kind = type(event)
        is_key = in_map  # until the key is read; a mapping's end, or refused below
        if in_map and kind is scalar_event and event.anchor is None and event.tag is None:
            # A mapping's keys repeat, so most are found typed before the call.
            key = typed.get(event.value) if event.implicit[0] else None
            if key is None:
                key = scalar(event, True)
            if key in container:
                _refuse(f"duplicate key {key!r} in delivery YAML", event)
            event = get_event()  # the key's value
            kind = type(event)
            is_key = False
            if kind is scalar_event and event.anchor is None and event.tag is None:
                container[key] = scalar(event, False)
                continue
        if kind is scalar_event or kind is mapping_start or kind is sequence_start:
            if event.anchor is not None:
                _refuse(f"YAML anchor {event.anchor!r} is not allowed in delivery files", event)
            if event.tag is not None:
                _refuse(f"YAML tag {event.tag!r} is not allowed in delivery files", event)
            if is_key:
                _refuse("invalid YAML: found unhashable key", event)
            if kind is scalar_event:
                value = scalar(event, False)
            else:
                value = {} if kind is mapping_start else []
            if in_map:
                container[key] = value
            else:
                container.append(value)
            if kind is not scalar_event:
                parents.append(container)
                container = value
                in_map = kind is mapping_start
        elif kind is mapping_end or kind is sequence_end:
            container = parents.pop()
            in_map = type(container) is dict
        elif kind is yaml.AliasEvent:
            _refuse("YAML aliases are not allowed in delivery files", event)
        elif kind is yaml.DocumentStartEvent:
            if document:
                _refuse("invalid YAML: but found another document", event)
            document = True
        elif kind is yaml.StreamEndEvent:
            return root[0] if root else None


def _load_yaml(text: str):
    import yaml

    try:
        loader = _yaml_loader()(text)
        try:
            return _build_yaml(loader)
        finally:
            loader.dispose()
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = _position(mark) if mark else "unknown position"
        raise InputSyntaxError(f"invalid YAML: {exc.problem}", location=where) from exc
    except yaml.YAMLError as exc:
        raise InputSyntaxError(f"invalid YAML: {exc}", location="unknown position") from exc


def _expect_mapping(node, location: str) -> dict:
    if not isinstance(node, dict):
        raise SchemaError(f"expected a mapping at {location}", location=location)
    return node


def _expect_list(node, location: str) -> list:
    if not isinstance(node, list):
        raise SchemaError(f"expected a list at {location}", location=location)
    return node


def _expect_keys(node: dict, required: tuple[str, ...], optional: tuple[str, ...], location: str):
    for key in required:
        if key not in node:
            raise SchemaError(f"missing field {key!r} at {location}", location=f"{location}.{key}")
    for key in node:
        if key not in required and key not in optional:
            raise SchemaError(f"unknown field {key!r} at {location}", location=f"{location}.{key}")


def _expect_number(value, location: str) -> float:
    # Exact types: the decoders make only int and float, and bool (an int) is refused.
    if type(value) is float:
        number = value
    elif type(value) is int:
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
    else:
        raise SchemaError(f"expected a number at {location}", location=location)
    if not math.isfinite(number):
        raise SchemaError(f"expected a finite number at {location}", location=location)
    return number


def _expect_int(value, location: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"expected an integer at {location}", location=location)
    return value


def _expect_text(value, location: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"expected a string at {location}", location=location)
    return value


def read_units(node, loc: str) -> UnitSystem:
    """A ``{"force": ..., "moment": ...}`` unit pair; unknown units are refused."""
    units_node = _expect_mapping(node, loc)
    _expect_keys(units_node, required=("force", "moment"), optional=(), location=loc)
    return UnitSystem(
        _expect_text(units_node["force"], f"{loc}.force"),
        _expect_text(units_node["moment"], f"{loc}.moment"),
    )


def read_coordinates(node, loc: str) -> dict[str, tuple[float, float, float]]:
    """A ``{point: [x, y, z]}`` mapping of numbers."""
    coords_node = _expect_mapping(node, loc)
    point_coordinates = {}
    for name, xyz in coords_node.items():
        ploc = f"{loc}.{name}"
        if not isinstance(xyz, list) or len(xyz) != 3:
            raise SchemaError(f"expected [x, y, z] at {ploc}", location=ploc)
        point_coordinates[_expect_text(name, ploc)] = tuple(
            _expect_number(v, f"{ploc}[{i}]") for i, v in enumerate(xyz)
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
    comp_map = _expect_mapping(comp_node, ploc)
    _expect_keys(comp_map, required=_COMPONENT_KEYS, optional=(), location=ploc)
    row = ComponentSet.of([_expect_number(comp_map[key], f"{ploc}.{key}") for key in _COMPONENT_KEYS])
    _expect_text(point, ploc)
    return row


def parse_delivery(raw: str | bytes) -> LoadsDelivery:
    """Parse raw JSON/YAML text into a LoadsDelivery.

    The carrier comes from the text: JSON when its first non-blank character
    is ``{`` or ``[``, YAML otherwise; blank input is refused. The parsed
    value is independent of the carrier; unit aliases are normalized. Errors
    name the offending field or file position. A point's component map that
    passes every check at once becomes its row in one step; any other is read
    field by field, so a refusal does not depend on which path saw it.

    Args:
        raw: Delivery file content (UTF-8 text or bytes).
    """
    text = _decode(raw)
    start = text.lstrip()[:1]
    if not start:
        raise InputSyntaxError("empty delivery input", location="offset 0")
    data = read_json(text, "delivery") if start in "{[" else _load_yaml(text)

    root = _expect_mapping(data, "$")
    _expect_keys(
        root,
        required=("name", "version", "units", "load_cases"),
        optional=("coordinate_system", "point_coordinates"),
        location="$",
    )

    units = read_units(root["units"], "units")

    coordinate_system = None
    if "coordinate_system" in root:
        coordinate_system = _expect_text(root["coordinate_system"], "coordinate_system")

    point_coordinates = None
    if "point_coordinates" in root:
        point_coordinates = read_coordinates(root["point_coordinates"], "point_coordinates")

    cases_node = root["load_cases"]
    if not isinstance(cases_node, list) or not cases_node:
        raise SchemaError("load_cases must be a non-empty list", location="load_cases")

    cases = []
    for idx, case_node in enumerate(cases_node):
        loc = f"load_cases[{idx}]"
        case_map = _expect_mapping(case_node, loc)
        _expect_keys(case_map, required=("id", "point_loads"), optional=("label",), location=loc)
        case_id = _expect_int(case_map["id"], f"{loc}.id")
        label = _expect_text(case_map["label"], f"{loc}.label") if "label" in case_map else None
        points_node = _expect_mapping(case_map["point_loads"], f"{loc}.point_loads")
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
            name=_expect_text(root["name"], "name"),
            version=_expect_int(root["version"], "version"),
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
