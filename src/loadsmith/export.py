"""Deterministic exporters: ANSYS-style decks, envelope markdown, extremes JSON.

All emitted text is byte-reproducible: fixed orderings, fixed number
formats, LF line endings and no timestamps. Run provenance belongs in the
sidecar trace, never inside content files.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

from . import strict
from .errors import LoadsmithError, SchemaError
from .ingest import read_units
from .model import (
    COMPONENT_ORDER,
    Component,
    EnvelopeExtremes,
    ExtremeCell,
    LoadCase,
    LoadsDelivery,
)
# The field checks run per point and component, so they are looked up as globals.
from .strict import expect_int, expect_keys, expect_mapping, expect_number, expect_text

NodeMap = dict[str, int]

DECK_HEADER = "/COM, DUCTILE loadsmith"
_DECK_VALUE = "%.6E"


def format_deck_value(value: float) -> str:
    """Upper-case scientific notation with six fractional digits."""
    return _DECK_VALUE % value


# One point's F lines: its node id, filled in first, then one escaped
# format_deck_value slot per component.
_DECK_POINT_LINES = "\n".join(
    f"F,%(node)s,{comp.name},{_DECK_VALUE.replace('%', '%%')}" for comp in COMPONENT_ORDER
)


def one_line(text: str, what: str) -> str:
    """``text`` unchanged, or BAD_LABEL when it spans lines: a written file
    puts it on one line, where a line break would start a line of its own."""
    if "".join(text.splitlines()) != text:
        raise LoadsmithError(
            f"{what} {text!r} spans lines; it would start a line of its own", code="BAD_LABEL"
        )
    return text


def parse_node_map(text: str) -> NodeMap:
    """Parse a {point: node id} JSON config; ids must be positive and unique."""
    nodes = expect_mapping(strict.read_json(text, "node map"), "$")
    for point, node in nodes.items():
        if expect_int(node, point) < 1:
            raise SchemaError(
                f"node id for {point!r} must be a positive integer, got {node!r}",
                location=point,
            )
    if len(set(nodes.values())) != len(nodes):
        raise SchemaError("node map assigns the same node id to two points")
    return nodes


def load_node_map(path: str | Path) -> NodeMap:
    return parse_node_map(strict.read_text(path, "node map"))


def write_ansys_inp(
    case: LoadCase, nodes: NodeMap, exclude: set[str] | frozenset[str] = frozenset()
) -> str:
    """Render one load case as a nodal-force deck.

    Two comment lines, then one ``F,<node>,<LABEL>,<value>`` line per
    non-excluded point (lexicographic) and component (canonical order),
    rendered with one ``%`` of a template built for the deck, in the
    case's own units: ``export_all_inp`` refuses a delivery that is not SI.

    Raises:
        LoadsmithError: For an excluded name that is not a point of the case,
            a non-excluded point with no node mapping, a label that spans
            lines, or when the exclusion leaves nothing to write.
    """
    unknown = sorted(exclude - case.loads.keys())
    if unknown:
        raise LoadsmithError(
            f"case {case.id}: cannot exclude unknown point {unknown[0]!r}",
            code="UNKNOWN_POINT",
            location=unknown[0],
        )
    points = [p for p in sorted(case.loads) if p not in exclude]
    if not points:
        raise LoadsmithError(
            f"case {case.id}: every point is excluded, refusing to write an empty deck",
            code="EMPTY_DECK",
        )
    unmapped = [p for p in points if p not in nodes]
    if unmapped:
        raise LoadsmithError(
            f"case {case.id}: no node mapping for points {unmapped}",
            code="UNMAPPED_POINT",
        )

    lines = [DECK_HEADER]
    title = f"/COM, case {case.id}"
    if case.label is not None:
        title += f" {one_line(case.label, f'case {case.id}: label')}"
    lines.append(title)
    template = "\n".join(
        _DECK_POINT_LINES % {"node": str(nodes[point]).replace("%", "%%")} for point in points
    )
    lines.append(template % tuple(chain.from_iterable(map(case.loads.__getitem__, points))))
    return "\n".join(lines) + "\n"


def export_all_inp(
    delivery: LoadsDelivery,
    selected: list[int],
    nodes: NodeMap,
    exclude: set[str] | frozenset[str] = frozenset(),
    out_dir: str | Path = ".",
) -> list[Path]:
    """Write ``limit_load_<id>.inp`` per selected case, ascending id order.

    Returns the paths written. Repeat runs on equal inputs are
    byte-identical. A deck holds bare numbers, so a delivery that is not in
    SI units is refused (NON_SI_EXPORT) before any deck is rendered. Every
    deck is rendered before any is written, so a refused case leaves no
    deck behind.
    """
    units = delivery.units
    if not units.is_si:
        raise LoadsmithError(
            f"decks are written in SI units only (got {units.force_unit}/{units.moment_unit}); "
            "convert first",
            code="NON_SI_EXPORT",
        )
    if not selected:
        raise LoadsmithError("no cases selected for export", code="EMPTY_SELECTION")
    by_id = {case.id: case for case in delivery.cases}
    unknown = sorted(set(selected) - by_id.keys())
    if unknown:
        raise LoadsmithError(
            f"selected case ids not in delivery: {unknown}", code="UNKNOWN_CASE_ID"
        )

    decks = {cid: write_ansys_inp(by_id[cid], nodes, exclude) for cid in sorted(set(selected))}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for case_id, deck in decks.items():
        path = out / f"limit_load_{case_id}.inp"
        path.write_text(deck, encoding="utf-8", newline="\n")
        paths.append(path)
    return paths


def envelope_to_markdown(extremes: EnvelopeExtremes) -> str:
    """One markdown table per point, values formatted as in the decks.

    Raises:
        LoadsmithError: BAD_LABEL for a delivery name or point name that
            spans lines.
    """
    lines = [
        "# Envelope extremes",
        "",
        f"Delivery: {one_line(extremes.name, 'delivery name')} v{extremes.version}",
        f"Units: force {extremes.units.force_unit}, moment {extremes.units.moment_unit}",
    ]
    for point in extremes.points():
        lines.append("")
        lines.append(f"## {one_line(point, 'point')}")
        lines.append("")
        lines.append("| Component | Max | Max case | Min | Min case |")
        lines.append("| --- | --- | --- | --- | --- |")
        for comp in COMPONENT_ORDER:
            cell = extremes.cell(point, comp)
            lines.append(
                f"| {comp.name} | {format_deck_value(cell.max_value)} | {cell.max_case}"
                f" | {format_deck_value(cell.min_value)} | {cell.min_case} |"
            )
    return "\n".join(lines) + "\n"


# A point's cells, as json.dumps(indent=2) lays them out: a float slot and a
# case id slot for each bound of each component.
_EXTREMES_POINT_JSON = ",\n".join(
    f'      "{comp.name}": {{\n        "max": %r,\n        "max_case": %d,\n'
    f'        "min": %r,\n        "min_case": %d\n      }}'
    for comp in COMPONENT_ORDER
)


def write_envelope_json(extremes: EnvelopeExtremes) -> str:
    """Canonical extremes JSON: sorted points, canonical components, raw floats.

    The text is exactly ``json.dumps`` of that structure with ``indent=2`` and
    ``ensure_ascii=False``, plus a newline, rendered directly as
    ``ingest.write_delivery_json`` renders a delivery: strings escaped by the
    json module's ``encode_basestring``, an ``ExtremeCell``'s floats written
    by ``%r`` (``float.__repr__``) and its case ids by ``%d``.
    """
    text = json.encoder.encode_basestring
    points = []
    for point in extremes.points():
        values = chain.from_iterable(map(extremes.cells[point].__getitem__, COMPONENT_ORDER))
        points.append(f"    {text(point)}: {{\n{_EXTREMES_POINT_JSON % tuple(values)}\n    }}")
    rows = "{\n" + ",\n".join(points) + "\n  }" if points else "{}"
    units = extremes.units
    return (
        f'{{\n  "name": {text(extremes.name)},\n'
        f'  "version": {int.__repr__(extremes.version)},\n'
        f'  "units": {{\n    "force": {text(units.force_unit)},\n'
        f'    "moment": {text(units.moment_unit)}\n  }},\n'
        f'  "extremes": {rows}\n}}\n'
    )


def read_envelope_json(text: str) -> EnvelopeExtremes:
    """Inverse of write_envelope_json; a missing, unknown or mistyped field is refused."""
    root = expect_mapping(strict.read_json(text, "extremes"), "$")
    expect_keys(root, required=("name", "version", "units", "extremes"), optional=(), location="$")
    extremes_node = expect_mapping(root["extremes"], "extremes")
    if not extremes_node:
        raise SchemaError("empty extremes: no point to compare", location="extremes")
    cells: dict[str, dict[Component, ExtremeCell]] = {}
    for point, per_comp in extremes_node.items():
        ploc = f"extremes.{point}"
        expect_keys(expect_mapping(per_comp, ploc), tuple(c.name for c in COMPONENT_ORDER), (), ploc)
        cells[point] = {}
        for comp in COMPONENT_ORDER:
            cloc = f"{ploc}.{comp.name}"
            raw = expect_mapping(per_comp[comp.name], cloc)
            expect_keys(raw, required=("max", "max_case", "min", "min_case"), optional=(), location=cloc)
            try:
                cells[point][comp] = ExtremeCell(
                    max_value=expect_number(raw["max"], f"{cloc}.max"),
                    max_case=expect_int(raw["max_case"], f"{cloc}.max_case"),
                    min_value=expect_number(raw["min"], f"{cloc}.min"),
                    min_case=expect_int(raw["min_case"], f"{cloc}.min_case"),
                )
            except ValueError as exc:
                raise SchemaError(str(exc), location=cloc) from exc
    return EnvelopeExtremes(
        name=expect_text(root["name"], "name"),
        version=expect_int(root["version"], "version"),
        units=read_units(root["units"], "units"),
        cells=cells,
    )
