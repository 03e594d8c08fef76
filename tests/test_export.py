import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from loadsmith.analysis import envelope_extremes, envelope_select
from loadsmith.compare import compare_envelopes, write_comparison_report
from loadsmith.errors import InputSyntaxError, LoadsmithError, SchemaError
from loadsmith.export import (
    DECK_HEADER,
    envelope_to_markdown,
    export_all_inp,
    format_deck_value,
    parse_node_map,
    read_envelope_json,
    write_ansys_inp,
    write_envelope_json,
)
from loadsmith.model import (
    COMPONENT_ORDER,
    ComponentSet,
    EnvelopeExtremes,
    ExtremeCell,
    LoadCase,
    LoadsDelivery,
    SI_UNITS,
    UnitSystem,
)

from fixtures import generate_fixture
from strategies import component_sets, envelopes, point_names_st


class TestFormatDeckValue:
    # format rules applied by hand
    @pytest.mark.parametrize(
        "value,expected",
        [
            (100.0, "1.000000E+02"),
            (123.45, "1.234500E+02"),
            (-5.0, "-5.000000E+00"),
            (0.0, "0.000000E+00"),
            (1e-3, "1.000000E-03"),
        ],
    )
    def test_examples(self, value, expected):
        assert format_deck_value(value) == expected

    @given(st.floats())
    @example(-0.0)
    @example(5e-324)
    @example(9.9999995e-10)
    def test_matches_format_spec(self, value):
        # the definition before the deck template: format(value, ".6E")
        assert format_deck_value(value) == f"{value:.6E}"


class TestWriteAnsysInp:
    def test_single_point_deck_by_hand(self):
        case = LoadCase(id=7, loads={"lug_port": ComponentSet(fx=100.0)})
        deck = write_ansys_inp(case, {"lug_port": 1001})
        assert deck == (
            "/COM, DUCTILE loadsmith\n"
            "/COM, case 7\n"
            "F,1001,FX,1.000000E+02\n"
            "F,1001,FY,0.000000E+00\n"
            "F,1001,FZ,0.000000E+00\n"
            "F,1001,MX,0.000000E+00\n"
            "F,1001,MY,0.000000E+00\n"
            "F,1001,MZ,0.000000E+00\n"
        )

    def test_label_in_header(self):
        case = LoadCase(id=2, label="gust", loads={"a": ComponentSet()})
        deck = write_ansys_inp(case, {"a": 5})
        assert "/COM, case 2 gust\n" in deck

    @pytest.mark.parametrize("label", ["cruise\nF,7,FX,9.9E+09", "gust\r", "a\u2028b"])
    def test_label_spanning_lines_refused(self, label):
        case = LoadCase(id=4, label=label, loads={"a": ComponentSet()})
        with pytest.raises(LoadsmithError) as err:
            write_ansys_inp(case, {"a": 7})
        assert err.value.code == "BAD_LABEL"
        assert str(err.value).startswith("case 4: ")

    def test_negative_value_sign(self):
        case = LoadCase(id=1, loads={"a": ComponentSet(fx=-5.0)})
        deck = write_ansys_inp(case, {"a": 3})
        assert "F,3,FX,-5.000000E+00" in deck

    def test_excluded_point_absent(self):
        case = LoadCase(
            id=1,
            loads={"bearing": ComponentSet(fx=1.0), "lug": ComponentSet(fx=2.0)},
        )
        deck = write_ansys_inp(case, {"bearing": 11, "lug": 22}, exclude={"bearing"})
        assert ",11," not in deck
        assert "F,22,FX,2.000000E+00" in deck

    def test_unknown_excluded_point_refused(self):
        case = LoadCase(id=1, loads={"bearing": ComponentSet(), "lug": ComponentSet()})
        with pytest.raises(LoadsmithError) as err:
            write_ansys_inp(case, {"bearing": 11, "lug": 22}, exclude={"baering"})
        assert err.value.code == "UNKNOWN_POINT"
        assert err.value.location == "baering"

    def test_line_count_invariant(self):
        points = {f"p{i}": ComponentSet(fx=float(i)) for i in range(5)}
        case = LoadCase(id=1, loads=points)
        nodes = {f"p{i}": 100 + i for i in range(5)}
        deck = write_ansys_inp(case, nodes, exclude={"p0"})
        lines = deck.splitlines()
        assert len(lines) == 2 + 6 * 4

    def test_points_lexicographic_components_canonical(self):
        case = LoadCase(
            id=1, loads={"zeta": ComponentSet(fx=1.0), "alpha": ComponentSet(fx=2.0)}
        )
        deck = write_ansys_inp(case, {"zeta": 1, "alpha": 2})
        body = deck.splitlines()[2:]
        assert body[0].startswith("F,2,FX")  # alpha first
        assert [line.split(",")[2] for line in body[:6]] == ["FX", "FY", "FZ", "MX", "MY", "MZ"]

    def test_unmapped_point_error(self):
        case = LoadCase(id=1, loads={"a": ComponentSet()})
        with pytest.raises(LoadsmithError) as err:
            write_ansys_inp(case, {})
        assert err.value.code == "UNMAPPED_POINT"

    def test_all_points_excluded_refused(self):
        case = LoadCase(id=1, loads={"a": ComponentSet()})
        with pytest.raises(LoadsmithError) as err:
            write_ansys_inp(case, {"a": 1}, exclude={"a"})
        assert err.value.code == "EMPTY_DECK"


def _old_deck(case: LoadCase, nodes: dict, exclude: frozenset) -> str:
    """The deck as rendered before the template: one format_deck_value per value."""
    lines = [DECK_HEADER, f"/COM, case {case.id}" + ("" if case.label is None else f" {case.label}")]
    for point in sorted(case.loads):
        if point not in exclude:
            for comp, value in zip(COMPONENT_ORDER, case.loads[point]):
                lines.append(f"F,{nodes[point]},{comp.name},{format_deck_value(value)}")
    return "\n".join(lines) + "\n"


_percent_text = st.text(alphabet=st.sampled_from("%rsd(x)a_ é"), min_size=1, max_size=6)


@st.composite
def _decks(draw):
    """A case with its node map and exclusions; names, labels and some node ids hold %."""
    points = draw(st.lists(st.one_of(_percent_text, point_names_st), min_size=1, max_size=5, unique=True))
    loads = {p: draw(component_sets(st.floats(allow_nan=False, allow_infinity=False))) for p in points}
    label = draw(st.none() | _percent_text)
    node_ids = st.integers(min_value=1, max_value=10**12) | _percent_text
    nodes = {p: draw(node_ids) for p in points}
    exclude = frozenset(draw(st.lists(st.sampled_from(points), max_size=len(points) - 1)))
    case = LoadCase(id=draw(st.integers(min_value=1, max_value=10**6)), label=label, loads=loads)
    return case, nodes, exclude


class TestDeckTemplate:
    @given(_decks())
    @example((
        LoadCase(id=5, label="%s %r 100%", loads={"%": ComponentSet(fx=1.5), "%(x)s": ComponentSet(my=-2.0)}),
        {"%": 7, "%(x)s": "8%s"},
        frozenset(),
    ))
    def test_matches_per_value_loop(self, deck):
        case, nodes, exclude = deck
        assert write_ansys_inp(case, nodes, exclude) == _old_deck(case, nodes, exclude)


class TestExportAllInp:
    POINTS = ["bearing", "lug_left", "lug_right"]
    NODES = {"bearing": 1, "lug_left": 2, "lug_right": 3}

    def test_replay_selection_filenames(self, tmp_path):
        d = generate_fixture(
            1, 100, self.POINTS, 6, critical_ids=[2, 20, 34, 61, 92, 99]
        )
        paths = export_all_inp(d, [2, 20, 34, 61, 92, 99], self.NODES, out_dir=tmp_path)
        assert [p.name for p in paths] == [
            "limit_load_2.inp",
            "limit_load_20.inp",
            "limit_load_34.inp",
            "limit_load_61.inp",
            "limit_load_92.inp",
            "limit_load_99.inp",
        ]

    def test_empty_selection_error(self, tmp_path, two_point_delivery):
        with pytest.raises(LoadsmithError) as err:
            export_all_inp(two_point_delivery, [], {"lug_port": 1, "bearing": 2}, out_dir=tmp_path)
        assert err.value.code == "EMPTY_SELECTION"

    def test_unknown_id_error(self, tmp_path, two_point_delivery):
        with pytest.raises(LoadsmithError) as err:
            export_all_inp(
                two_point_delivery, [99], {"lug_port": 1, "bearing": 2}, out_dir=tmp_path
            )
        assert err.value.code == "UNKNOWN_CASE_ID"

    def test_non_si_delivery_refused_before_any_deck(self, tmp_path, imperial_delivery):
        with pytest.raises(LoadsmithError) as err:
            export_all_inp(imperial_delivery, [1], {"bearing": 1}, out_dir=tmp_path / "decks")
        assert err.value.code == "NON_SI_EXPORT"
        assert "(got klbf/klbf·in)" in str(err.value)
        assert not (tmp_path / "decks").exists()

    def test_repeat_runs_byte_identical(self, tmp_path):
        d = generate_fixture(4, 10, self.POINTS, 2)
        sel = [d.cases[0].id, d.cases[5].id]
        first = {
            p.name: p.read_bytes()
            for p in export_all_inp(d, sel, self.NODES, out_dir=tmp_path / "one")
        }
        second = {
            p.name: p.read_bytes()
            for p in export_all_inp(d, sel, self.NODES, out_dir=tmp_path / "two")
        }
        assert first == second

    def test_exclusion_scrubs_node_everywhere(self, tmp_path):
        d = generate_fixture(8, 20, self.POINTS, 3)
        paths = export_all_inp(
            d, list(envelope_select(d).selected_case_ids), self.NODES,
            exclude={"bearing"}, out_dir=tmp_path,
        )
        for path in paths:
            assert ",1," not in path.read_text()


class TestEnvelopeMarkdown:
    def test_two_case_fx_row_by_hand(self):
        d = LoadsDelivery(
            name="x", version=1, units=SI_UNITS,
            cases=(
                LoadCase(id=1, loads={"p": ComponentSet(fx=10.0)}),
                LoadCase(id=2, loads={"p": ComponentSet(fx=-5.0)}),
            ),
        )
        md = envelope_to_markdown(envelope_extremes(d))
        assert "| FX | 1.000000E+01 | 1 | -5.000000E+00 | 2 |" in md

    def test_single_case_max_equals_min(self, imperial_delivery):
        md = envelope_to_markdown(envelope_extremes(imperial_delivery))
        assert "| FX | 1.000000E+00 | 1 | 1.000000E+00 | 1 |" in md

    def test_header_carries_provenance(self, imperial_delivery):
        md = envelope_to_markdown(envelope_extremes(imperial_delivery))
        assert "Delivery: imperial loads v2" in md
        assert "Units: force klbf, moment klbf·in" in md

    def test_points_sorted_as_sections(self, two_point_delivery):
        md = envelope_to_markdown(envelope_extremes(two_point_delivery))
        assert md.index("## bearing") < md.index("## lug_port")

    @pytest.mark.parametrize(
        "name,point",
        [
            ("v2\nUnits: force N, moment N·m", "a"),
            ("v2\r", "a"),
            ("v2", "a\n| FX | 9.9E+09 | 1 | 0 | 1 |"),
            ("v2", "a\u2028b"),
        ],
        ids=["name-newline", "name-carriage-return", "point-newline", "point-line-separator"],
    )
    def test_text_spanning_lines_refused(self, name, point):
        # Before, each line break started a line of its own in the report.
        case = LoadCase(id=1, loads={point: ComponentSet(fx=1.0)})
        d = LoadsDelivery(name=name, version=1, units=SI_UNITS, cases=(case,))
        with pytest.raises(LoadsmithError) as err:
            envelope_to_markdown(envelope_extremes(d))
        assert err.value.code == "BAD_LABEL"
        assert repr(point if name == "v2" else name) in str(err.value)


class TestEnvelopeJson:
    def test_two_case_fx_schema_by_hand(self):
        d = LoadsDelivery(
            name="x", version=1, units=SI_UNITS,
            cases=(
                LoadCase(id=1, loads={"p": ComponentSet(fx=10.0)}),
                LoadCase(id=2, loads={"p": ComponentSet(fx=-5.0)}),
            ),
        )
        data = json.loads(write_envelope_json(envelope_extremes(d)))
        assert data["extremes"]["p"]["FX"] == {
            "max": 10.0, "max_case": 1, "min": -5.0, "min_case": 2,
        }

    def test_round_trip(self, two_point_delivery):
        ext = envelope_extremes(two_point_delivery)
        assert read_envelope_json(write_envelope_json(ext)) == ext

    @given(envelopes())
    def test_round_trip_property(self, ext):
        assert read_envelope_json(write_envelope_json(ext)) == ext

    def test_construction_order_independent(self, two_point_delivery):
        ext = envelope_extremes(two_point_delivery)
        reordered = type(ext)(
            name=ext.name, version=ext.version, units=ext.units,
            cells={p: ext.cells[p] for p in sorted(ext.cells, reverse=True)},
        )
        assert write_envelope_json(reordered) == write_envelope_json(ext)

    def test_reader_rejects_missing_component(self):
        with pytest.raises(SchemaError):
            read_envelope_json(
                '{"name": "x", "version": 1, "units": {"force": "N", "moment": "N·m"},'
                ' "extremes": {"p": {"FX": {"max": 1, "max_case": 1, "min": 0, "min_case": 1}}}}'
            )

    @pytest.mark.parametrize(
        "edit,location",
        [
            (lambda cell: cell.pop("max_case"), "extremes.bearing.FX.max_case"),
            (lambda cell: cell.update(max="10.0"), "extremes.bearing.FX.max"),
            (lambda cell: cell.update(min=11.0), "extremes.bearing.FX"),
            (lambda cell: cell.update(extra=1), "extremes.bearing.FX.extra"),
            (lambda cell: cell.update(max_case=0), "extremes.bearing.FX"),
            (lambda cell: cell.update(min_case=-3), "extremes.bearing.FX"),
        ],
        ids=[
            "missing-max-case", "string-max", "min-above-max", "unknown-field",
            "zero-max-case", "negative-min-case",
        ],
    )
    def test_reader_rejects_bad_cell(self, two_point_delivery, edit, location):
        data = json.loads(write_envelope_json(envelope_extremes(two_point_delivery)))
        edit(data["extremes"]["bearing"]["FX"])
        with pytest.raises(SchemaError) as err:
            read_envelope_json(json.dumps(data))
        assert err.value.location == location

    def test_reader_rejects_empty_extremes(self, two_point_delivery):
        data = json.loads(write_envelope_json(envelope_extremes(two_point_delivery)))
        data["extremes"] = {}
        with pytest.raises(SchemaError) as err:
            read_envelope_json(json.dumps(data))
        assert err.value.location == "extremes"


# Values a JSON writer must spell as json.dumps does: signed zero, the
# smallest subnormal, the largest magnitudes; and point names that need escaping.
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308])
_BOUNDS = st.one_of(_EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
_NAMES = st.one_of(
    st.sampled_from(['lüg "port"', "a\\b", "tab\tnul\x00\x1f", "\u2028\u00e9\U0001f600", "%s%%r"]),
    st.text(max_size=6),
)
_UNITS = st.sampled_from([SI_UNITS, UnitSystem("klbf", "klbf·in")])


@st.composite
def _edge_extremes(draw, points=None):
    """Extremes over ``points`` (drawn when None) whose values and names probe a JSON writer."""
    if points is None:
        points = draw(st.lists(_NAMES, max_size=3, unique=True))
    cases = st.integers(min_value=1, max_value=10**20)
    cells = {}
    for point in points:
        cells[point] = {}
        for comp in COMPONENT_ORDER:
            a, b = draw(_BOUNDS), draw(_BOUNDS)
            cells[point][comp] = ExtremeCell(max(a, b), draw(cases), min(a, b), draw(cases))
    return EnvelopeExtremes(
        name=draw(_NAMES), version=draw(st.integers(min_value=0, max_value=10**20)),
        units=draw(_UNITS), cells=cells,
    )


@st.composite
def _edge_reports(draw):
    """A comparison of two such extremes, some deltas then redrawn: None,
    an infinity (old 5e-324 to new 1e308 overflows) or any float."""
    points = draw(st.lists(_NAMES, max_size=3, unique=True))
    new, old = draw(_edge_extremes(points)), draw(_edge_extremes(points))
    report = compare_envelopes(new, old._replace(units=new.units))
    deltas = st.one_of(st.none(), st.sampled_from([math.inf, -math.inf]), st.floats())
    cells = {
        point: {
            comp: cell._replace(
                max_delta_pct=draw(st.one_of(st.just(cell.max_delta_pct), deltas)),
                min_delta_pct=draw(st.one_of(st.just(cell.min_delta_pct), deltas)),
            )
            for comp, cell in per_comp.items()
        }
        for point, per_comp in report.cells.items()
    }
    return report._replace(cells=cells)


def _flat_report(new: float, old: float):
    """The comparison of two one-point extremes whose every bound is ``new`` and ``old``."""

    def flat(value: float) -> EnvelopeExtremes:
        cells = {"p": {comp: ExtremeCell(value, 1, value, 1) for comp in COMPONENT_ORDER}}
        return EnvelopeExtremes("e", 1, SI_UNITS, cells)

    return compare_envelopes(flat(new), flat(old))


def _json_dumps(data) -> str:
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


class TestJsonWritersMatchJsonDumps:
    """The direct extremes and comparison writers against json.dumps of the
    structures they render, which both writers once returned."""

    @given(_edge_extremes())
    def test_extremes(self, ext):
        data = {
            "name": ext.name,
            "version": ext.version,
            "units": {"force": ext.units.force_unit, "moment": ext.units.moment_unit},
            "extremes": {
                point: {
                    comp.name: {
                        "max": cell.max_value,
                        "max_case": cell.max_case,
                        "min": cell.min_value,
                        "min_case": cell.min_case,
                    }
                    for comp in COMPONENT_ORDER
                    for cell in [ext.cell(point, comp)]
                }
                for point in ext.points()
            },
        }
        assert write_envelope_json(ext) == _json_dumps(data)

    @given(_edge_reports())
    @example(_flat_report(new=1e308, old=5e-324))  # an Infinity delta
    @example(_flat_report(new=1.0, old=0.0))  # a null delta
    def test_comparison_report(self, report):
        data = {
            "new": {"name": report.new_name, "version": report.new_version},
            "old": {"name": report.old_name, "version": report.old_version},
            "units": {"force": report.units.force_unit, "moment": report.units.moment_unit},
            "new_exceeds_old": report.new_exceeds_old,
            "cells": {
                point: {comp.name: report.cells[point][comp]._asdict() for comp in COMPONENT_ORDER}
                for point in sorted(report.cells)
            },
        }
        assert write_comparison_report(report) == _json_dumps(data)


class TestNodeMap:
    def test_parse_valid(self):
        assert parse_node_map('{"a": 1, "b": 2}') == {"a": 1, "b": 2}

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(SchemaError):
            parse_node_map('{"a": 1, "b": 1}')

    def test_rejects_non_positive(self):
        with pytest.raises(SchemaError):
            parse_node_map('{"a": 0}')

    def test_rejects_non_object(self):
        with pytest.raises(SchemaError):
            parse_node_map("[1, 2]")

    def test_rejects_duplicate_point(self):
        with pytest.raises(InputSyntaxError):
            parse_node_map('{"a": 1, "a": 2}')
