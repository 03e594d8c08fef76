import math
import pickle
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loadsmith.analysis import (
    EnvelopeSelection,
    EquilibriumResult,
    EquilibriumSurvey,
    SelectionReason,
    Tolerance,
)
from loadsmith.compare import ComparisonCell, ComparisonReport
from loadsmith.docserver import DocumentRecord, DocumentVersion
from loadsmith.errors import UnknownUnitError
from loadsmith.evalkit.checks import CheckResult
from loadsmith.evalkit.runner import EvalReport, RunOutcome
from loadsmith.evalkit.scenario import CheckSpec, Environment, Scenario, StageItem
from loadsmith.ingest import Finding, ValidationReport
from loadsmith.model import (
    COMPONENT_ORDER,
    FORCE_TO_N,
    MOMENT_TO_NM,
    Component,
    ComponentSet,
    EnvelopeExtremes,
    ExtremeCell,
    LoadCase,
    LoadsDelivery,
    SI_UNITS,
    UnitSystem,
    point_names,
)
from loadsmith.transform import CoordinateSystemCheck

from strategies import component_sets, deliveries


class TestComponent:
    def test_canonical_order(self):
        assert [c.name for c in COMPONENT_ORDER] == ["FX", "FY", "FZ", "MX", "MY", "MZ"]

    def test_kind_classification(self):
        assert [c for c in COMPONENT_ORDER if c.is_force] == [
            Component.FX, Component.FY, Component.FZ,
        ]


class TestComponentValue:
    def test_field_projection(self):
        assert ComponentSet(fx=3.0).value(Component.FX) == 3.0

    def test_zero_case(self):
        assert ComponentSet().value(Component.MZ) == 0.0

    def test_all_fields(self):
        cs = ComponentSet(1, 2, 3, 4, 5, 6)
        assert cs.value(Component.MY) == 5.0
        assert [cs.value(c) for c in COMPONENT_ORDER] == [1, 2, 3, 4, 5, 6]


class TestComponentSetRow:
    def test_positional_keyword_and_of_agree(self):
        by_position = ComponentSet(1, 2, 3, 4, 5, 6)
        by_keyword = ComponentSet(mz=6, my=5, mx=4, fz=3, fy=2, fx=1)
        assert by_position == by_keyword == ComponentSet.of(range(1, 7))
        assert tuple(by_position) == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert all(type(v) is float for v in by_position)
        assert (by_position.fx, by_position.fy, by_position.fz) == (1.0, 2.0, 3.0)
        assert (by_position.mx, by_position.my, by_position.mz) == (4.0, 5.0, 6.0)

    def test_missing_components_default_to_zero(self):
        assert ComponentSet(fy=2.0) == (0.0, 2.0, 0.0, 0.0, 0.0, 0.0)

    def test_immutable(self):
        cs = ComponentSet(fx=1.0)
        with pytest.raises(AttributeError):
            cs.fx = 2.0
        with pytest.raises(TypeError):
            cs[0] = 2.0

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickles_unchanged(self, protocol):
        cs = ComponentSet(1.5, -0.0, 3.0, 4.0, 5.0, -6.25)
        back = pickle.loads(pickle.dumps(cs, protocol=protocol))
        assert type(back) is ComponentSet
        assert back == cs and repr(back) == repr(cs)
        assert math.copysign(1.0, back.fy) == -1.0

    def test_repr_names_fields(self):
        assert repr(ComponentSet(fx=1.0)) == (
            "ComponentSet(fx=1.0, fy=0.0, fz=0.0, mx=0.0, my=0.0, mz=0.0)"
        )


class TestComponentSetValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [c.value for c in COMPONENT_ORDER])
    def test_rejects_non_finite(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ComponentSet(**{field: bad})
        row = [0.0] * 6
        row[[c.value for c in COMPONENT_ORDER].index(field)] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ComponentSet.of(row)

    def test_finite_values_whose_sum_overflows_accepted(self):
        cs = ComponentSet.of([1.7e308, 1.7e308, 0.0, 0.0, 0.0, -1.7e308])
        assert cs.fx == cs.fy == 1.7e308 and cs.mz == -1.7e308

    @pytest.mark.parametrize("values", [[1.0] * 5, [1.0] * 7])
    def test_of_requires_six_values(self, values):
        with pytest.raises(ValueError, match="6 values"):
            ComponentSet.of(values)

    @given(component_sets())
    def test_accepts_finite(self, cs):
        assert all(math.isfinite(cs.value(c)) for c in COMPONENT_ORDER)


class TestUnitSystem:
    def test_aliases_normalized(self):
        units = UnitSystem("klbs", "klbs.in")
        assert units.force_unit == "klbf"
        assert units.moment_unit == "klbf·in"

    def test_unknown_unit_rejected(self):
        with pytest.raises(UnknownUnitError):
            UnitSystem("pounds", "N·m")
        with pytest.raises(UnknownUnitError):
            UnitSystem("N", "ft·lb")

    def test_recognized_units_are_the_factor_tables(self):
        for force in FORCE_TO_N:
            for moment in MOMENT_TO_NM:
                assert UnitSystem(force, moment).force_unit == force
        with pytest.raises(UnknownUnitError, match="recognized: N, kN, lbf, klbf$"):
            UnitSystem("pounds", "N·m")
        with pytest.raises(UnknownUnitError, match="recognized: N·m, kN·m, lbf·in, klbf·in$"):
            UnitSystem("N", "ft·lb")

    def test_si_flag(self):
        assert SI_UNITS.is_si
        assert not UnitSystem("klbf", "klbf·in").is_si


class TestLoadCase:
    def test_requires_positive_id(self):
        with pytest.raises(ValueError):
            LoadCase(id=0, loads={"a": ComponentSet()})
        with pytest.raises(ValueError):
            LoadCase(id=-3, loads={"a": ComponentSet()})

    def test_requires_some_loads(self):
        with pytest.raises(ValueError):
            LoadCase(id=1, loads={})


class TestLoadsDelivery:
    def test_requires_cases(self):
        with pytest.raises(ValueError):
            LoadsDelivery(name="x", version=1, units=SI_UNITS, cases=())

    def test_requires_positive_version(self):
        case = LoadCase(id=1, loads={"a": ComponentSet()})
        with pytest.raises(ValueError):
            LoadsDelivery(name="x", version=0, units=SI_UNITS, cases=(case,))

    def test_coordinates_must_be_finite_triples(self):
        case = LoadCase(id=1, loads={"a": ComponentSet()})
        with pytest.raises(ValueError):
            LoadsDelivery(
                name="x", version=1, units=SI_UNITS, cases=(case,),
                point_coordinates={"a": (0.0, math.nan, 0.0)},
            )
        with pytest.raises(ValueError):
            LoadsDelivery(
                name="x", version=1, units=SI_UNITS, cases=(case,),
                point_coordinates={"a": (0.0, 1.0)},
            )


class TestPointNames:
    def test_two_names_sorted(self):
        case = LoadCase(id=1, loads={"lug_port": ComponentSet(), "bearing": ComponentSet()})
        d = LoadsDelivery(name="x", version=1, units=SI_UNITS, cases=(case,))
        assert point_names(d) == ["bearing", "lug_port"]

    def test_single_point(self):
        case = LoadCase(id=1, loads={"only": ComponentSet()})
        d = LoadsDelivery(name="x", version=1, units=SI_UNITS, cases=(case,))
        assert point_names(d) == ["only"]

    def test_seven_interface_fixture(self):
        # sorted by hand from the fixture's key set
        names = ["bearing", "lpt", "lug_left", "lug_right", "nozzle", "plug", "spare"]
        case = LoadCase(id=1, loads={n: ComponentSet() for n in reversed(names)})
        d = LoadsDelivery(name="x", version=1, units=SI_UNITS, cases=(case,))
        assert point_names(d) == names

    @given(deliveries(), st.randoms())
    def test_order_independent_and_idempotent(self, delivery, rnd):
        baseline = point_names(delivery)
        shuffled_cases = []
        for case in delivery.cases:
            items = list(case.loads.items())
            rnd.shuffle(items)
            shuffled_cases.append(LoadCase(id=case.id, label=case.label, loads=dict(items)))
        shuffled = LoadsDelivery(
            name=delivery.name,
            version=delivery.version,
            units=delivery.units,
            cases=tuple(shuffled_cases),
        )
        assert point_names(shuffled) == baseline
        assert point_names(shuffled) == point_names(shuffled)


class TestExtremeCell:
    def test_min_must_not_exceed_max(self):
        with pytest.raises(ValueError):
            ExtremeCell(max_value=1.0, max_case=1, min_value=2.0, min_case=1)

    @pytest.mark.parametrize("field", ["max_case", "min_case"])
    @pytest.mark.parametrize("case_id", [0, -1, True])
    def test_case_must_be_positive_integer(self, field, case_id):
        cell = {"max_value": 1.0, "max_case": 1, "min_value": 0.0, "min_case": 1, field: case_id}
        with pytest.raises(ValueError):
            ExtremeCell(**cell)

    def test_equal_bounds_allowed(self):
        cell = ExtremeCell(max_value=1.5, max_case=1, min_value=1.5, min_case=1)
        assert cell.max_value == cell.min_value

    def test_values_are_kept_as_floats(self):
        # The extremes writer spells every value as a float; before, an int
        # or a bool was kept as given.
        cell = ExtremeCell(max_value=True, max_case=1, min_value=-2, min_case=1)
        assert (repr(cell.max_value), repr(cell.min_value)) == ("1.0", "-2.0")


def _every_field_given() -> list:
    """(record type, every field by keyword) for each record of the pipeline,
    the harness and the doc server; the values are canonical already, so the
    constructor keeps them as given."""
    units = UnitSystem(force_unit="klbf", moment_unit="klbf·in")
    case = LoadCase(id=4, loads={"bearing": ComponentSet(fx=1.0)}, label="cruise")
    cell = ExtremeCell(max_value=2.0, max_case=4, min_value=-1.0, min_case=5)
    extremes = EnvelopeExtremes(name="v2", version=2, units=units, cells={"bearing": {Component.FX: cell}})
    result_fields = {
        "case_id": 4, "force_residual": (1.0, 0.0, 0.0), "force_residual_magnitude": 1.0,
        "balanced": False, "tolerance_used": Tolerance(abs=0.5, rel=0.25),
        "moment_residual": (0.0, 2.0, 0.0), "moment_residual_magnitude": 2.0,
    }
    result = EquilibriumResult(**result_fields)
    reason = SelectionReason(point="bearing", component=Component.MZ, kind="min")
    finding = Finding(severity="warning", code="NON_SI_UNITS", message="m", location="units")
    comparison_fields = {
        "old_max": 1.0, "new_max": 2.0, "max_delta_pct": 100.0, "max_exceeds": True,
        "old_min": 0.0, "new_min": 0.0, "min_delta_pct": None, "min_exceeds": False,
    }
    comparison = ComparisonCell(**comparison_fields)
    verdict_fields = {"kind": "file_set", "status": "fail", "diffs": ("missing: a.inp",), "rationale": "r"}
    outcome_fields = {
        "run_index": 2, "trace": "run_2/trace.ndjson", "exit_status": 1, "verdicts": (CheckResult(**verdict_fields),),
        "passed": False, "reason": "exit status 1: boom", "infrastructure_error": "staging failed",
    }
    stage = StageItem(source="inputs/d.yaml", dest="d.yaml")
    spec = CheckSpec(kind="file_set", params={"dir": "decks", "expected": ("a.inp",)})
    environment = Environment(stage=(stage,), subject_command=("{python}", "p.py"), record={"toolkit": "x"})
    version = DocumentVersion(content="# Doc\n", checksum="ab" * 32)
    return [
        (UnitSystem, {"force_unit": "klbf", "moment_unit": "klbf·in"}),
        (LoadCase, {"id": 4, "loads": {"bearing": ComponentSet(fx=1.0)}, "label": "cruise"}),
        (LoadsDelivery, {
            "name": "Engine mount v2", "version": 2, "units": units, "cases": (case,),
            "coordinate_system": "engine_cs",
            "point_coordinates": {"bearing": (0.0, 0.5, 1.0), "lug": (1.0, 0.0, -0.5)},
        }),
        (ExtremeCell, {"max_value": 2.0, "max_case": 4, "min_value": -1.0, "min_case": 5}),
        (EnvelopeExtremes, {"name": "v2", "version": 2, "units": units, "cells": {"bearing": {Component.FX: cell}}}),
        (Tolerance, {"abs": 0.5, "rel": 0.25}),
        (EquilibriumResult, result_fields),
        (EquilibriumSurvey, {"results": (result,)}),
        (SelectionReason, {"point": "bearing", "component": Component.MZ, "kind": "min"}),
        (EnvelopeSelection, {"selected_case_ids": (4, 5), "extremes": extremes, "reasons": {5: (reason,)}}),
        (Finding, {"severity": "warning", "code": "NON_SI_UNITS", "message": "m", "location": "units"}),
        (ValidationReport, {"findings": (finding,)}),
        (ComparisonCell, comparison_fields),
        (ComparisonReport, {
            "new_name": "v2", "new_version": 2, "old_name": "v1", "old_version": 1, "units": units,
            "new_exceeds_old": True, "cells": {"bearing": {Component.FX: comparison}},
        }),
        (CoordinateSystemCheck, {"status": "mismatch", "found": "fan_cs"}),
        (CheckResult, verdict_fields),
        (RunOutcome, outcome_fields),
        (EvalReport, {
            "scenario_id": "replay", "k": 2, "alpha": 0.05, "passes": 0, "pass_hat_k": False,
            "lower_bound": None, "infrastructure_failures": 1, "runs": (RunOutcome(**outcome_fields),),
        }),
        (StageItem, {"source": "inputs/d.yaml", "dest": "d.yaml"}),
        (CheckSpec, {"kind": "file_set", "params": {"dir": "decks", "expected": ("a.inp",)}}),
        (Environment, {"stage": (stage,), "subject_command": ("{python}", "p.py"), "record": {"toolkit": "x"}}),
        (Scenario, {
            "id": "replay", "description": "d", "environment": environment, "checks": (spec,), "k": 3,
            "alpha": 0.05, "base_dir": Path("scenarios"),
        }),
        (DocumentVersion, {"content": "# Doc\n", "checksum": "ab" * 32}),
        (DocumentRecord, {"document_id": 1001, "title": "Loads", "versions": {1: version}}),
    ]


_RECORDS = _every_field_given()


@pytest.mark.parametrize("record_type, fields", _RECORDS, ids=[t.__name__ for t, _ in _RECORDS])
class TestPipelineRecords:
    """Every record is an immutable tuple of its fields, in order."""

    def test_every_field_reads_back_unchanged(self, record_type, fields):
        record = record_type(**fields)
        for name, value in fields.items():
            assert getattr(record, name) == value, name
        assert record == record_type(*fields.values())

    def test_is_a_tuple_of_its_fields(self, record_type, fields):
        record = record_type(**fields)
        assert record == tuple(fields.values())
        assert list(record) == list(fields.values())
        assert record[0] == next(iter(fields.values()))

    def test_repr_names_each_field(self, record_type, fields):
        shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(record_type(**fields)) == f"{record_type.__name__}({shown})"

    def test_attributes_cannot_be_set(self, record_type, fields):
        record = record_type(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
        with pytest.raises(AttributeError):
            record.extra = 1


# One bad field per checked record, as its constructor refuses it.
_BAD_FIELD = {
    UnitSystem: {"force_unit": "furlong"},
    LoadCase: {"id": 0},
    LoadsDelivery: {"version": 0},
    ExtremeCell: {"min_value": 3.0},
    EnvelopeExtremes: {"cells": {"bearing": 5}},
    Tolerance: {"abs": math.nan},
    Scenario: {"k": 0},
}


@pytest.mark.parametrize("record_type", list(_BAD_FIELD), ids=lambda t: t.__name__)
def test_replace_and_make_run_the_constructor_checks(record_type):
    fields = dict(_RECORDS)[record_type]
    record = record_type(**fields)
    assert record._replace() == record_type._make(fields.values()) == record
    assert type(record._replace()) is type(record_type._make(fields.values())) is record_type
    bad = {**fields, **_BAD_FIELD[record_type]}
    with pytest.raises(Exception) as built:
        record_type(**bad)
    for copy in (lambda: record._replace(**_BAD_FIELD[record_type]), lambda: record_type._make(bad.values())):
        with pytest.raises(type(built.value)) as copied:
            copy()
        assert str(copied.value) == str(built.value)
