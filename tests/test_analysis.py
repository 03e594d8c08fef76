import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadsmith.analysis import (
    Tolerance,
    check_equilibrium_all,
    envelope_extremes,
    envelope_select,
)
from loadsmith.errors import LoadsmithError
from loadsmith.model import (
    COMPONENT_ORDER,
    Component,
    ComponentSet,
    LoadCase,
    LoadsDelivery,
    SI_UNITS,
    UnitSystem,
)
from loadsmith.transform import apply_ultimate_factor, convert_units

from fixtures import generate_fixture
from strategies import deliveries


def brute_force_envelope(delivery):
    """Independent oracle: scan every (point, component, case) triple.

    Deliberately restates the selection rule from scratch, without reusing
    any analysis-module code paths.
    """
    points = set()
    for case in delivery.cases:
        points.update(case.loads)

    cells = {}
    selected = set()
    for point in points:
        for comp in COMPONENT_ORDER:
            best_max = best_min = None
            max_id = min_id = None
            for case in delivery.cases:
                v = case.loads[point].value(comp)
                if best_max is None or v > best_max:
                    best_max, max_id = v, case.id
                if best_min is None or v < best_min:
                    best_min, min_id = v, case.id
            cells[(point, comp)] = (best_max, max_id, best_min, min_id)
            selected.add(max_id)
            if best_min < 0:
                selected.add(min_id)
    return sorted(selected), cells


def single_case(loads_by_point, case_id=1, units=SI_UNITS, coords=None):
    return LoadsDelivery(
        name="x", version=1, units=units,
        cases=(LoadCase(id=case_id, loads=loads_by_point),),
        point_coordinates=coords,
    )


def delivery_from_fx(fx_by_case_id, units=SI_UNITS):
    cases = tuple(
        LoadCase(id=cid, loads={"p": ComponentSet(fx=value)})
        for cid, value in fx_by_case_id.items()
    )
    return LoadsDelivery(name="x", version=1, units=units, cases=cases)


def equilibrium_of(loads_by_point, coords=None, units=SI_UNITS, tol=Tolerance()):
    """check_equilibrium_all's result for a one-case delivery of ``loads_by_point``."""
    (result,) = check_equilibrium_all(single_case(loads_by_point, units=units), tol, coords).results
    return result


class TestCheckEquilibrium:
    def test_opposite_forces_balance(self):
        result = equilibrium_of(
            {"a": ComponentSet(fx=5.0, fy=-2.0), "b": ComponentSet(fx=-5.0, fy=2.0)}
        )
        assert result.balanced
        assert result.force_residual == (0.0, 0.0, 0.0)

    def test_single_unit_force_unbalanced(self):
        result = equilibrium_of({"a": ComponentSet(fx=1.0)})
        assert not result.balanced
        assert result.force_residual_magnitude == 1.0

    def test_moment_balance_with_cross_product(self):
        # Point A at (1,0,0) carries fy=+10; point B at the origin carries
        # the closing force (0,-10,0) and mz=-10. Moments about the origin:
        # r_A x F_A = (0,0,+10), so -10 + 10 = 0.
        loads = {"a": ComponentSet(fy=10.0), "b": ComponentSet(fy=-10.0, mz=-10.0)}
        coords = {"a": (1.0, 0.0, 0.0), "b": (0.0, 0.0, 0.0)}
        result = equilibrium_of(loads, coords=coords)
        assert result.balanced
        assert result.moment_residual == (0.0, 0.0, 0.0)

    def test_zero_tolerance_on_exact_zero_sum(self):
        result = equilibrium_of(
            {"a": ComponentSet(fz=3.0), "b": ComponentSet(fz=-3.0)}, tol=Tolerance(abs=0.0, rel=0.0)
        )
        assert result.balanced

    def test_coords_must_cover_points(self):
        with pytest.raises(LoadsmithError) as err:
            equilibrium_of({"a": ComponentSet(), "b": ComponentSet()}, coords={"a": (0.0, 0.0, 0.0)})
        assert err.value.code == "COORDINATE_COVERAGE"

    def test_coords_with_non_si_units_refused(self):
        with pytest.raises(LoadsmithError) as err:
            equilibrium_of(
                {"a": ComponentSet()}, coords={"a": (0.0, 0.0, 0.0)}, units=UnitSystem("klbf", "klbf·in")
            )
        assert err.value.code == "NON_SI_EQUILIBRIUM"

    def test_own_coords_with_non_si_units_refused(self):
        d = single_case(
            {"a": ComponentSet()}, units=UnitSystem("klbf", "klbf·in"), coords={"a": (0.0, 0.0, 0.0)}
        )
        with pytest.raises(LoadsmithError) as err:
            check_equilibrium_all(d)
        assert err.value.code == "NON_SI_EQUILIBRIUM"

    def test_magnitudes_do_not_depend_on_the_interpreters_sum(self):
        # sum() of floats is compensated since Python 3.12, which read this
        # magnitude as 7024.30999623007.
        load = (-7011.679264617851, -420.9382927282661, 9.786060534191773)
        result = equilibrium_of(
            {"a": ComponentSet(*load, *load)}, coords={"a": (0.0, 0.0, 0.0)}
        )
        assert result.force_residual_magnitude == 7024.309996230071
        assert result.moment_residual_magnitude == 7024.309996230071

    def test_no_coords_skips_moment_residual(self):
        result = equilibrium_of({"a": ComponentSet(mz=99.0)})
        assert result.moment_residual is None
        assert result.balanced  # forces sum to zero; moments not assessed


@pytest.mark.parametrize(
    "tol",
    [
        {"abs": float("nan")},
        {"rel": float("nan")},
        {"abs": float("inf")},
        {"rel": float("inf")},
        {"abs": -1e-9},
        {"rel": -1e-3},
    ],
    ids=["abs-nan", "rel-nan", "abs-inf", "rel-inf", "abs-negative", "rel-negative"],
)
def test_tolerance_refuses_non_finite_or_negative(tol):
    with pytest.raises(LoadsmithError) as err:
        Tolerance(**tol)
    assert err.value.code == "BAD_TOLERANCE"


class TestCheckEquilibriumAll:
    POINTS = ["bearing", "lpt", "lug_left", "lug_right", "nozzle", "plug"]

    def test_balanced_fixture_all_balanced(self):
        d = generate_fixture(3, 40, self.POINTS, 5, balanced=True)
        survey = check_equilibrium_all(d, tol=Tolerance(abs=1e-9, rel=1e-3))
        assert survey.all_balanced
        assert [r.case_id for r in survey.results] == [c.id for c in d.cases]

    def test_one_percent_perturbation_fails(self):
        d = generate_fixture(3, 40, self.POINTS, 5, balanced=True)
        victim = d.cases[10]
        # perturb the largest-|fx| entry so the residual clearly exceeds rel_tol
        point = max(victim.loads, key=lambda p: abs(victim.loads[p].fx))
        loads = dict(victim.loads)
        old = loads[point]
        loads[point] = ComponentSet(old.fx * 1.01, old.fy, old.fz, old.mx, old.my, old.mz)
        cases = list(d.cases)
        cases[10] = LoadCase(id=victim.id, label=victim.label, loads=loads)
        perturbed = LoadsDelivery(name=d.name, version=d.version, units=d.units, cases=tuple(cases))

        survey = check_equilibrium_all(perturbed, tol=Tolerance(abs=1e-9, rel=1e-3))
        assert not survey.all_balanced
        unbalanced = [r.case_id for r in survey.results if not r.balanced]
        assert unbalanced == [victim.id]

    def test_uses_delivery_coordinates(self):
        case = LoadCase(
            id=1,
            loads={"a": ComponentSet(fy=10.0), "b": ComponentSet(fy=-10.0, mz=-10.0)},
        )
        d = LoadsDelivery(
            name="x", version=1, units=SI_UNITS, cases=(case,),
            point_coordinates={"a": (1.0, 0.0, 0.0), "b": (0.0, 0.0, 0.0)},
        )
        survey = check_equilibrium_all(d)
        assert survey.results[0].moment_residual is not None
        assert survey.all_balanced

    @given(deliveries(with_units=SI_UNITS), st.floats(min_value=1.1, max_value=5.0))
    def test_residual_scales_linearly(self, delivery, factor):
        base = check_equilibrium_all(delivery)
        scaled = check_equilibrium_all(apply_ultimate_factor(delivery, factor))
        for r0, r1 in zip(base.results, scaled.results):
            for v0, v1 in zip(r0.force_residual, r1.force_residual):
                assert v1 == pytest.approx(factor * v0, rel=1e-12, abs=1e-9)


class TestEnvelopeExtremes:
    def test_single_case_max_equals_min(self):
        d = delivery_from_fx({1: 10.0})
        ext = envelope_extremes(d)
        cell = ext.cell("p", Component.FX)
        assert (cell.max_value, cell.max_case, cell.min_value, cell.min_case) == (10.0, 1, 10.0, 1)

    def test_two_case_extremes(self):
        # brute force over two cases by hand: max 10@1, min -5@2
        d = delivery_from_fx({1: 10.0, 2: -5.0})
        cell = envelope_extremes(d).cell("p", Component.FX)
        assert (cell.max_value, cell.max_case) == (10.0, 1)
        assert (cell.min_value, cell.min_case) == (-5.0, 2)

    def test_interior_case_changes_nothing(self):
        base = envelope_extremes(delivery_from_fx({1: 10.0, 2: -5.0}))
        more = envelope_extremes(delivery_from_fx({1: 10.0, 2: -5.0, 3: 1.0}))
        assert more.cells == base.cells

    def test_tie_goes_to_earliest_case(self):
        d = delivery_from_fx({5: 7.0, 2: 7.0})  # delivery order: 5 then 2
        cell = envelope_extremes(d).cell("p", Component.FX)
        assert cell.max_case == 5
        assert cell.min_case == 5

    @pytest.mark.parametrize("first,second", [(-0.0, 0.0), (0.0, -0.0)])
    def test_signed_zero_tie_keeps_the_earliest_case_and_its_sign(self, first, second):
        cell = envelope_extremes(delivery_from_fx({1: first, 2: second})).cell("p", Component.FX)
        assert (cell.max_case, cell.min_case) == (1, 1)
        for value in (cell.max_value, cell.min_value):
            assert math.copysign(1.0, value) == math.copysign(1.0, first)

    def test_provenance_carried(self, imperial_delivery):
        ext = envelope_extremes(imperial_delivery)
        assert (ext.name, ext.version) == ("imperial loads", 2)
        assert ext.units == imperial_delivery.units


class TestEnvelopeSelect:
    def test_max_always_min_if_negative(self):
        # hand-applied rule over three cases: 1 is max, 2 is negative min
        d = delivery_from_fx({1: 10.0, 2: -5.0, 3: 3.0})
        sel = envelope_select(d)
        assert sel.selected_case_ids == (1, 2)

    def test_positive_min_not_selected(self):
        # all components of case i equal i, so every cell has max @3, min @1 (positive)
        cases = tuple(
            LoadCase(id=i, loads={"p": ComponentSet(*([float(i)] * 6))})
            for i in (1, 2, 3)
        )
        d = LoadsDelivery(name="x", version=1, units=SI_UNITS, cases=cases)
        sel = envelope_select(d)
        assert sel.selected_case_ids == (3,)

    def test_single_case_selected(self):
        d = delivery_from_fx({9: 0.0})
        sel = envelope_select(d)
        assert sel.selected_case_ids == (9,)
        cell = sel.extremes.cell("p", Component.FX)
        assert cell.max_value == cell.min_value == 0.0

    def test_zero_min_not_selected(self):
        d = LoadsDelivery(
            name="x", version=1, units=SI_UNITS,
            cases=(
                LoadCase(id=1, loads={"p": ComponentSet(fx=5.0, fy=1.0)}),
                LoadCase(id=2, loads={"p": ComponentSet(fx=0.0, fy=2.0)}),
            ),
        )
        sel = envelope_select(d)
        # case 2 is min on fx at exactly zero: not selected for that, but is fy max
        reasons_2 = sel.reasons[2]
        assert all(r.kind == "max" for r in reasons_2)

    def test_every_selection_has_reasons(self):
        d = generate_fixture(5, 30, ["a", "b", "c"], 4)
        sel = envelope_select(d)
        for cid in sel.selected_case_ids:
            assert sel.reasons[cid]

    @settings(max_examples=150)
    @given(deliveries(max_cases=20, max_points=5))
    def test_matches_brute_force_oracle(self, delivery):
        expected_ids, expected_cells = brute_force_envelope(delivery)
        sel = envelope_select(delivery)
        assert list(sel.selected_case_ids) == expected_ids
        for (point, comp), (mx, mx_id, mn, mn_id) in expected_cells.items():
            cell = sel.extremes.cell(point, comp)
            assert (cell.max_value, cell.max_case, cell.min_value, cell.min_case) == (
                mx, mx_id, mn, mn_id,
            )

    @given(deliveries(max_cases=12, max_points=4))
    def test_selection_sound_and_idempotent(self, delivery):
        sel = envelope_select(delivery)
        assert set(sel.selected_case_ids) <= set(c.id for c in delivery.cases)
        restricted = LoadsDelivery(
            name=delivery.name, version=delivery.version, units=delivery.units,
            cases=tuple(c for c in delivery.cases if c.id in sel.selected_case_ids),
        )
        again = envelope_select(restricted)
        assert again.selected_case_ids == sel.selected_case_ids

    @given(deliveries(max_cases=12, max_points=4))
    def test_selection_invariant_under_uniform_scaling(self, delivery):
        sel = envelope_select(delivery).selected_case_ids
        scaled = envelope_select(apply_ultimate_factor(delivery, 1.5)).selected_case_ids
        assert scaled == sel

    @given(deliveries(max_cases=12, max_points=4, with_units=SI_UNITS))
    def test_selection_invariant_under_unit_conversion(self, delivery):
        sel = envelope_select(delivery).selected_case_ids
        converted = envelope_select(
            convert_units(delivery, UnitSystem("klbf", "klbf·in"))
        ).selected_case_ids
        assert converted == sel

    @given(deliveries(max_cases=12, max_points=4, with_units=SI_UNITS))
    def test_equilibrium_status_invariant_under_transforms(self, delivery):
        # An absolute tolerance floor is unit-bound and cannot survive a
        # change of scale, so invariance is a relative-regime property.
        # Cases whose residual sits within float rounding of the threshold
        # are excluded: the boolean is not defined to one ulp.
        tol = Tolerance(abs=0.0, rel=1e-3)
        base = check_equilibrium_all(delivery, tol=tol).results
        ult = check_equilibrium_all(
            apply_ultimate_factor(delivery, 1.5), tol=tol
        ).results
        conv = check_equilibrium_all(
            convert_units(delivery, UnitSystem("klbf", "klbf·in")), tol=tol
        ).results
        cases = {case.id: case for case in delivery.cases}
        for r0, r1, r2 in zip(base, ult, conv):
            residual = r0.force_residual_magnitude
            threshold = tol.threshold(
                max(abs(v) for cs in cases[r0.case_id].loads.values()
                    for v in (cs.fx, cs.fy, cs.fz))
            )
            if abs(residual - threshold) <= 1e-9 * max(residual, threshold):
                continue
            assert r0.balanced == r1.balanced == r2.balanced
