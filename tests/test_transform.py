import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loadsmith.errors import LoadsmithError
from loadsmith.model import (
    COMPONENT_ORDER,
    FORCE_TO_N,
    MOMENT_TO_NM,
    Component,
    ComponentSet,
    LoadCase,
    LoadsDelivery,
    SI_UNITS,
    UnitSystem,
)
from loadsmith.transform import (
    apply_ultimate_factor,
    convert_units,
    rename_points,
    scale_component,
    verify_coordinate_system,
)

from fixtures import generate_fixture
from strategies import deliveries, unit_systems, wide_floats


@pytest.fixture
def hundred_case_fixture():
    points = ["bearing", "lpt", "lug_left", "lug_right", "nozzle", "plug", "spare"]
    return generate_fixture(11, 100, points, 6)


class TestRenamePoints:
    def test_two_renames_on_hundred_cases_counts_200(self, hundred_case_fixture):
        renamed, count = rename_points(
            hundred_case_fixture,
            {"lug_left": "lug_port", "lug_right": "lug_starboard"},
        )
        assert count == 200
        first = renamed.cases[0]
        assert "lug_port" in first.loads and "lug_left" not in first.loads

    def test_empty_map_is_identity(self, hundred_case_fixture):
        renamed, count = rename_points(hundred_case_fixture, {})
        assert count == 0
        assert renamed == hundred_case_fixture

    def test_failsafe_rename(self):
        d = LoadsDelivery(
            name="x", version=1, units=SI_UNITS,
            cases=(LoadCase(id=1, loads={"lug_fairlead": ComponentSet(fx=1.0)}),),
        )
        renamed, count = rename_points(d, {"lug_fairlead": "lug_failsafe"})
        assert count == 1
        assert renamed.cases[0].loads["lug_failsafe"].fx == 1.0

    def test_unknown_old_name(self, hundred_case_fixture):
        with pytest.raises(LoadsmithError) as err:
            rename_points(hundred_case_fixture, {"no_such": "other"})
        assert err.value.code == "UNKNOWN_POINT"

    def test_collision_with_existing(self, hundred_case_fixture):
        with pytest.raises(LoadsmithError) as err:
            rename_points(hundred_case_fixture, {"lug_left": "bearing"})
        assert err.value.code == "RENAME_COLLISION"

    def test_non_injective_map(self, hundred_case_fixture):
        with pytest.raises(LoadsmithError):
            rename_points(hundred_case_fixture, {"lug_left": "new", "lug_right": "new"})

    def test_swap_is_allowed(self, hundred_case_fixture):
        before = hundred_case_fixture.cases[0]
        renamed, _ = rename_points(
            hundred_case_fixture, {"lug_left": "lug_right", "lug_right": "lug_left"}
        )
        after = renamed.cases[0]
        assert after.loads["lug_right"] == before.loads["lug_left"]
        assert after.loads["lug_left"] == before.loads["lug_right"]

    def test_coordinates_renamed_too(self):
        d = LoadsDelivery(
            name="x", version=1, units=SI_UNITS,
            cases=(LoadCase(id=1, loads={"a": ComponentSet()}),),
            point_coordinates={"a": (1.0, 2.0, 3.0)},
        )
        renamed, count = rename_points(d, {"a": "b"})
        assert count == 1
        assert renamed.point_coordinates == {"b": (1.0, 2.0, 3.0)}

    @given(deliveries())
    def test_values_untouched(self, delivery):
        points = sorted(delivery.cases[0].loads)
        mapping = {points[0]: "renamed_point_zz"}
        renamed, _ = rename_points(delivery, mapping)
        for before, after in zip(delivery.cases, renamed.cases):
            assert Counter(before.loads.values()) == Counter(after.loads.values())

    @given(deliveries())
    def test_input_not_modified(self, delivery):
        snapshot = delivery.cases[0].loads.copy()
        rename_points(delivery, {sorted(snapshot)[0]: "zz_new"})
        assert delivery.cases[0].loads == snapshot


class TestScaleComponent:
    def test_fx_correction_touches_only_fx(self):
        case = LoadCase(id=1, loads={"a": ComponentSet(10.0, 2.0, 3.0, 4.0, 5.0, 6.0)})
        d = LoadsDelivery(name="x", version=1, units=SI_UNITS, cases=(case,))
        scaled = scale_component(d, Component.FX, 1.04)
        got = scaled.cases[0].loads["a"]
        assert got.fx == pytest.approx(10.4)
        assert (got.fy, got.fz, got.mx, got.my, got.mz) == (2.0, 3.0, 4.0, 5.0, 6.0)

    def test_identity_factor(self, two_point_delivery):
        assert scale_component(two_point_delivery, Component.FX, 1.0) == two_point_delivery

    def test_product_overflow_refused(self):
        cases = (
            LoadCase(id=1, loads={"a": ComponentSet(fx=1.0)}),
            LoadCase(id=2, loads={"a": ComponentSet(), "b": ComponentSet(fx=1e300)}),
        )
        d = LoadsDelivery(name="x", version=1, units=UnitSystem("klbf", "klbf·in"), cases=cases)
        for overflow in (
            lambda: scale_component(d, Component.FX, 1e10),
            lambda: apply_ultimate_factor(d, 1e10),
            lambda: convert_units(scale_component(d, Component.FX, 1e8), SI_UNITS),
        ):
            with pytest.raises(LoadsmithError, match="^fx must be finite") as err:
                overflow()
            assert err.value.code == "SCALE_OVERFLOW"
            assert err.value.location == "load_cases[1].point_loads.b.fx"

    @pytest.mark.parametrize("bad", [0.0, -1.5, math.nan, math.inf])
    def test_bad_factors_rejected(self, two_point_delivery, bad):
        with pytest.raises(LoadsmithError):
            scale_component(two_point_delivery, Component.FX, bad)

    @given(
        deliveries(),
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=0.1, max_value=10),
    )
    def test_composition(self, delivery, a, b):
        twice = scale_component(scale_component(delivery, Component.MY, a), Component.MY, b)
        once = scale_component(delivery, Component.MY, a * b)
        for c1, c2 in zip(twice.cases, once.cases):
            for point in c1.loads:
                v1 = c1.loads[point].my
                v2 = c2.loads[point].my
                assert v1 == pytest.approx(v2, rel=1e-15, abs=1e-300)


class TestUltimateFactor:
    def test_default_is_1_5(self):
        case = LoadCase(id=1, loads={"a": ComponentSet(fx=2.0, my=-4.0)})
        d = LoadsDelivery(name="x", version=1, units=SI_UNITS, cases=(case,))
        ultimate = apply_ultimate_factor(d)
        got = ultimate.cases[0].loads["a"]
        assert got.fx == 3.0
        assert got.my == -6.0

    def test_identity(self, two_point_delivery):
        assert apply_ultimate_factor(two_point_delivery, 1.0) == two_point_delivery

    def test_scales_every_component(self, two_point_delivery):
        ultimate = apply_ultimate_factor(two_point_delivery, 2.0)
        for before, after in zip(two_point_delivery.cases, ultimate.cases):
            for point in before.loads:
                for comp in COMPONENT_ORDER:
                    assert after.loads[point].value(comp) == 2.0 * before.loads[point].value(comp)


class TestConvertUnits:
    def test_klbf_to_newton_spot_value(self):
        # oracle: product of the exact definitions 0.45359237 x 9.80665 x 1000
        assert FORCE_TO_N["klbf"] == pytest.approx(4448.2216152605, abs=0.0)
        d = LoadsDelivery(
            name="x", version=1, units=UnitSystem("klbf", "klbf·in"),
            cases=(LoadCase(id=1, loads={"a": ComponentSet(fx=1.0)}),),
        )
        converted = convert_units(d, SI_UNITS)
        assert converted.cases[0].loads["a"].fx == pytest.approx(4448.2216152605, abs=1e-8)
        assert converted.units == SI_UNITS

    def test_klbf_in_to_newton_meter_spot_value(self):
        # oracle: 4448.2216152605 x 0.0254 computed independently
        assert MOMENT_TO_NM["klbf·in"] == pytest.approx(112.98482903, abs=1e-8)
        d = LoadsDelivery(
            name="x", version=1, units=UnitSystem("klbf", "klbf·in"),
            cases=(LoadCase(id=1, loads={"a": ComponentSet(mx=1.0)}),),
        )
        converted = convert_units(d, SI_UNITS)
        assert converted.cases[0].loads["a"].mx == pytest.approx(112.98482903, abs=1e-8)

    def test_identity_conversion_bit_equal(self, two_point_delivery):
        converted = convert_units(two_point_delivery, SI_UNITS)
        assert converted == two_point_delivery

    @given(deliveries(with_units=SI_UNITS))
    def test_round_trip_within_1e12(self, delivery):
        imperial = UnitSystem("klbf", "klbf·in")
        back = convert_units(convert_units(delivery, imperial), SI_UNITS)
        for before, after in zip(delivery.cases, back.cases):
            for point in before.loads:
                for comp in COMPONENT_ORDER:
                    v0 = before.loads[point].value(comp)
                    v1 = after.loads[point].value(comp)
                    assert v1 == pytest.approx(v0, rel=1e-12, abs=1e-300)


def per_value_scaled(delivery, factors):
    """``(delivery with each value times its component's factor, None)``, one
    multiply per value in case, point and component order; or ``(None,
    location)`` for the first product that is not finite."""
    cases = []
    for index, case in enumerate(delivery.cases):
        loads = {}
        for point, row in case.loads.items():
            products = []
            for comp, value, factor in zip(COMPONENT_ORDER, row, factors):
                product = value * factor
                if not math.isfinite(product):
                    return None, f"load_cases[{index}].point_loads.{point}.{comp.value}"
                products.append(product)
            loads[point] = ComponentSet(*products)
        cases.append(LoadCase(id=case.id, label=case.label, loads=loads))
    return delivery._replace(cases=tuple(cases)), None


def assert_scales_as_per_value(scale, delivery, factors):
    """``scale()`` prints as the per-value reference's delivery, or refuses
    SCALE_OVERFLOW at the reference's location."""
    expected, location = per_value_scaled(delivery, factors)
    if location is None:
        assert repr(scale()) == repr(expected)
    else:
        with pytest.raises(LoadsmithError) as err:
            scale()
        assert (err.value.code, err.value.location) == ("SCALE_OVERFLOW", location)


class TestScaleMatchesPerValueMultiply:
    @given(
        deliveries(values=wide_floats),
        st.sampled_from(COMPONENT_ORDER),
        st.floats(min_value=1e-3, max_value=1e10),
    )
    def test_scale_component(self, delivery, component, factor):
        factors = tuple(factor if c is component else 1.0 for c in COMPONENT_ORDER)
        assert_scales_as_per_value(lambda: scale_component(delivery, component, factor), delivery, factors)

    @given(deliveries(values=wide_floats), unit_systems)
    def test_convert_units(self, delivery, target):
        force = FORCE_TO_N[delivery.units.force_unit] / FORCE_TO_N[target.force_unit]
        moment = MOMENT_TO_NM[delivery.units.moment_unit] / MOMENT_TO_NM[target.moment_unit]
        factors = (force, force, force, moment, moment, moment)
        expected_units = delivery._replace(units=target)
        assert_scales_as_per_value(lambda: convert_units(delivery, target), expected_units, factors)


class TestVerifyCoordinateSystem:
    def test_match(self):
        d = LoadsDelivery(
            name="x", version=1, units=SI_UNITS, coordinate_system="engine_cs",
            cases=(LoadCase(id=1, loads={"a": ComponentSet()}),),
        )
        check = verify_coordinate_system(d, "engine_cs")
        assert check.status == "match" and check.ok

    def test_match_is_case_insensitive_and_trimmed(self):
        d = LoadsDelivery(
            name="x", version=1, units=SI_UNITS, coordinate_system="  Engine_CS ",
            cases=(LoadCase(id=1, loads={"a": ComponentSet()}),),
        )
        assert verify_coordinate_system(d, "engine_cs").ok

    def test_mismatch_reports_found_label(self):
        d = LoadsDelivery(
            name="x", version=1, units=SI_UNITS, coordinate_system="oem_cs_b",
            cases=(LoadCase(id=1, loads={"a": ComponentSet()}),),
        )
        check = verify_coordinate_system(d, "engine_cs")
        assert check.status == "mismatch"
        assert check.found == "oem_cs_b"

    def test_unlabeled(self, two_point_delivery):
        assert verify_coordinate_system(two_point_delivery, "engine_cs").status == "unlabeled"
