import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadsmith.analysis import Tolerance, check_equilibrium_all, envelope_select
from loadsmith.model import SI_UNITS, UnitSystem

from fixtures import FixtureError, generate_fixture
from strategies import random_delivery

POINTS7 = ["bearing", "lpt", "lug_left", "lug_right", "nozzle", "plug", "spare"]


class TestGenerateFixture:
    def test_deterministic_in_seed(self):
        a = generate_fixture(42, 30, POINTS7[:4], 5)
        b = generate_fixture(42, 30, POINTS7[:4], 5)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_fixture(1, 10, POINTS7[:3], 2)
        b = generate_fixture(2, 10, POINTS7[:3], 2)
        assert a != b

    def test_case_replay_shape(self):
        d = generate_fixture(42, 100, POINTS7, 6)
        assert len(d.cases) == 100
        assert len(envelope_select(d).selected_case_ids) == 6

    def test_explicit_critical_ids(self):
        d = generate_fixture(9, 100, POINTS7, 6, critical_ids=[2, 20, 34, 61, 92, 99])
        assert envelope_select(d).selected_case_ids == (2, 20, 34, 61, 92, 99)

    def test_single_case(self):
        d = generate_fixture(3, 1, POINTS7[:2], 1)
        assert envelope_select(d).selected_case_ids == (1,)

    def test_single_critical_among_many(self):
        d = generate_fixture(3, 25, POINTS7[:3], 1)
        assert len(envelope_select(d).selected_case_ids) == 1

    def test_units_stamped(self):
        d = generate_fixture(5, 4, POINTS7[:2], 2, units=UnitSystem("klbf", "klbf·in"))
        assert d.units == UnitSystem("klbf", "klbf·in")
        assert d.units != SI_UNITS

    def test_balanced_even_points(self):
        d = generate_fixture(6, 30, POINTS7[:4], 4, balanced=True)
        survey = check_equilibrium_all(d, tol=Tolerance(abs=1e-9, rel=1e-3))
        assert survey.all_balanced
        assert len(envelope_select(d).selected_case_ids) == 4

    def test_balanced_odd_points(self):
        d = generate_fixture(6, 30, POINTS7, 5, balanced=True)
        survey = check_equilibrium_all(d, tol=Tolerance(abs=1e-9, rel=1e-3))
        assert survey.all_balanced
        assert len(envelope_select(d).selected_case_ids) == 5

    def test_balanced_two_critical_triangle(self):
        d = generate_fixture(6, 12, POINTS7[:3], 2, balanced=True)
        assert check_equilibrium_all(d).all_balanced
        assert len(envelope_select(d).selected_case_ids) == 2

    def test_balanced_sums_are_exactly_zero(self):
        d = generate_fixture(13, 10, POINTS7, 4, balanced=True)
        survey = check_equilibrium_all(d, tol=Tolerance(abs=0.0, rel=0.0))
        assert survey.all_balanced

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_cases=0, n_critical=1),
            dict(n_cases=5, n_critical=0),
            dict(n_cases=5, n_critical=6),
        ],
    )
    def test_bad_counts(self, kwargs):
        with pytest.raises(FixtureError):
            generate_fixture(1, kwargs["n_cases"], POINTS7[:2], kwargs["n_critical"])

    def test_balanced_single_critical_infeasible(self):
        with pytest.raises(FixtureError):
            generate_fixture(1, 10, POINTS7[:4], 1, balanced=True)

    def test_balanced_single_point_infeasible(self):
        with pytest.raises(FixtureError):
            generate_fixture(1, 10, ["solo"], 2, balanced=True)

    def test_too_many_critical_for_slots(self):
        # one point has 12 extreme slots; 14 critical cases cannot all own one
        with pytest.raises(FixtureError):
            generate_fixture(1, 20, ["solo"], 14)

    def test_bad_critical_ids(self):
        with pytest.raises(FixtureError):
            generate_fixture(1, 10, POINTS7[:2], 2, critical_ids=[1])
        with pytest.raises(FixtureError):
            generate_fixture(1, 10, POINTS7[:2], 2, critical_ids=[1, 99])

    def test_duplicate_points_rejected(self):
        with pytest.raises(FixtureError):
            generate_fixture(1, 10, ["a", "a"], 2)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_cases=st.integers(min_value=1, max_value=30),
        n_points=st.integers(min_value=1, max_value=6),
        data=st.data(),
    )
    def test_exact_criticality_property(self, seed, n_cases, n_points, data):
        points = POINTS7[:n_points] if n_points <= 7 else POINTS7
        max_critical = min(n_cases, 2 * len(points) * 6)
        n_critical = data.draw(st.integers(min_value=1, max_value=max_critical))
        d = generate_fixture(seed, n_cases, points, n_critical)
        assert len(envelope_select(d).selected_case_ids) == n_critical

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_cases=st.integers(min_value=2, max_value=25),
        n_points=st.integers(min_value=2, max_value=7),
        data=st.data(),
    )
    def test_balanced_property(self, seed, n_cases, n_points, data):
        points = POINTS7[:n_points]
        n_critical = data.draw(st.integers(min_value=2, max_value=min(n_cases, 8)))
        d = generate_fixture(seed, n_cases, points, n_critical, balanced=True)
        assert check_equilibrium_all(d, tol=Tolerance(abs=1e-9, rel=1e-12)).all_balanced
        assert len(envelope_select(d).selected_case_ids) == n_critical


class TestRandomDelivery:
    def test_deterministic(self):
        assert random_delivery(5) == random_delivery(5)

    def test_bounds(self):
        d = random_delivery(6, max_cases=20, max_points=5)
        assert 1 <= len(d.cases) <= 20
        assert 1 <= len(d.cases[0].loads) <= 5

    def test_value_range(self):
        d = random_delivery(7, lo=-100, hi=100)
        for case in d.cases:
            for cs in case.loads.values():
                for comp in ("fx", "fy", "fz", "mx", "my", "mz"):
                    assert -100 <= getattr(cs, comp) <= 100
