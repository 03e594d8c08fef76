import pytest
from hypothesis import given

from loadsmith.compare import (
    compare_envelopes,
    comparison_to_markdown,
    suggested_report_filename,
    write_comparison_report,
)
from loadsmith.errors import LoadsmithError
from loadsmith.model import (
    COMPONENT_ORDER,
    Component,
    EnvelopeExtremes,
    ExtremeCell,
    SI_UNITS,
    UnitSystem,
)

from strategies import envelopes


def envelope_of(max_value, min_value, name="env", version=1, units=SI_UNITS):
    cells = {
        "p": {
            comp: ExtremeCell(max_value=max_value, max_case=1, min_value=min_value, min_case=2)
            for comp in COMPONENT_ORDER
        }
    }
    return EnvelopeExtremes(name=name, version=version, units=units, cells=cells)


def scale_envelope(env, factor):
    cells = {
        point: {
            comp: ExtremeCell(
                max_value=cell.max_value * factor,
                max_case=cell.max_case,
                min_value=cell.min_value * factor,
                min_case=cell.min_case,
            )
            for comp, cell in per_comp.items()
        }
        for point, per_comp in env.cells.items()
    }
    return EnvelopeExtremes(name=env.name, version=env.version, units=env.units, cells=cells)


class TestCompareEnvelopes:
    def test_identity_no_exceedance(self):
        env = envelope_of(10.0, -5.0)
        report = compare_envelopes(env, env)
        assert not report.new_exceeds_old
        for per_comp in report.cells.values():
            for cell in per_comp.values():
                assert cell.max_delta_pct == 0.0
                assert cell.min_delta_pct == 0.0
                assert not cell.max_exceeds and not cell.min_exceeds

    def test_max_grows_15_percent(self):
        # hand arithmetic: new_max = 1.15 x old_max (positive) -> +15%
        old = envelope_of(100.0, -5.0)
        new = envelope_of(115.0, -5.0)
        report = compare_envelopes(new, old)
        cell = report.cells["p"][Component.FX]
        assert cell.max_delta_pct == pytest.approx(15.0)
        assert cell.max_exceeds
        assert report.new_exceeds_old

    def test_negative_min_widens_30_percent(self):
        # hand arithmetic: old_min=-10, new_min=-13 -> magnitude +30%, widening
        old = envelope_of(5.0, -10.0)
        new = envelope_of(5.0, -13.0)
        report = compare_envelopes(new, old)
        cell = report.cells["p"][Component.MZ]
        assert cell.min_delta_pct == pytest.approx(30.0)
        assert cell.min_exceeds

    def test_shrinkage_reports_delta_but_never_flags(self):
        old = envelope_of(100.0, -10.0)
        new = envelope_of(80.0, -4.0)
        report = compare_envelopes(new, old)
        cell = report.cells["p"][Component.FY]
        assert cell.max_delta_pct == pytest.approx(-20.0)
        assert cell.min_delta_pct == pytest.approx(-60.0)
        assert not report.new_exceeds_old

    def test_zero_old_bound_gives_undefined_delta(self):
        old = envelope_of(0.0, 0.0)
        new = envelope_of(1.0, 0.0)
        report = compare_envelopes(new, old)
        cell = report.cells["p"][Component.FX]
        assert cell.max_delta_pct is None
        assert cell.max_exceeds  # the exceeds test still applies

    def test_delta_of_bounds_near_the_float_limit_is_finite(self):
        # Before, 100 times the change overflowed first: both deltas were -inf.
        old = envelope_of(1e308, -1e308)
        new = envelope_of(1e307, 0.0)
        cell = compare_envelopes(new, old).cells["p"][Component.FX]
        assert cell.max_delta_pct == pytest.approx(-90.0)
        assert cell.min_delta_pct == -100.0

    def test_unit_mismatch_rejected(self):
        a = envelope_of(1.0, 0.0, units=SI_UNITS)
        b = envelope_of(1.0, 0.0, units=UnitSystem("klbf", "klbf·in"))
        with pytest.raises(LoadsmithError) as err:
            compare_envelopes(a, b)
        assert err.value.code == "UNIT_MISMATCH"

    def test_point_set_mismatch_rejected(self):
        a = envelope_of(1.0, 0.0)
        b = EnvelopeExtremes(
            name="env", version=1, units=SI_UNITS,
            cells={"other": a.cells["p"]},
        )
        with pytest.raises(LoadsmithError) as err:
            compare_envelopes(a, b)
        assert err.value.code == "POINT_SET_MISMATCH"

    @given(envelopes())
    def test_reflexivity(self, env):
        assert not compare_envelopes(env, env).new_exceeds_old

    @given(envelopes())
    def test_antisymmetry_of_strict_widening(self, env_a):
        env_b = scale_envelope(env_a, 0.5)
        forward = compare_envelopes(env_a, env_b)
        backward = compare_envelopes(env_b, env_a)
        for point in forward.cells:
            for comp in COMPONENT_ORDER:
                f, b = forward.cells[point][comp], backward.cells[point][comp]
                assert not (f.max_exceeds and b.max_exceeds)
                assert not (f.min_exceeds and b.min_exceeds)

    @given(envelopes(positive_max=True))
    def test_monotone_widening_under_inflation(self, old):
        # bounds straddle zero, so a uniform factor moves both away from zero
        new = scale_envelope(old, 1.02)
        inflated = scale_envelope(new, 1.1)
        before = compare_envelopes(new, old)
        after = compare_envelopes(inflated, old)
        for point in before.cells:
            for comp in COMPONENT_ORDER:
                b, a = before.cells[point][comp], after.cells[point][comp]
                if b.max_exceeds:
                    assert a.max_exceeds
                if b.min_exceeds:
                    assert a.min_exceeds


class TestComparisonSerialization:
    def test_example_cell_rendering(self):
        old = envelope_of(100.0, -5.0)
        new = envelope_of(115.0, -5.0)
        text = write_comparison_report(compare_envelopes(new, old))
        assert '"max_delta_pct": 15.0' in text

    def test_identity_renders_false(self):
        env = envelope_of(1.0, -1.0)
        text = write_comparison_report(compare_envelopes(env, env))
        assert '"new_exceeds_old": false' in text

    def test_suggested_filename_uses_versions(self):
        old = envelope_of(1.0, 0.0, version=1)
        new = envelope_of(2.0, 0.0, version=2)
        assert suggested_report_filename(compare_envelopes(new, old)) == "v1_vs_v2.json"

    def test_markdown_summary(self):
        old = envelope_of(100.0, -10.0, name="loads", version=1)
        new = envelope_of(115.0, -13.0, name="loads", version=2)
        md = comparison_to_markdown(compare_envelopes(new, old))
        assert "New exceeds old: yes" in md
        assert "+15.00%" in md
        assert "+30.00%" in md

    @pytest.mark.parametrize("field", ["new_name", "old_name", "point"])
    def test_markdown_refuses_text_spanning_lines(self, field):
        # Before, the text's second line was written as a line of its own.
        text = "v2\nNew exceeds old: no"
        report = compare_envelopes(envelope_of(2.0, 0.0), envelope_of(1.0, 0.0))
        if field == "point":
            report = report._replace(cells={text: report.cells["p"]})
        else:
            report = report._replace(**{field: text})
        with pytest.raises(LoadsmithError) as err:
            comparison_to_markdown(report)
        assert err.value.code == "BAD_LABEL"
        assert repr(text) in str(err.value)
