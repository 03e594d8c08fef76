"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (visible under ``pytest -s tests/test_acceptance.py``).

Tolerances and limits are pinned here, in the tests, not in configuration.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from pathlib import Path

import pytest

from loadsmith.analysis import Tolerance, check_equilibrium_all, envelope_extremes, envelope_select
from loadsmith.cli import main as cli_main
from loadsmith.compare import compare_envelopes, write_comparison_report
from loadsmith.docserver import handle_line, load_catalog
from loadsmith.evalkit.passk import min_k_for, pass_lower_bound
from loadsmith.evalkit.runner import run_scenario
from loadsmith.evalkit.scenario import load_scenario
from loadsmith.export import envelope_to_markdown, write_ansys_inp, write_envelope_json
from loadsmith.ingest import parse_delivery
from loadsmith.model import (
    COMPONENT_ORDER,
    Component,
    ComponentSet,
    EnvelopeExtremes,
    ExtremeCell,
    LoadCase,
    LoadsDelivery,
    SI_UNITS,
    UnitSystem,
)
from loadsmith.transform import convert_units, rename_points

from conftest import CATALOG_DIR, GOLDENS_DIR, REPO_ROOT, SCENARIOS_DIR
from fixtures import generate_fixture, scale_all
import micro_cases
from strategies import random_delivery

REPLAY_POINTS = ["bearing", "lpt", "lug_fairlead", "lug_left", "lug_right", "nozzle", "plug"]
REPLAY_IDS = [2, 20, 34, 61, 92, 99]


@contextlib.contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({time.perf_counter() - start:.2f}s)")


def cli_run(*argv: str) -> tuple[int, object]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    text = out.getvalue()
    return code, json.loads(text) if text.strip() else None


def brute_force_envelope(delivery):
    """Independent oracle over all (point, component, case) triples."""
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


def test_criterion_1_pass_k_table():
    with criterion(1, "pass^k table reproduction"):
        start = time.perf_counter()
        assert min_k_for(0.50, 0.05) == 5
        assert min_k_for(0.90, 0.05) == 29
        assert min_k_for(0.99, 0.05) == 299
        assert pass_lower_bound(29, 0.05) >= 0.90
        assert pass_lower_bound(28, 0.05) < 0.90
        assert time.perf_counter() - start < 1.0


def test_criterion_2_envelope_oracle_equivalence():
    with criterion(2, "envelope oracle equivalence (500 seeds)"):
        start = time.perf_counter()
        for seed in range(500):
            delivery = random_delivery(seed, max_cases=20, max_points=5, lo=-100, hi=100)
            expected_ids, expected_cells = brute_force_envelope(delivery)
            sel = envelope_select(delivery)
            assert list(sel.selected_case_ids) == expected_ids
            for (point, comp), (mx, mx_id, mn, mn_id) in expected_cells.items():
                cell = sel.extremes.cell(point, comp)
                assert (cell.max_value, cell.max_case, cell.min_value, cell.min_case) == (
                    mx, mx_id, mn, mn_id,
                )
        assert time.perf_counter() - start < 10.0


def _run_cli_pipeline(work: Path) -> dict[str, bytes]:
    """The full replay pipeline through the CLI; returns content-file bytes."""
    src = SCENARIOS_DIR / "inputs"
    code, _ = cli_run(
        "convert", str(src / "OEM_loads_v2.yaml"), "--to", "json",
        "--out", str(work / "delivery.json"),
    )
    assert code == 0
    code, out = cli_run(
        "transform", str(work / "delivery.json"),
        "--rename", "lug_left=lug_port",
        "--rename", "lug_right=lug_starboard",
        "--rename", "lug_fairlead=lug_failsafe",
        "--scale", "FX=1.04",
        "--units", "N,N·m",
        "--out", str(work / "processed.json"),
    )
    assert code == 0
    code, out = cli_run("envelope", str(work / "processed.json"), "--out-dir", str(work))
    assert code == 0
    assert out["selected_case_ids"] == REPLAY_IDS
    code, out = cli_run(
        "export-ansys", str(work / "processed.json"),
        "--select", ",".join(map(str, REPLAY_IDS)),
        "--node-map", str(src / "node_map.json"),
        "--exclude", "bearing",
        "--out-dir", str(work / "limit_loads"),
    )
    assert code == 0
    assert len(out["written"]) == 6
    code, out = cli_run(
        "compare", str(work / "envelope_extremes.json"),
        str(src / "previous_run_envelope_extremes.json"),
        "--out", str(work / "comparison_report" / "v1_vs_v2.json"),
    )
    assert code == 3  # exceedance signal, distinct from failure
    assert out["new_exceeds_old"] is True

    contents = {}
    for path in sorted(work.rglob("*")):
        if path.is_file() and not path.name.endswith(".ndjson"):
            contents[str(path.relative_to(work))] = path.read_bytes()
    return contents


def test_criterion_3_case_replay_pipeline(tmp_path):
    with criterion(3, "case replay: 10 byte-identical CLI runs"):
        start = time.perf_counter()

        # the staged OEM file is the fixed-seed fixture (imperial, left/right)
        staged = parse_delivery((SCENARIOS_DIR / "inputs" / "OEM_loads_v2.yaml").read_bytes())
        regenerated = generate_fixture(
            2099, 100, REPLAY_POINTS, 6,
            critical_ids=REPLAY_IDS,
            units=UnitSystem("klbf", "klbf·in"),
            balanced=True,
            coordinate_system="engine_cs",
            name="Engine Mount Balanced Loads v2",
            version=2,
        )
        assert staged == regenerated

        baseline = None
        for attempt in range(10):
            contents = _run_cli_pipeline_dir(tmp_path, attempt)
            deck_names = sorted(n for n in contents if n.endswith(".inp"))
            assert deck_names == [f"limit_loads/limit_load_{i}.inp" for i in REPLAY_IDS]
            assert "envelope.md" in contents
            assert "envelope_extremes.json" in contents
            assert "comparison_report/v1_vs_v2.json" in contents
            if baseline is None:
                baseline = contents
            else:
                assert contents == baseline  # byte-identical across repeats
        assert time.perf_counter() - start < 30.0


def _run_cli_pipeline_dir(tmp_path: Path, attempt: int) -> dict[str, bytes]:
    work = tmp_path / f"run_{attempt}"
    work.mkdir()
    return _run_cli_pipeline(work)


def test_criterion_4_rename_accounting():
    with criterion(4, "rename accounting (200 renames)"):
        fixture = generate_fixture(2099, 100, REPLAY_POINTS, 6, critical_ids=REPLAY_IDS)
        _, count = rename_points(
            fixture, {"lug_left": "lug_port", "lug_right": "lug_starboard"}
        )
        assert count == 200


def test_criterion_5_unit_round_trip():
    with criterion(5, "unit round trip (10,000 values, 1e-12 rel)"):
        rng = random.Random(77)
        points = [f"p{i}" for i in range(7)]
        cases = tuple(
            LoadCase(
                id=cid,
                loads={
                    p: ComponentSet(*(rng.uniform(-1e6, 1e6) for _ in range(6)))
                    for p in points
                },
            )
            for cid in range(1, 251)
        )
        delivery = LoadsDelivery(name="bulk", version=1, units=SI_UNITS, cases=cases)
        n_values = len(cases) * len(points) * 6
        assert n_values >= 10_000

        imperial = UnitSystem("klbf", "klbf·in")
        back = convert_units(convert_units(delivery, imperial), SI_UNITS)
        for before, after in zip(delivery.cases, back.cases):
            for p in points:
                for comp in COMPONENT_ORDER:
                    v0 = before.loads[p].value(comp)
                    v1 = after.loads[p].value(comp)
                    assert abs(v1 - v0) <= 1e-12 * abs(v0)

        # spot values from the exact definition products
        one_klbf = LoadsDelivery(
            name="spot", version=1, units=imperial,
            cases=(LoadCase(id=1, loads={"p": ComponentSet(fx=1.0, mx=1.0)}),),
        )
        si = convert_units(one_klbf, SI_UNITS)
        assert si.cases[0].loads["p"].fx == pytest.approx(4448.2216152605, abs=1e-8)
        assert si.cases[0].loads["p"].mx == pytest.approx(112.98482903, abs=1e-8)


def test_criterion_6_selection_invariance():
    with criterion(6, "selection invariance (100 deliveries)"):
        imperial = UnitSystem("klbf", "klbf·in")
        for seed in range(100):
            delivery = random_delivery(seed + 10_000)
            selected = envelope_select(delivery).selected_case_ids
            assert envelope_select(scale_all(delivery, 1.5)).selected_case_ids == selected
            assert envelope_select(convert_units(delivery, imperial)).selected_case_ids == selected
            restricted = LoadsDelivery(
                name=delivery.name, version=delivery.version, units=delivery.units,
                cases=tuple(c for c in delivery.cases if c.id in selected),
            )
            assert envelope_select(restricted).selected_case_ids == selected


def test_criterion_7_equilibrium():
    with criterion(7, "equilibrium: balance, perturbation, linearity"):
        tol = Tolerance(abs=1e-9, rel=1e-3)
        points = ["bearing", "lpt", "lug_left", "lug_right", "nozzle", "plug", "plug_b"]
        for seed in (1, 2, 3):
            balanced = generate_fixture(seed, 50, points, 4, balanced=True)
            assert check_equilibrium_all(balanced, tol=tol).all_balanced

        # 1% on the largest |fx| of one case must break that case only
        fixture = generate_fixture(4, 50, points, 4, balanced=True)
        victim = fixture.cases[7]
        point = max(victim.loads, key=lambda p: abs(victim.loads[p].fx))
        loads = dict(victim.loads)
        cs = loads[point]
        loads[point] = ComponentSet(cs.fx * 1.01, cs.fy, cs.fz, cs.mx, cs.my, cs.mz)
        cases = list(fixture.cases)
        cases[7] = LoadCase(id=victim.id, label=victim.label, loads=loads)
        perturbed = LoadsDelivery(
            name=fixture.name, version=fixture.version, units=fixture.units, cases=tuple(cases)
        )
        survey = check_equilibrium_all(perturbed, tol=tol)
        assert [r.case_id for r in survey.results if not r.balanced] == [victim.id]

        # residual scales linearly with the ultimate factor
        for seed in range(20):
            delivery = random_delivery(seed + 500, max_cases=10, max_points=4)
            base = check_equilibrium_all(delivery).results
            scaled = check_equilibrium_all(scale_all(delivery, 1.5)).results
            for r0, r1 in zip(base, scaled):
                for v0, v1 in zip(r0.force_residual, r1.force_residual):
                    assert abs(v1 - 1.5 * v0) <= max(1e-12 * abs(1.5 * v0), 1e-9)


def _random_envelope(rng: random.Random, positive_max: bool) -> EnvelopeExtremes:
    points = [f"p{i}" for i in range(rng.randint(1, 4))]
    cells = {}
    for point in points:
        per_comp = {}
        for comp in COMPONENT_ORDER:
            if positive_max:
                max_v = rng.uniform(0.5, 100.0)
                min_v = rng.uniform(-100.0, -0.5)
            else:
                a, b = rng.uniform(-100, 100), rng.uniform(-100, 100)
                min_v, max_v = min(a, b), max(a, b)
            per_comp[comp] = ExtremeCell(
                max_value=max_v, max_case=rng.randint(1, 9),
                min_value=min_v, min_case=rng.randint(1, 9),
            )
        cells[point] = per_comp
    return EnvelopeExtremes(name="rand", version=1, units=SI_UNITS, cells=cells)


def _scale_envelope(env: EnvelopeExtremes, factor: float) -> EnvelopeExtremes:
    cells = {
        point: {
            comp: ExtremeCell(
                max_value=cell.max_value * factor, max_case=cell.max_case,
                min_value=cell.min_value * factor, min_case=cell.min_case,
            )
            for comp, cell in per_comp.items()
        }
        for point, per_comp in env.cells.items()
    }
    return EnvelopeExtremes(name=env.name, version=env.version, units=env.units, cells=cells)


def test_criterion_8_exceedance_properties():
    with criterion(8, "exceedance: reflexivity and monotone widening"):
        rng = random.Random(123)
        for _ in range(100):
            env = _random_envelope(rng, positive_max=False)
            assert not compare_envelopes(env, env).new_exceeds_old

        # bounds straddle zero so x1.1 moves both bounds away from zero
        for _ in range(100):
            old = _random_envelope(rng, positive_max=True)
            new = _scale_envelope(old, rng.uniform(0.8, 1.2))
            inflated = _scale_envelope(new, 1.1)
            before = compare_envelopes(new, old)
            after = compare_envelopes(inflated, old)
            for point in before.cells:
                for comp in COMPONENT_ORDER:
                    b = before.cells[point][comp]
                    a = after.cells[point][comp]
                    if b.max_exceeds:
                        assert a.max_exceeds
                    if b.min_exceeds:
                        assert a.min_exceeds


def test_criterion_9_golden_files():
    with criterion(9, "golden files byte-exact"):
        single = micro_cases.micro_single()
        pair = micro_cases.micro_pair()
        imperial = micro_cases.micro_imperial()
        ext1 = envelope_extremes(single)
        ext2 = envelope_extremes(pair)
        ext3 = envelope_extremes(imperial)
        expected = {
            "micro_single_case1.inp": write_ansys_inp(
                single.cases[0], micro_cases.MICRO_SINGLE_NODES
            ),
            "micro_single_envelope.md": envelope_to_markdown(ext1),
            "micro_single_extremes.json": write_envelope_json(ext1),
            "micro_single_comparison.json": write_comparison_report(
                compare_envelopes(ext1, ext1)
            ),
            "micro_pair_case3.inp": write_ansys_inp(
                pair.cases[2], micro_cases.MICRO_PAIR_NODES, exclude={"bearing"}
            ),
            "micro_pair_envelope.md": envelope_to_markdown(ext2),
            "micro_pair_extremes.json": write_envelope_json(ext2),
            "micro_pair_comparison.json": write_comparison_report(
                compare_envelopes(
                    ext2, envelope_extremes(micro_cases.micro_pair_shrunk())
                )
            ),
            "micro_imperial_case4.inp": write_ansys_inp(
                imperial.cases[0], micro_cases.MICRO_IMPERIAL_NODES
            ),
            "micro_imperial_envelope.md": envelope_to_markdown(ext3),
            "micro_imperial_extremes.json": write_envelope_json(ext3),
            "micro_imperial_comparison.json": write_comparison_report(
                compare_envelopes(
                    envelope_extremes(micro_cases.micro_imperial_grown()), ext3
                )
            ),
        }
        for name, text in expected.items():
            golden = (GOLDENS_DIR / name).read_bytes()
            assert text.encode("utf-8") == golden, f"golden mismatch: {name}"


def test_criterion_10_docserver_conformance():
    with criterion(10, "docserver golden session"):
        requests = (GOLDENS_DIR / "docserver_requests.txt").read_text(encoding="utf-8")
        expected = (GOLDENS_DIR / "docserver_responses.txt").read_bytes()
        catalog = load_catalog(CATALOG_DIR)
        responses = [handle_line(catalog, line) for line in requests.splitlines()]
        got = ("\n".join(r for r in responses if r is not None) + "\n").encode("utf-8")
        assert got == expected


def test_criterion_11_harness_end_to_end(tmp_path):
    with criterion(11, "harness end-to-end: replay scenario"):
        good = run_scenario(
            load_scenario(SCENARIOS_DIR / "case_replay.json"), tmp_path / "good"
        )
        assert good.passes == 3, "; ".join(
            f"run {run.run_index}: {run.reason}" for run in good.runs if not run.passed
        )
        assert good.pass_hat_k
        assert good.infrastructure_failures == 0
        assert good.lower_bound == pytest.approx(0.05 ** (1 / 3))


ALL_CHECKS = ("numeric_file_compare", "file_set", "text_golden", "judge")

# The negative controls of case-replay: each is a one-line edit of the staged
# replay, with the start of the reason its run fails for (the first failing
# check, or the CLI step that refused), the error code that step wrote, and
# the kinds of the checks that fail, in verdict order.
NEGATIVE_CONTROLS = {
    "without the FX correction": (
        '"FX=1.04"', '"FX=1.0"',
        "numeric_file_compare check failed: $.extremes.bearing.FX.max: ", None,
        ("numeric_file_compare", "text_golden", "judge"),
    ),
    "bearing left in the decks": (
        '        "--exclude", "bearing",\n', "", "judge check failed: ", None, ("judge",),
    ),
    "lug_left not renamed": (
        '        "--rename", "lug_left=lug_port",\n', "",
        "exit status 2: export-ansys failed", "UNMAPPED_POINT", ALL_CHECKS,
    ),
    "units not converted": (
        '        "--units", "N,N·m",\n', "",
        "exit status 2: export-ansys failed", "NON_SI_EXPORT", ALL_CHECKS,
    ),
}


@pytest.mark.parametrize("control", NEGATIVE_CONTROLS)
def test_criterion_11_negative_controls(tmp_path, control):
    old, new, reason, code, failing = NEGATIVE_CONTROLS[control]
    with criterion(11, f"harness negative control: {control}"):
        text = (SCENARIOS_DIR / "inputs" / "replay_case.py").read_text(encoding="utf-8")
        assert text.count(old) == 1
        replay = tmp_path / "replay_case.py"
        replay.write_text(text.replace(old, new), encoding="utf-8")
        scenario = load_scenario(SCENARIOS_DIR / "case_replay.json")
        stage = tuple(
            item._replace(source=str(replay)) if item.dest == replay.name else item
            for item in scenario.environment.stage
        )
        scenario = scenario._replace(environment=scenario.environment._replace(stage=stage))

        (run,) = run_scenario(scenario, tmp_path / "runs", k=1).runs
        assert not run.passed and run.infrastructure_error is None
        assert run.reason.startswith(reason), run.reason
        failed = [v for v in run.verdicts if not v.passed]
        assert tuple(v.kind for v in failed) == failing
        if run.exit_status == 0:  # the reason is the first failing check's first finding
            first = failed[0]
            assert run.reason == f"{first.kind} check failed: {(first.diffs or (first.rationale,))[0]}"
        if code is not None:
            events = (tmp_path / "runs" / run.trace).read_text(encoding="utf-8").splitlines()
            (exec_event,) = [e for e in map(json.loads, events) if e["event"] == "exec"]
            assert f'"code": "{code}"' in exec_event["stderr"], exec_event["stderr"]
