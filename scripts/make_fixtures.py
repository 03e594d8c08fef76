#!/usr/bin/env python3
"""Regenerate checked-in scenario inputs, references and golden files.

Everything written here is deterministic; re-running on an unchanged
codebase must be a no-op byte for byte. Run from the repository root:

    python3 scripts/make_fixtures.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import yaml

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))

from loadsmith.analysis import envelope_extremes, envelope_select
from loadsmith.compare import compare_envelopes, write_comparison_report
from loadsmith.docserver import handle_line, load_catalog
from loadsmith.export import envelope_to_markdown, write_ansys_inp, write_envelope_json
from loadsmith.ingest import write_delivery_json
from loadsmith.model import Component, EnvelopeExtremes, ExtremeCell, SI_UNITS, UnitSystem
from loadsmith.transform import convert_units, rename_points, scale_component

import micro_cases
from fixtures import generate_fixture

SCENARIOS = REPO / "scenarios"
INPUTS = SCENARIOS / "inputs"
REFERENCES = SCENARIOS / "references"
GOLDENS = REPO / "tests" / "goldens"
CATALOG = REPO / "catalog"

REPLAY_SEED = 2099
REPLAY_POINTS = ["bearing", "lpt", "lug_fairlead", "lug_left", "lug_right", "nozzle", "plug"]
REPLAY_CRITICAL_IDS = [2, 20, 34, 61, 92, 99]
NODE_MAP = {
    "bearing": 1001,
    "lpt": 1002,
    "lug_failsafe": 1003,
    "lug_port": 1004,
    "lug_starboard": 1005,
    "nozzle": 1006,
    "plug": 1007,
}

RUBRIC = "\n".join(
    [
        "# deviation handling rules for the v2 processing script",
        "require: lug_left.*lug_port",
        "require: lug_right.*lug_starboard",
        "require: FX_CORRECTION = 1\\.04",
        "require: convert_units",
        "require: bearing",
    ]
)


def write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")
    print(f"wrote {path.relative_to(REPO)}")


def build_replay_delivery():
    return generate_fixture(
        REPLAY_SEED,
        100,
        REPLAY_POINTS,
        6,
        critical_ids=REPLAY_CRITICAL_IDS,
        units=UnitSystem("klbf", "klbf·in"),
        balanced=True,
        coordinate_system="engine_cs",
        name="Engine Mount Balanced Loads v2",
        version=2,
    )


def replay_yaml_text(delivery) -> str:
    # Ship the OEM file with its field spellings of the imperial units; the
    # parser normalizes the aliases back to the canonical tokens.
    data = json.loads(write_delivery_json(delivery))
    data["units"] = {"force": "klbs", "moment": "klbs.in"}
    return yaml.safe_dump(data, sort_keys=False, allow_unicode=True, default_flow_style=False)


def processed_envelope(delivery) -> EnvelopeExtremes:
    """Mirror the pipeline script: rename -> fx correction -> SI conversion."""
    renamed, _ = rename_points(
        delivery,
        {
            "lug_left": "lug_port",
            "lug_right": "lug_starboard",
            "lug_fairlead": "lug_failsafe",
        },
    )
    corrected = scale_component(renamed, Component.FX, 1.04)
    converted = convert_units(corrected, SI_UNITS)
    return envelope_select(converted).extremes


def shrunken_previous(extremes: EnvelopeExtremes) -> EnvelopeExtremes:
    """A v1 envelope strictly inside the v2 one (every bound pulled 10% toward zero)."""
    cells = {
        point: {
            comp: ExtremeCell(
                max_value=cell.max_value * 0.9,
                max_case=cell.max_case,
                min_value=cell.min_value * 0.9,
                min_case=cell.min_case,
            )
            for comp, cell in per_comp.items()
        }
        for point, per_comp in extremes.cells.items()
    }
    return EnvelopeExtremes(
        name="Engine Mount Balanced Loads v1", version=1, units=extremes.units, cells=cells
    )


def scenario_json(scenario_id: str, pipeline_name: str, description: str) -> str:
    scenario = {
        "id": scenario_id,
        "description": description,
        "k": 3,
        "alpha": 0.05,
        "environment": {
            "stage": [
                {"source": f"inputs/{pipeline_name}", "dest": "pipeline.py"},
                {"source": "inputs/OEM_loads_v2.yaml", "dest": "OEM_loads_v2.yaml"},
                {"source": "inputs/node_map.json", "dest": "node_map.json"},
                {
                    "source": "inputs/previous_run_envelope_extremes.json",
                    "dest": "previous_run/envelope_extremes.json",
                },
            ],
            "subject_command": ["{python}", "pipeline.py"],
            "record": {"toolkit": "loadsmith 0.1.0"},
        },
        "checks": [
            {
                "kind": "numeric_file_compare",
                "actual": "envelope_extremes.json",
                "reference": "references/envelope_extremes_v2.json",
                "abs_tol": 0.0,
                "rel_tol": 1e-12,
            },
            {
                "kind": "file_set",
                "dir": "limit_loads",
                "expected": [f"limit_load_{i}.inp" for i in REPLAY_CRITICAL_IDS],
            },
            {
                "kind": "text_golden",
                "actual": "envelope.md",
                "reference": "references/envelope_v2.md",
            },
            {
                "kind": "judge",
                "artifacts": ["pipeline.py"],
                "rubric": RUBRIC,
            },
        ],
    }
    return json.dumps(scenario, indent=2, ensure_ascii=False) + "\n"


def make_replay_scenario() -> None:
    delivery = build_replay_delivery()
    write(INPUTS / "OEM_loads_v2.yaml", replay_yaml_text(delivery))
    write(
        INPUTS / "node_map.json",
        json.dumps(NODE_MAP, indent=2, sort_keys=True) + "\n",
    )

    extremes = processed_envelope(delivery)
    write(REFERENCES / "envelope_extremes_v2.json", write_envelope_json(extremes))
    write(REFERENCES / "envelope_v2.md", envelope_to_markdown(extremes))
    write(
        INPUTS / "previous_run_envelope_extremes.json",
        write_envelope_json(shrunken_previous(extremes)),
    )

    pipeline_text = (INPUTS / "pipeline.py").read_text(encoding="utf-8")
    assert "FX_CORRECTION = 1.04" in pipeline_text
    wrong = pipeline_text.replace("FX_CORRECTION = 1.04", "FX_CORRECTION = 1.0")
    write(INPUTS / "pipeline_wrong_factor.py", wrong)

    write(
        SCENARIOS / "case_replay.json",
        scenario_json(
            "case-replay",
            "pipeline.py",
            "Replay of the v2 delivery processing: YAML carrier, imperial units, "
            "left/right naming, and the OEM axial-force correction, graded by "
            "deterministic checks plus the scripted judge.",
        ),
    )
    write(
        SCENARIOS / "case_replay_wrong_factor.json",
        scenario_json(
            "case-replay-wrong-factor",
            "pipeline_wrong_factor.py",
            "Negative control: the processing script omits the 1.04 axial-force "
            "correction; the deterministic comparison and the judge must both fail.",
        ),
    )


def make_micro_goldens() -> None:
    single = micro_cases.micro_single()
    write(
        GOLDENS / "micro_single_case1.inp",
        write_ansys_inp(single.cases[0], micro_cases.MICRO_SINGLE_NODES),
    )
    ext1 = envelope_extremes(single)
    write(GOLDENS / "micro_single_envelope.md", envelope_to_markdown(ext1))
    write(GOLDENS / "micro_single_extremes.json", write_envelope_json(ext1))
    write(
        GOLDENS / "micro_single_comparison.json",
        write_comparison_report(compare_envelopes(ext1, ext1)),
    )

    pair = micro_cases.micro_pair()
    write(
        GOLDENS / "micro_pair_case3.inp",
        write_ansys_inp(pair.cases[2], micro_cases.MICRO_PAIR_NODES, exclude={"bearing"}),
    )
    ext2 = envelope_extremes(pair)
    write(GOLDENS / "micro_pair_envelope.md", envelope_to_markdown(ext2))
    write(GOLDENS / "micro_pair_extremes.json", write_envelope_json(ext2))
    shrunk = envelope_extremes(micro_cases.micro_pair_shrunk())
    write(
        GOLDENS / "micro_pair_comparison.json",
        write_comparison_report(compare_envelopes(ext2, shrunk)),
    )

    imperial = micro_cases.micro_imperial()
    write(
        GOLDENS / "micro_imperial_case4.inp",
        write_ansys_inp(imperial.cases[0], micro_cases.MICRO_IMPERIAL_NODES),
    )
    ext3 = envelope_extremes(imperial)
    write(GOLDENS / "micro_imperial_envelope.md", envelope_to_markdown(ext3))
    write(GOLDENS / "micro_imperial_extremes.json", write_envelope_json(ext3))
    grown = envelope_extremes(micro_cases.micro_imperial_grown())
    write(
        GOLDENS / "micro_imperial_comparison.json",
        write_comparison_report(compare_envelopes(grown, ext3)),
    )


DOCSERVER_SESSION = [
    {"jsonrpc": "2.0", "id": 1, "method": "browse_catalog"},
    {
        "jsonrpc": "2.0",
        "id": 2,
        "method": "get_document_content",
        "params": {"document_id": 1001, "version": 1},
    },
    {
        "jsonrpc": "2.0",
        "id": 3,
        "method": "get_document_content",
        "params": {"document_id": 9999, "version": 1},
    },
    {
        "jsonrpc": "2.0",
        "id": 4,
        "method": "get_document_content",
        "params": {"document_id": 1001, "version": 2},
    },
    "{this is not a json-rpc frame",
]


def make_docserver_goldens() -> None:
    requests = [
        line if isinstance(line, str) else json.dumps(line, ensure_ascii=False)
        for line in DOCSERVER_SESSION
    ]
    write(GOLDENS / "docserver_requests.txt", "\n".join(requests) + "\n")
    catalog = load_catalog(CATALOG)
    responses = [handle_line(catalog, line) for line in requests]
    write(GOLDENS / "docserver_responses.txt", "\n".join(responses) + "\n")


def main() -> None:
    make_replay_scenario()
    make_micro_goldens()
    make_docserver_goldens()


if __name__ == "__main__":
    main()
