#!/usr/bin/env python3
"""Process the v2 OEM loads delivery per DP-TRS-LOADS-001.

Reads OEM_loads_v2.yaml from the working directory and produces:
  OEM_loads_v2.json          canonical delivery
  limit_loads/*.inp          one nodal-force deck per envelope case
  envelope.md                envelope summary table
  envelope_extremes.json     machine-readable extremes
  comparison_report/         exceedance comparison vs previous_run/
"""

import json
import sys
from pathlib import Path

from loadsmith.analysis import check_equilibrium_all, envelope_select
from loadsmith.compare import compare_envelopes, comparison_to_markdown, write_comparison_report
from loadsmith.errors import LoadsmithError
from loadsmith.export import (
    envelope_to_markdown,
    export_all_inp,
    load_node_map,
    read_envelope_json,
    write_envelope_json,
)
from loadsmith.ingest import load_delivery, validate_delivery, write_delivery_json
from loadsmith.model import SI_UNITS, Component
from loadsmith.transform import (
    convert_units,
    rename_points,
    scale_component,
    verify_coordinate_system,
)

FX_CORRECTION = 1.0  # OEM-communicated axial force correction for this delivery
RENAMES = {
    "lug_left": "lug_port",
    "lug_right": "lug_starboard",
    "lug_fairlead": "lug_failsafe",
}
EXCLUDE_FROM_DECKS = {"bearing"}
EXPECTED_CS = "engine_cs"


def main() -> None:
    delivery = load_delivery("OEM_loads_v2.yaml")
    print(f"delivery: {delivery.name} (version {delivery.version})")
    print(f"cases: {len(delivery.cases)}, points: {len(delivery.cases[0].loads)}")

    report = validate_delivery(delivery)
    warnings = [f.code for f in report.findings if f.severity == "warning"]
    print(f"validation: ok={report.ok} warnings={warnings}")

    Path("OEM_loads_v2.json").write_text(write_delivery_json(delivery), encoding="utf-8")

    delivery, n_renames = rename_points(delivery, RENAMES)
    print(f"renames applied: {n_renames}")

    delivery = scale_component(delivery, Component.FX, FX_CORRECTION)
    print(f"fx correction factor: {FX_CORRECTION}")

    cs_check = verify_coordinate_system(delivery, EXPECTED_CS)
    print(f"coordinate system: {cs_check.found} ({cs_check.status})")
    if not cs_check.ok:
        raise SystemExit("coordinate system mismatch; transformation spec required")

    delivery = convert_units(delivery, SI_UNITS)
    print("units converted to N / N·m")

    survey = check_equilibrium_all(delivery)
    print(f"equilibrium: all balanced = {survey.all_balanced}")

    selection = envelope_select(delivery)
    kept = ", ".join(str(i) for i in selection.selected_case_ids)
    print(f"envelope: kept {len(selection.selected_case_ids)} of {len(delivery.cases)} cases ({kept})")

    nodes = load_node_map("node_map.json")
    paths = export_all_inp(
        delivery, list(selection.selected_case_ids), nodes,
        exclude=EXCLUDE_FROM_DECKS, out_dir="limit_loads",
    )
    print(f"decks written: {len(paths)} (limit_loads/, bearing excluded)")

    Path("envelope.md").write_text(envelope_to_markdown(selection.extremes), encoding="utf-8")
    Path("envelope_extremes.json").write_text(
        write_envelope_json(selection.extremes), encoding="utf-8"
    )

    previous = read_envelope_json(
        Path("previous_run/envelope_extremes.json").read_text(encoding="utf-8")
    )
    comparison = compare_envelopes(selection.extremes, previous)
    out_dir = Path("comparison_report")
    out_dir.mkdir(exist_ok=True)
    (out_dir / "v1_vs_v2.json").write_text(
        write_comparison_report(comparison), encoding="utf-8"
    )
    (out_dir / "v1_vs_v2.md").write_text(
        comparison_to_markdown(comparison), encoding="utf-8"
    )
    print(f"exceedance vs previous run: {comparison.new_exceeds_old}")


if __name__ == "__main__":
    # A refusal is one JSON error line on stderr and exit 2, as the CLI writes it.
    try:
        main()
    except LoadsmithError as exc:
        sys.stderr.write(json.dumps({"error": exc.to_dict()}, ensure_ascii=False) + "\n")
        sys.exit(2)
