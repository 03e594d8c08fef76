#!/usr/bin/env python3
"""Run the v2 delivery case end to end through the CLI and print a summary.

Drives the installed `loadsmith` CLI step by step (convert, transform,
equilibrium, envelope, export-ansys, compare) against the shipped scenario
inputs, the way an orchestrating script or agent would. Exits with the
compare step's status, so an exceedance surfaces as exit code 3.

    python3 scripts/replay_case.py [workdir]
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
INPUTS = REPO / "scenarios" / "inputs"


def cli(*args: str, ok: tuple[int, ...] = (0,)) -> tuple[int, dict | list]:
    """Run one step; stop the replay unless it exits with a status in ``ok``."""
    proc = subprocess.run(
        [sys.executable, "-m", "loadsmith", *args], capture_output=True, text=True
    )
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    if proc.returncode not in ok:
        expected = " or ".join(map(str, ok))
        raise SystemExit(f"{args[0]} failed: exit {proc.returncode}, expected {expected}")
    return proc.returncode, json.loads(proc.stdout)


def main() -> int:
    work = Path(sys.argv[1]) if len(sys.argv) > 1 else REPO / "replay_out"
    work.mkdir(parents=True, exist_ok=True)
    print(f"working directory: {work}")

    _, out = cli(
        "convert", str(INPUTS / "OEM_loads_v2.yaml"), "--to", "json",
        "--out", str(work / "OEM_loads_v2.json"),
    )
    print(f"converted delivery -> {out['written']}")

    _, out = cli(
        "transform", str(work / "OEM_loads_v2.json"),
        "--rename", "lug_left=lug_port",
        "--rename", "lug_right=lug_starboard",
        "--rename", "lug_fairlead=lug_failsafe",
        "--scale", "FX=1.04",
        "--units", "N,N·m",
        "--out", str(work / "processed.json"),
    )
    print(f"renames: {out['rename_count']}, fx correction 1.04, units -> N/N·m")

    code, out = cli("equilibrium", str(work / "processed.json"), ok=(0, 2))
    print(f"equilibrium: all balanced = {out['all_balanced']} (exit {code})")

    _, out = cli("envelope", str(work / "processed.json"), "--out-dir", str(work))
    selected = out["selected_case_ids"]
    print(f"envelope selection: {len(selected)} cases: {', '.join(map(str, selected))}")

    _, out = cli(
        "export-ansys", str(work / "processed.json"),
        "--select", ",".join(map(str, selected)),
        "--node-map", str(INPUTS / "node_map.json"),
        "--exclude", "bearing",
        "--out-dir", str(work / "limit_loads"),
    )
    print(f"decks written: {len(out['written'])} in {work / 'limit_loads'}")

    code, out = cli(
        "compare",
        str(work / "envelope_extremes.json"),
        str(INPUTS / "previous_run_envelope_extremes.json"),
        "--out", str(work / "comparison_report" / "v1_vs_v2.json"),
        ok=(0, 3),
    )
    print(f"new exceeds old: {out['new_exceeds_old']} (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
