#!/usr/bin/env python3
"""Run the v2 delivery case end to end through the CLI and print a summary.

Drives `python -m loadsmith` step by step (convert, transform, equilibrium,
envelope, export-ansys, compare), the way an orchestrating script or agent
would. It reads the delivery, the node map and the previous run's extremes
from its own directory and writes into WORKDIR. So it runs from the
repository and, as the subject of `scenarios/case_replay.json`, from a run
directory with its inputs staged beside it:

    python3 scenarios/inputs/replay_case.py WORKDIR

A step that exits with a status it does not accept stops the replay with
that status, after forwarding the step's stderr (a refusal's JSON error
line): an unbalanced delivery stops it at `equilibrium`, as
DP-TRS-LOADS-001 §4 asks. An exceedance (compare exit 3) is reported in
the comparison report and on stdout, so the replay exits 0 once every step
has run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

INPUTS = Path(__file__).resolve().parent


def cli(*args: str, ok: tuple[int, ...] = (0,)) -> tuple[int, dict | list]:
    """Run one step; stop the replay unless it exits with a status in ``ok``."""
    proc = subprocess.run(
        [sys.executable, "-m", "loadsmith", *args], capture_output=True, text=True
    )
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    if proc.returncode not in ok:
        expected = " or ".join(map(str, ok))
        print(f"{args[0]} failed: exit {proc.returncode}, expected {expected}", file=sys.stderr)
        sys.exit(proc.returncode)
    return proc.returncode, json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", type=Path, help="directory the steps write into")
    work = parser.parse_args().workdir
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
    del out["written"]
    print(f"transform: {json.dumps(out, ensure_ascii=False)}")

    _, out = cli("equilibrium", str(work / "processed.json"))
    print(f"equilibrium: all balanced = {out['all_balanced']}")

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
    print(f"new exceeds old: {out['new_exceeds_old']} (compare exit {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
