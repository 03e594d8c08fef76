#!/usr/bin/env python3
"""A/B the benchmark between two commits and write ``BENCH_<pr>.json``.

Exports the committed files of BASE and CHANGE (``git archive``) into a
temporary directory, then runs ``perfbench/run.py`` on both in alternating
pairs: pair i runs both sides on seed SEED+i, base first on even i and
change first on odd i, for every workload in ``BENCHMARK.json``. Run from
the root of the repository:

    python3 scripts/bench_ab.py --pr N --base HEAD~1 --change HEAD

CHANGE may be any tree-ish; to measure uncommitted work, stage it and pass
``--change "$(git write-tree)"``. Exports go under ``$TMPDIR`` and are
removed at the end, also when the run is stopped by SIGTERM or Ctrl-C, which
kills the running benchmark first. Defaults: ten pairs, ``run_seconds`` from
``BENCHMARK.json``, untraced runs. ``--trace 1`` compares the per-layer
metrics instead and writes ``BENCH_<pr>_trace.json``.

For each workload and metric the file holds each side's runs, median, q1 and
q3, its median over the pairs in which it ran first and over those in which
it ran second (None when there are none), and the number of pairs the change
won (ties count for neither side). A
gain holds when the change wins at least nine pairs in ten and its median
beats the base's by more than the base's q3 - q1. ``worse_by`` is the
change's median relative to the base's, positive when worse, next to the
benchmark's bound for end-to-end metrics. ``machine`` holds each side's
machine record (Python, CPUs, PyYAML and the YAML backend the run observed);
when any run saw another value of one of those fields, ``machine_mismatch``
names the field with the values each side saw, and the run prints it, so a
change that switched the YAML backend is not scored as a gain unnoticed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("python", "nproc", "cpu_count", "pyyaml", "pyyaml_with_libyaml", "yaml_backend_used")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, as the benchmark sees a fresh checkout."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=REPO, check=True, capture_output=True
    ).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(root: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns its result line plus the machine record."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} in {root} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    env_line = next(line for line in lines if line.startswith("env "))
    record = json.loads(env_line[len("env "):])
    result["machine"] = {key: record.get(key) for key in MACHINE_KEYS}
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(base_runs: list[float], change_runs: list[float], better: str, bound: float | None) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base_runs, change_runs))
    losses = sum(sign * (c - b) > 0 for b, c in zip(base_runs, change_runs))
    sides = {}
    for side, runs in (("base", base_runs), ("change", change_runs)):
        q1, median, q3 = quartiles(runs)
        # base runs first in even pairs, the change in odd ones
        first, second = (runs[0::2], runs[1::2]) if side == "base" else (runs[1::2], runs[0::2])
        sides[side] = {
            "runs": runs, "median": median, "q1": q1, "q3": q3,
            "median_ran_first": statistics.median(first) if first else None,
            "median_ran_second": statistics.median(second) if second else None,
        }
    base_median, change_median = sides["base"]["median"], sides["change"]["median"]
    margin = sign * (base_median - change_median)
    entry = {
        "better": better,
        **sides,
        "pairs": len(base_runs),
        "wins": wins,
        "losses": losses,
        "gain": wins >= 0.9 * len(base_runs) and margin > sides["base"]["q3"] - sides["base"]["q1"],
        "worse_by": -margin / base_median if base_median else None,
    }
    if bound is not None:
        entry["bound"] = bound
    return entry


def machine_mismatch(results: dict[str, dict[str, list[dict]]]) -> dict:
    """Each ``MACHINE_KEYS`` field whose value was not the same in every run,
    with the values each side saw; empty when both sides ran on one setup."""
    seen: dict[str, dict[str, list]] = {key: {"base": [], "change": []} for key in MACHINE_KEYS}
    for sides in results.values():
        for side, runs in sides.items():
            for run in runs:
                for key in MACHINE_KEYS:
                    if run["machine"][key] not in seen[key][side]:
                        seen[key][side].append(run["machine"][key])
    return {
        key: values for key, values in seen.items()
        if values["base"] != values["change"] or len(values["base"]) > 1
    }


def main(argv: list[str] | None = None) -> int:
    # SIGTERM unwinds like Ctrl-C: subprocess.run kills the running benchmark
    # and TemporaryDirectory removes the exports on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload_names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--seed", type=int, default=100, help="seed of the first pair")
    parser.add_argument("--workload", action="append", choices=workload_names,
                        help="repeat to pick workloads (default: all)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = args.workload or workload_names
    metric_specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    revs = {"base": git("rev-parse", args.base), "change": git("rev-parse", args.change)}

    results: dict[str, dict[str, list[dict]]] = {w: {"base": [], "change": []} for w in workloads}
    seeds = [args.seed + i for i in range(args.pairs)]
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as scratch:
        roots = {side: Path(scratch) / side for side in revs}
        for side, root in roots.items():
            export(revs[side], root)
        for i, seed in enumerate(seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for workload in workloads:
                for side in order:
                    result = run_once(roots[side], bench["command"], workload, seed,
                                      args.seconds, args.trace)
                    results[workload][side].append(result)
                    print(f"pair {i + 1}/{args.pairs} seed {seed} {workload} {side}: "
                          + "  ".join(f"{name} {m['value']:.4g}"
                                      for name, m in list(result["metrics"].items())[:4]),
                          file=sys.stderr)

    report = {
        "base": revs["base"],
        "change": revs["change"],
        "pairs": args.pairs,
        "seeds": seeds,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "machine": {side: results[workloads[0]][side][0]["machine"] for side in revs},
        "workloads": {},
    }
    mismatch = machine_mismatch(results)
    if mismatch:
        report["machine_mismatch"] = mismatch
    for workload, sides in results.items():
        entry = {
            side: {
                "correct": all(r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
            }
            for side, runs in sides.items()
        }
        entry["metrics"] = {
            spec["name"]: {
                "unit": spec["unit"],
                **summarize(
                    [r["metrics"][spec["name"]]["value"] for r in sides["base"]],
                    [r["metrics"][spec["name"]]["value"] for r in sides["change"]],
                    spec["better"],
                    spec.get("bound"),
                ),
            }
            for spec in metric_specs
        }
        report["workloads"][workload] = entry

    out = REPO / f"BENCH_{args.pr}{'_trace' if args.trace else ''}.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:13} {name:24} base {m['base']['median']:.4g}  "
                  f"change {m['change']['median']:.4g}  wins {m['wins']}/{m['pairs']}"
                  + ("  GAIN" if m["gain"] else ""))
    for key, values in mismatch.items():
        print(f"machine_mismatch: {key} base {values['base']} change {values['change']}")
    print(f"wrote {out.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
