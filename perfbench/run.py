#!/usr/bin/env python3
"""Layered benchmark of the loadsmith pipeline.

    python3 perfbench/run.py --workload shipped_yaml|large_json|cli_replay \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark imports loadsmith from
``src/`` of that checkout and nowhere else. One run sets the workload up
(import, staging or seeded generation, one warm-up pass), then runs passes
back to back, one client in a closed loop, for ``--seconds``. Every pass's
outputs are checked byte for byte (or, for a non-default ``large_json`` seed,
against an oracle) outside the timed region; a pass that raises, exits with
an unexpected code or writes a wrong byte counts as failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports per-layer self times and counts from
spans the benchmark records around each layer call, plus the tracing
overhead; the spans are written to ``.perfbench_out/`` as NDJSON.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from layers import instrumented
from spans import PASS, NullTracer, Tracer
from speed import Timed
from synth import DEFAULT_CASES, DEFAULT_SEED

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("shipped_yaml", "large_json", "cli_replay")
SETUP_REPS = 3

# per-layer metric -> span name; self time in ms, median over traced passes
LAYER_TIMES = {
    "ingest.parse_ms": "ingest.parse",
    "ingest.validate_ms": "ingest.validate",
    "ingest.write_json_ms": "ingest.write_json",
    "transform.rename_ms": "transform.rename",
    "transform.scale_ms": "transform.scale",
    "transform.units_ms": "transform.units",
    "analysis.equilibrium_ms": "analysis.equilibrium",
    "analysis.envelope_ms": "analysis.envelope",
    "export.decks_ms": "export.decks",
    "export.envelope_md_ms": "export.envelope_md",
    "export.extremes_json_ms": "export.extremes_json",
    "export.read_extremes_ms": "export.read_extremes",
    "compare.compare_ms": "compare.compare",
    "compare.write_ms": "compare.write",
    "trace.sidecar_ms": "trace.sidecar",
    "cli.startup_ms": "cli.startup",
    "cli.convert_ms": "cli.convert",
    "cli.transform_ms": "cli.transform",
    "cli.equilibrium_ms": "cli.equilibrium",
    "cli.envelope_ms": "cli.envelope",
    "cli.export_ansys_ms": "cli.export_ansys",
    "cli.compare_ms": "cli.compare",
}
# per-layer counts recorded on spans; median over traced passes
LAYER_COUNTS = {
    "ingest.bytes": "bytes",
    "ingest.values": "count",
    "analysis.cases": "count",
    "analysis.selected_cases": "count",
    "export.decks": "count",
    "export.deck_bytes": "bytes",
    "compare.cells": "count",
    "compare.exceeding_cells": "count",
    "trace.bytes_hashed": "bytes",
}

TINY_YAML = """\
name: backend probe
version: 1
units: {force: N, moment: N·m}
load_cases:
- id: 1
  point_loads:
    a: {fx: 1.0, fy: 0.0, fz: 0.0, mx: 0.0, my: 0.0, mz: 0.0}
"""


class SourceTreeMissing(Exception):
    pass


def import_loadsmith(root: Path):
    """Import loadsmith from ``root/src`` only."""
    src = root / "src"
    if not (src / "loadsmith" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no loadsmith package under {src}")
    if not (root / "scenarios" / "inputs" / "OEM_loads_v2.yaml").is_file():
        raise SourceTreeMissing(f"no shipped scenario inputs under {root / 'scenarios'}")
    sys.path.insert(0, str(src))
    import loadsmith
    import loadsmith.trace  # noqa: F401  (used by large_json)

    if not Path(loadsmith.__file__).resolve().is_relative_to(src.resolve()):
        raise SourceTreeMissing(f"loadsmith imported from {loadsmith.__file__}, not {src}")
    return loadsmith


def yaml_backend() -> str:
    """Which YAML implementation loadsmith's parser actually runs, observed."""
    import yaml
    from loadsmith import ingest

    yaml_dir = str(Path(yaml.__file__).parent)
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(yaml_dir):
            seen.add(Path(frame.f_code.co_filename).name)

    sys.setprofile(profile)
    try:
        ingest.parse_delivery(TINY_YAML)
    finally:
        sys.setprofile(None)
    kinds = []
    if "cyaml.py" in seen:
        kinds.append("libyaml")
    if "scanner.py" in seen or "parser.py" in seen:
        kinds.append("pure-python")
    return "+".join(kinds) or "unknown"


def git_commit(root: Path) -> str:
    """HEAD commit read from ``.git`` directly; a plain source tree has none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, loadsmith, seed: int, nproc: int) -> dict:
    import yaml

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "pyyaml": yaml.__version__,
        "pyyaml_with_libyaml": yaml.__with_libyaml__,
        "yaml_backend_used": yaml_backend(),
        "numpy": numpy_version,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(root),
        "seed": seed,
        "loadsmith_version": loadsmith.__version__,
        "loadsmith_file": loadsmith.__file__,
    }


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with ten passes beyond it, at least p75.

    Returns (value, percentile, passes beyond). Below 40 passes no
    percentile from p75 up has ten passes beyond it (at eleven passes only
    the fastest pass has), so p75 is reported: on a shared machine a
    single pass's time is off by about 10%, and a higher percentile of a
    few dozen passes rests on two or three of them.
    """
    ordered = sorted(times)
    n = len(ordered)
    k = max(math.ceil(0.75 * n) - 1, n - 11)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def measure(wl, seconds: float, traced: bool, max_passes: int | None = None, after_pass=None) -> dict:
    """Closed loop of passes for ``seconds``; every pass's outputs are checked.

    Each successful pass's ``Timed`` is kept under ``times[traced]``. With
    ``traced`` the passes alternate untraced, traced, untraced, ...
    ``after_pass(out)`` runs between a pass and its check (self-test hook).
    """
    out = wl.work / "out"
    tracer = Tracer() if traced else None
    null = NullTracer()
    times = {False: [], True: []}
    traced_ok: dict[int, float] = {}  # pass id -> speed factor
    failures: list[str] = []
    attempted = 0
    deadline = perf_counter() + seconds
    while True:
        use_trace = traced and attempted % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        gc.collect()
        tr = tracer if use_trace else null
        if use_trace:
            tracer.pass_id = attempted
        problems = []
        with instrumented(tracer) if use_trace else nullcontext(), Timed(wl.reference) as timed:
            try:
                with tr.span(PASS):
                    wl.run_pass(tr, out)
            except Exception as exc:  # a failing pass is counted, not fatal
                problems.append(f"raised {exc!r}")
        if use_trace:
            try:
                wl.startup_probe(tracer)
            except Exception as exc:
                problems.append(f"startup probe raised {exc!r}")
        if after_pass is not None:
            after_pass(out)
        if not problems:
            problems = wl.check(out)
        attempted += 1
        if problems:
            failures.append(f"pass {attempted}: " + "; ".join(problems[:3]))
        else:
            times[use_trace].append(timed)
            if use_trace:
                traced_ok[tracer.pass_id] = timed.factor
        if max_passes is not None and attempted >= max_passes:
            break
        if perf_counter() >= deadline and (not traced or attempted >= 2):
            break
    shutil.rmtree(out, ignore_errors=True)
    return {
        "attempted": attempted,
        "failures": failures,
        "times": times,
        "traced_ok": traced_ok,
        "tracer": tracer,
    }


def setup(wl) -> list[Timed]:
    """The set-up pieces: the median of SETUP_REPS stagings, and one warm-up pass."""
    stagings = []
    for _ in range(SETUP_REPS):
        with Timed(wl.reference) as timed:
            wl.stage()
        stagings.append(timed)
    out = wl.work / "out"
    out.mkdir()
    with Timed(wl.reference) as warmup:
        try:
            wl.run_pass(NullTracer(), out)
        except Exception as exc:  # the measured passes count and report it
            print(f"warm-up pass raised {exc!r}")
    shutil.rmtree(out)
    stagings.sort(key=lambda t: t.normalised)
    return [stagings[len(stagings) // 2], warmup]


def layer_metrics(result: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the report table as lines."""
    per_pass = result["tracer"].per_pass()
    passes = []
    for pid, factor in result["traced_ok"].items():
        entry = per_pass[pid]
        entry["pass_ms"] *= factor
        entry["self_ms"] = {name: ms * factor for name, ms in entry["self_ms"].items()}
        passes.append(entry)

    def med(values):
        return statistics.median(values) if values else 0.0

    metrics = {}
    for metric, span in LAYER_TIMES.items():
        metrics[metric] = (med([p["self_ms"].get(span, 0.0) for p in passes]), "ms")
    for metric, unit in LAYER_COUNTS.items():
        metrics[metric] = (med([p["counts"].get(metric, 0) for p in passes]), unit)
    cases = metrics["analysis.cases"][0]
    metrics["analysis.selected_ratio"] = (
        metrics["analysis.selected_cases"][0] / cases if cases else 0.0, "ratio"
    )
    traced_ms = med([p["pass_ms"] for p in passes])
    untraced_ms = med([t.normalised for t in result["times"][False]]) * 1e3
    residual_ms = med([p["self_ms"][PASS] for p in passes])
    metrics["residual_ms"] = (residual_ms, "ms")
    metrics["traced_pipeline_ms"] = (traced_ms, "ms")
    metrics["tracing_overhead_ms"] = (traced_ms - untraced_ms, "ms")

    def share(ms):
        return f"{100 * ms / traced_ms:6.1f}%" if traced_ms else "      -"

    lines = [f"{'span (self time)':22} {'ms':>10} {'% pass':>7}   (at reference speed)"]
    for metric, span in LAYER_TIMES.items():
        value = metrics[metric][0]
        if value and span != "cli.startup":
            lines.append(f"{span:22} {value:10.3f} {share(value)}")
    lines.append(f"{'residual (untimed)':22} {residual_ms:10.3f} {share(residual_ms)}")
    accounted = med([100 * (p["pass_ms"] - p["self_ms"][PASS]) / p["pass_ms"] for p in passes])
    lines.append(f"layer self times cover {accounted:.1f}% of a traced pass "
                 f"(median of {len(passes)} traced passes)")
    if metrics["cli.startup_ms"][0]:
        lines.append(f"cli.startup (no-op subcommand, outside the pass) "
                     f"{metrics['cli.startup_ms'][0]:.3f} ms")
    lines.append("counts: " + ", ".join(f"{m}={metrics[m][0]:g}" for m in LAYER_COUNTS)
                 + f", analysis.selected_ratio={metrics['analysis.selected_ratio'][0]:.4f}")
    lines.append(f"pass: traced {traced_ms:.3f} ms, untraced {untraced_ms:.3f} ms, "
                 f"tracing overhead {traced_ms - untraced_ms:+.3f} ms")
    return metrics, lines


def run(root: Path, workload: str, seed: int, seconds: float, traced: bool,
        cases: int, max_passes: int | None = None, after_pass=None) -> dict:
    """Set up, measure and report one run; returns the result object."""
    # One core for the benchmark and its subprocesses: the cores of a shared
    # machine change speed independently, and the reference task must run on
    # the core it normalises.
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    os.sched_setaffinity(0, {cpu})
    with Timed() as imported:
        loadsmith = import_loadsmith(root)
    from workloads import WORKLOADS

    env = environment(root, loadsmith, seed, nproc=len(cpus))
    env["pinned_cpu"] = cpu
    base = root / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    try:
        wl = WORKLOADS[workload](root, work, seed, cases)
        pieces = [imported]
        if workload == "cli_replay":
            with Timed(wl.reference) as probed:
                child_file = wl.child_loadsmith_file()
            if not Path(child_file).is_relative_to(root / "src"):
                raise SourceTreeMissing(f"the CLI imports loadsmith from {child_file}")
            env["loadsmith_file_in_cli"] = child_file
            pieces.append(probed)
        pieces += setup(wl)
        result = measure(wl, seconds, traced, max_passes, after_pass)
        peak_rss_mb = wl.peak_rss_mb()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    attempted, failed = result["attempted"], len(result["failures"])
    print(f"workload {workload}  seed {seed}  trace {int(traced)}  size "
          + (f"{cases} cases x 20 points" if workload == "large_json" else "100 cases x 7 points"))
    print("env " + json.dumps(env, sort_keys=True))
    print(f"failed_ratio {failed / attempted:.4f} ratio ({failed} of {attempted} passes failed)")
    for line in result["failures"][:5]:
        print("  FAILED " + line)

    if traced:
        metrics, lines = layer_metrics(result)
        print("\n".join(lines))
        path = root / ".perfbench_out" / f"spans-{workload}-seed{seed}.ndjson"
        result["tracer"].write_ndjson(path)
        print(f"spans written to {path.relative_to(root)}")
    else:
        timed = result["times"][False]
        times = [t.normalised for t in timed] or [0.0]
        walls = [t.wall for t in timed] or [0.0]
        tail_s, pct, beyond = tail(times)
        metrics = {
            "pipeline_s": (statistics.median(times), "s"),
            "pipeline_tail_s": (tail_s, "s"),
            "setup_s": (sum(t.normalised for t in pieces), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"times at reference speed; machine speed factor median "
              f"{statistics.median([t.factor for t in timed] or [0.0]):.3f}")
        print(f"pipeline_s {metrics['pipeline_s'][0]:.6f} s (median of {len(times)} passes; "
              f"wall median {statistics.median(walls):.6f} s)")
        print(f"pipeline_tail_s {tail_s:.6f} s (p{pct:.1f} of {len(times)} passes, "
              f"{beyond} passes beyond it; wall {tail(walls)[0]:.6f} s)")
        print(f"setup_s {metrics['setup_s'][0]:.6f} s (import + median of {SETUP_REPS} stagings "
              f"+ one warm-up pass; wall {sum(t.wall for t in pieces):.6f} s, "
              f"import {imported.wall:.6f} s)")
        print(f"peak_rss_mb {peak_rss_mb:.3f} MB"
              + (" (largest CLI child)" if workload == "cli_replay" else ""))

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cases", type=int, default=DEFAULT_CASES,
                        help="large_json case count (20 points each)")
    parser.add_argument("--max-passes", type=int, default=None, dest="max_passes")
    args = parser.parse_args(argv)
    try:
        result = run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace),
                     args.cases, args.max_passes)
    except SourceTreeMissing as exc:
        print(f"perfbench: {exc}; run from the root of a loadsmith source checkout",
              file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
