"""The benchmark's three workloads, each a closed loop with one client.

``shipped_yaml``  the shipped delivery through the in-process library
                  sequence of ``scenarios/inputs/pipeline.py``.
``large_json``    a seeded synthetic JSON delivery through the same sequence,
                  plus the CLI's provenance sidecars.
``cli_replay``    the six CLI steps of ``scripts/replay_case.py``, each a
                  ``python -m loadsmith`` subprocess.

A workload stages its inputs into ``<work>/inputs``; a pass writes into a
fresh ``<work>/out``. ``check(out)`` returns the problems found in a pass's
outputs; it runs outside the timed region. In traced passes the layer calls
are traced by ``layers.instrumented``; ``cli_replay`` also opens a
``cli.<step>`` span around each subprocess.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from loadsmith import analysis, compare, export, ingest, transform
from loadsmith import trace as provenance
from loadsmith.model import SI_UNITS, Component

import speed
import synth
from spans import NullTracer

HERE = Path(__file__).resolve().parent
DIGESTS = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
STEP_TIMEOUT_S = 120


class PassFailure(Exception):
    """A pass that ran to an unexpected outcome (bad exit code, failed check)."""


def file_digests(root: Path) -> dict[str, str]:
    """sha256 of every content file under ``root``; trace sidecars are skipped.

    Sidecars hold timestamps and absolute paths, so they differ run to run by
    design.
    """
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and not path.name.endswith("trace.ndjson"):
            out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def diff_digests(actual: dict[str, str], expected: dict[str, str]) -> list[str]:
    problems = [f"missing output {name}" for name in sorted(expected.keys() - actual.keys())]
    problems += [f"unexpected output {name}" for name in sorted(actual.keys() - expected.keys())]
    problems += [
        f"output {name} differs from its reference"
        for name in sorted(expected.keys() & actual.keys())
        if actual[name] != expected[name]
    ]
    return problems


@dataclass(frozen=True)
class LibrarySequence:
    """Parameters of the in-process pipeline (see ``scenarios/inputs/pipeline.py``)."""

    delivery: str
    renames: dict
    exclude: frozenset
    fx_correction: float
    expected_cs: str
    sidecars: bool


class Workload:
    name = ""
    reference = speed.LOOP  # the task its times are normalised by

    def __init__(self, root: Path, work: Path, seed: int, cases: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.cases = cases
        self.inputs = work / "inputs"
        self.first_digests: dict[str, str] | None = None
        # CLI subprocesses import loadsmith from this checkout only
        self.env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "LOADSMITH_OUT_DIR")}
        self.env["PYTHONPATH"] = str(root / "src")

    def stage(self) -> None:
        """One set-up repetition: (re)create the staged inputs."""
        raise NotImplementedError

    def run_pass(self, tracer, out: Path) -> None:
        raise NotImplementedError

    def expected_digests(self) -> dict[str, str] | None:
        """Committed reference digests of every content file, when known."""
        return None

    def oracle_problems(self, out: Path) -> list[str]:
        return []

    def check(self, out: Path) -> list[str]:
        digests = file_digests(out)
        expected = self.expected_digests()
        problems = diff_digests(digests, expected) if expected is not None else []
        problems += self.oracle_problems(out)
        if self.first_digests is None:
            if not problems:
                self.first_digests = digests
        else:
            problems += [
                f"not deterministic: {p}" for p in diff_digests(digests, self.first_digests)
            ]
        return problems

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def cli(self, tracer, *args: str, expect: int = 0) -> str:
        """Run one CLI command; in a traced pass, with its layer calls traced."""
        spans = self.work / "child_spans.ndjson"
        command = [sys.executable, "-m", "loadsmith"]
        if tracer.enabled:
            command = [sys.executable, str(HERE / "cli_child.py"), str(spans)]
        proc = subprocess.run(
            [*command, *args],
            cwd=self.work, env=self.env, capture_output=True, text=True, timeout=STEP_TIMEOUT_S,
        )
        if tracer.enabled:
            tracer.adopt(spans)
            spans.unlink()
        if proc.returncode != expect:
            last = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
            raise PassFailure(f"loadsmith {args[0]} exited {proc.returncode}, expected {expect}: {last}")
        return proc.stdout

    def child_loadsmith_file(self) -> str:
        """``loadsmith.__file__`` as the CLI subprocesses import it."""
        proc = subprocess.run(
            [sys.executable, "-c", "import loadsmith; print(loadsmith.__file__)"],
            cwd=self.work, env=self.env, capture_output=True, text=True, timeout=STEP_TIMEOUT_S,
            check=True,
        )
        return proc.stdout.strip()

    def startup_probe(self, tracer) -> None:
        """Wall time of a no-op subcommand: interpreter start plus CLI import."""
        with tracer.span("cli.startup"):
            self.cli(NullTracer(), "eval", "passk", "--p", "0.9")

    def _reset_inputs(self) -> None:
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)


def shipped_reference_digests(root: Path) -> dict[str, str]:
    """The shipped delivery's outputs: scenario references plus committed digests."""
    refs = root / "scenarios" / "references"
    expected = dict(DIGESTS["shipped"])
    for name, ref in (("envelope.md", "envelope_v2.md"), ("envelope_extremes.json", "envelope_extremes_v2.json")):
        expected[name] = hashlib.sha256((refs / ref).read_bytes()).hexdigest()
    return expected


def _stage_shipped(workload: Workload) -> None:
    workload._reset_inputs()
    shipped = workload.root / "scenarios" / "inputs"
    shutil.copyfile(shipped / "OEM_loads_v2.yaml", workload.inputs / "OEM_loads_v2.yaml")
    shutil.copyfile(shipped / "node_map.json", workload.inputs / "node_map.json")
    shutil.copyfile(
        shipped / "previous_run_envelope_extremes.json", workload.inputs / "previous_extremes.json"
    )


def library_pass(seq: LibrarySequence, inputs: Path, out: Path) -> None:
    """One pass of the library sequence; writes every output under ``out``.

    Layer calls go through the module attributes (``ingest.load_delivery``
    and so on), so that ``layers.instrumented`` can trace them; the parse and
    validate inside ``load_delivery`` resolve through ``ingest``'s globals,
    which it patches too.
    """
    src = inputs / seq.delivery
    node_map = inputs / "node_map.json"
    argv = ["perfbench", seq.delivery]

    def sidecar(path: Path, read: list[Path], written: list[Path]) -> None:
        if seq.sidecars:
            provenance.write_cli_trace(path, argv, read, written)

    delivery = ingest.load_delivery(src)
    ingest.validate_delivery(delivery)  # pipeline.py validates again, explicitly
    canonical = out / "delivery.json"
    canonical.write_text(ingest.write_delivery_json(delivery), encoding="utf-8")
    sidecar(out / "delivery.json.trace.ndjson", [src], [canonical])

    delivery, _ = transform.rename_points(delivery, seq.renames)
    delivery = transform.scale_component(delivery, Component.FX, seq.fx_correction)
    cs_check = transform.verify_coordinate_system(delivery, seq.expected_cs)
    if not cs_check.ok:
        raise PassFailure(f"coordinate system check: {cs_check.status}")
    delivery = transform.convert_units(delivery, SI_UNITS)

    analysis.check_equilibrium_all(delivery)
    selection = analysis.envelope_select(delivery)

    nodes = {k: int(v) for k, v in json.loads(node_map.read_text(encoding="utf-8")).items()}
    decks = export.export_all_inp(
        delivery, list(selection.selected_case_ids), nodes,
        exclude=seq.exclude, out_dir=out / "limit_loads",
    )
    sidecar(out / "limit_loads" / "trace.ndjson", [src, node_map], decks)
    md_path, json_path = out / "envelope.md", out / "envelope_extremes.json"
    md_path.write_text(export.envelope_to_markdown(selection.extremes), encoding="utf-8")
    json_path.write_text(export.write_envelope_json(selection.extremes), encoding="utf-8")
    sidecar(out / "trace.ndjson", [src], [md_path, json_path])

    previous_path = inputs / "previous_extremes.json"
    previous = export.read_envelope_json(previous_path.read_text(encoding="utf-8"))
    comparison = compare.compare_envelopes(selection.extremes, previous)
    report_dir = out / "comparison_report"
    report_dir.mkdir()
    report_json, report_md = report_dir / "v1_vs_v2.json", report_dir / "v1_vs_v2.md"
    report_json.write_text(compare.write_comparison_report(comparison), encoding="utf-8")
    report_md.write_text(compare.comparison_to_markdown(comparison), encoding="utf-8")
    sidecar(report_dir / "v1_vs_v2.json.trace.ndjson", [json_path, previous_path], [report_json, report_md])


class LibraryWorkload(Workload):
    sequence: LibrarySequence

    def run_pass(self, tracer, out: Path) -> None:
        library_pass(self.sequence, self.inputs, out)


class ShippedYaml(LibraryWorkload):
    name = "shipped_yaml"
    sequence = LibrarySequence(
        delivery="OEM_loads_v2.yaml",
        renames={"lug_left": "lug_port", "lug_right": "lug_starboard", "lug_fairlead": "lug_failsafe"},
        exclude=frozenset({"bearing"}),
        fx_correction=1.04,
        expected_cs="engine_cs",
        sidecars=False,
    )

    def stage(self) -> None:
        _stage_shipped(self)

    def expected_digests(self) -> dict[str, str]:
        return shipped_reference_digests(self.root)


class LargeJson(LibraryWorkload):
    name = "large_json"
    sequence = LibrarySequence(
        delivery="delivery.json",
        renames=synth.RENAMES,
        exclude=synth.EXCLUDE,
        fx_correction=synth.FX_CORRECTION,
        expected_cs=synth.EXPECTED_CS,
        sidecars=True,
    )

    def stage(self) -> None:
        self._reset_inputs()
        for name, data in synth.make_inputs(self.seed, self.cases).items():
            (self.inputs / name).write_bytes(data)

    @cached_property
    def expected(self) -> dict:
        """The oracle's results, computed at the first check, outside set-up."""
        return synth.oracle({p.name: p.read_bytes() for p in self.inputs.iterdir()})

    def expected_digests(self) -> dict[str, str] | None:
        if (self.seed, self.cases) == (synth.DEFAULT_SEED, synth.DEFAULT_CASES):
            return DIGESTS["large_json"]
        return None

    def oracle_problems(self, out: Path) -> list[str]:
        try:
            return self._oracle_problems(out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"oracle could not read the outputs: {exc!r}"]

    def _oracle_problems(self, out: Path) -> list[str]:
        want = self.expected
        problems = []
        if (out / "delivery.json").read_bytes() != (self.inputs / "delivery.json").read_bytes():
            problems.append("canonical delivery.json differs from the canonical input")
        extremes = json.loads((out / "envelope_extremes.json").read_text(encoding="utf-8"))
        got = {
            point: {comp: [c["max"], c["max_case"], c["min"], c["min_case"]] for comp, c in per.items()}
            for point, per in extremes["extremes"].items()
        }
        if got != want["extremes"]:
            problems.append("envelope extremes differ from the oracle")
        decks = sorted(p.name for p in (out / "limit_loads").glob("*.inp"))
        if decks != sorted(f"limit_load_{i}.inp" for i in want["selected"]):
            problems.append("deck set differs from the oracle's selected case ids")
        report = json.loads((out / "comparison_report" / "v1_vs_v2.json").read_text(encoding="utf-8"))
        flags = {
            f"{point}.{comp}": (c["max_exceeds"], c["min_exceeds"])
            for point, per in report["cells"].items()
            for comp, c in per.items()
        }
        if flags != want["flags"] or report["new_exceeds_old"] != want["new_exceeds_old"]:
            problems.append("exceedance flags differ from the oracle")
        return problems


class CliReplay(Workload):
    name = "cli_replay"
    reference = speed.SPAWN

    def stage(self) -> None:
        _stage_shipped(self)

    def run_pass(self, tracer, out: Path) -> None:
        rel = out.relative_to(self.work).as_posix()
        with tracer.span("cli.convert"):
            self.cli(tracer, "convert", "inputs/OEM_loads_v2.yaml", "--to", "json",
                     "--out", f"{rel}/delivery.json")
        with tracer.span("cli.transform"):
            self.cli(
                tracer, "transform", f"{rel}/delivery.json",
                "--rename", "lug_left=lug_port",
                "--rename", "lug_right=lug_starboard",
                "--rename", "lug_fairlead=lug_failsafe",
                "--scale", "FX=1.04",
                "--units", "N,N·m",
                "--out", f"{rel}/processed.json",
            )
        with tracer.span("cli.equilibrium"):
            self.cli(tracer, "equilibrium", f"{rel}/processed.json")
        with tracer.span("cli.envelope"):
            stdout = self.cli(tracer, "envelope", f"{rel}/processed.json", "--out-dir", rel)
        selected = json.loads(stdout)["selected_case_ids"]
        with tracer.span("cli.export_ansys"):
            self.cli(
                tracer, "export-ansys", f"{rel}/processed.json",
                "--select", ",".join(map(str, selected)),
                "--node-map", "inputs/node_map.json",
                "--exclude", "bearing",
                "--out-dir", f"{rel}/limit_loads",
            )
        with tracer.span("cli.compare"):
            self.cli(
                tracer, "compare", f"{rel}/envelope_extremes.json", "inputs/previous_extremes.json",
                "--out", f"{rel}/comparison_report/v1_vs_v2.json",
                expect=3,  # the v2 envelope exceeds the previous one
            )

    def expected_digests(self) -> dict[str, str]:
        return {**shipped_reference_digests(self.root), **DIGESTS["cli_replay"]}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (ShippedYaml, LargeJson, CliReplay)}
