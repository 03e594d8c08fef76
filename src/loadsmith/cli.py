"""Command-line interface: the whole pipeline plus the evaluation harness.

Exit codes form a contract orchestrators can branch on:

* 0 - success
* 1 - usage error
* 2 - validation or processing failure
* 3 - processing succeeded but the new loads exceed the previous envelope
* 4 - infrastructure failure (missing files, I/O trouble)

argv is a command's only source of settings, and each option's ``type=``
reader checks its value while argv is parsed, before any input is read.
No command writes a content file or its sidecar over a file it reads: each
refuses such an output before it reads anything, or, for ``compare``'s
default report path, which only the envelopes name, before it writes
anything. So the sidecar's checksums, taken from disk once the command has
run, are those of the bytes it read.

Each subcommand writes its content files and returns its exit code, its
summary and the files written. ``main()`` writes the rest: an NDJSON trace
sidecar for those files (argv, checksums, timestamps, kept out of the
content), the summary as JSON on stdout, or one JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import compare as compare_mod
from . import export, ingest, strict, transform
from .analysis import Tolerance, check_equilibrium_all, envelope_select
from .errors import LoadsmithError
from .model import Component, UnitSystem
from .trace import write_cli_trace

# The eval harness and the doc server are imported inside the subcommands
# that use them, so a pipeline step, run as a fresh process, does not pay for
# importing them.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROCESSING = 2
EXIT_EXCEEDANCE = 3
EXIT_INFRASTRUCTURE = 4


class _UsageExit(LoadsmithError):
    def __init__(self, message: str):
        super().__init__(message, code="USAGE")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for processing
    # failures, so route usage problems through our own handler.
    def error(self, message):
        raise _UsageExit(message)


def _number(kind):
    """The reader of every numeric token: ``kind`` (float or int) of it,
    refusing the digit grouping (``1_5``) that ``kind`` itself accepts. It
    takes ``kind``'s name, which argparse shows in its usage errors."""

    def read(token: str):
        if "_" in token:
            raise ValueError(f"digit grouping in {token!r}")
        return kind(token)

    read.__name__ = kind.__name__
    return read


_float, _int = _number(float), _number(int)


def _rename(token: str) -> tuple[str, str]:
    """``OLD=NEW`` as ``(old, new)``, refusing a blank ``NEW``."""
    old, equals, new = token.partition("=")
    if not (equals and new.strip()):
        raise argparse.ArgumentTypeError(f"expected OLD=NEW with a new name, got {token!r}")
    return old, new


def _scale(token: str) -> tuple[Component, float]:
    """``COMP=FACTOR`` as ``(component, factor)``."""
    name, _, factor = token.partition("=")
    try:
        return Component[name.strip().upper()], _float(factor)
    except (KeyError, ValueError):
        raise argparse.ArgumentTypeError(
            f"expected COMP=FACTOR, COMP one of FX FY FZ MX MY MZ, got {token!r}"
        ) from None


def _units(token: str) -> UnitSystem:
    """``FORCE,MOMENT`` as a unit system; an unknown unit is UNKNOWN_UNIT (exit 2)."""
    parts = token.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected FORCE,MOMENT (for example N,N·m)")
    return UnitSystem(parts[0].strip(), parts[1].strip())


def _case_ids(token: str) -> list[int]:
    """``ID,ID,...`` as case ids, skipping blank entries."""
    try:
        return [_int(part) for part in token.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {token!r}") from None


def _point_names(token: str) -> frozenset[str]:
    """``POINT,POINT,...`` as point names, skipping blank entries."""
    return frozenset(part.strip() for part in token.split(",") if part.strip())


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _delivery_out(token: str) -> Path:
    """The ``--out`` of a command that writes a delivery, which is always
    canonical JSON: a ``.yaml`` or ``.yml`` name is a usage error, raised as
    the argv is parsed, before any input is read."""
    out = Path(token)
    if out.suffix.lower() in (".yaml", ".yml"):
        raise argparse.ArgumentTypeError(
            f"a delivery is written as JSON; {token!r} names a YAML file"
        )
    return out


def _report_out(token: str) -> Path:
    """``compare --out``: the markdown report is written beside it with the
    suffix ``.md``, so a ``.md`` name, which it would overwrite, is refused."""
    out = Path(token)
    if out.suffix == ".md":
        raise argparse.ArgumentTypeError(f"{token!r} would be overwritten by the markdown report")
    return out


def _inputs(args) -> list[str]:
    """The files the command reads, as argv names them."""
    return [vars(args)[name] for name in ("input", "node_map", "new", "old") if name in vars(args)]


def _sidecar(args, outputs) -> Path:
    """The trace sidecar of a command that writes ``outputs``: ``trace.ndjson``
    in its ``--out-dir``, else ``<first output>.trace.ndjson``."""
    if "out_dir" in vars(args):
        return args.out_dir / "trace.ndjson"
    return Path(f"{outputs[0]}.trace.ndjson")


def _refuse_overwriting_inputs(args, outputs) -> None:
    """A usage error when a content file in ``outputs``, or their sidecar,
    names one of the command's inputs: the sidecar hashes the inputs from
    disk once the command has run, so it would record the bytes written as
    the bytes read."""
    inputs = _inputs(args)
    for output in [*outputs, _sidecar(args, outputs)]:
        for name in inputs:
            try:
                same = os.path.samefile(output, name)
            except OSError:  # one of the two does not exist
                same = Path(output).resolve() == Path(name).resolve()
            if same:
                raise _UsageExit(f"the output {str(output)!r} would overwrite the input {name!r}")


# --- subcommand implementations -----------------------------------------
# Each returns (exit code, stdout summary or None, files written).


def _cmd_convert(args):
    _refuse_overwriting_inputs(args, [args.out])
    _write_text(args.out, ingest.write_delivery_json(ingest.load_delivery(args.input)))
    return EXIT_OK, {"written": str(args.out), "format": args.to}, [args.out]


def _cmd_validate(args):
    raw = Path(args.input).read_bytes()
    delivery = ingest.parse_delivery(raw)
    report = ingest.validate_delivery(delivery)
    return (EXIT_OK if report.ok else EXIT_PROCESSING), report.to_dict(), []


def _cmd_transform(args):
    renames = {}
    for old, new in args.rename:
        if old in renames:
            raise _UsageExit(f"--rename names point {old!r} twice")
        renames[old] = new
    _refuse_overwriting_inputs(args, [args.out])
    delivery = ingest.load_delivery(args.input)
    summary: dict = {}
    if renames:
        delivery, count = transform.rename_points(delivery, renames)
        summary["rename_count"] = count

    for component, factor in args.scale:
        delivery = transform.scale_component(delivery, component, factor)
        summary.setdefault("scaled", []).append({"component": component.name, "factor": factor})

    if args.units is not None:
        delivery = transform.convert_units(delivery, args.units)
        summary["units"] = {"force": args.units.force_unit, "moment": args.units.moment_unit}

    if args.ultimate_factor is not None:
        delivery = transform.apply_ultimate_factor(delivery, args.ultimate_factor)
        summary["ultimate_factor"] = args.ultimate_factor

    _write_text(args.out, ingest.write_delivery_json(delivery))
    summary["written"] = str(args.out)
    return EXIT_OK, summary, [args.out]


def _cmd_equilibrium(args):
    tol = Tolerance(args.abs_tol, args.rel_tol)
    delivery = ingest.load_delivery(args.input)
    coords = None
    if args.coords is not None:
        if delivery.point_coordinates is not None:
            raise _UsageExit(
                f"the delivery {args.input!r} holds its own point_coordinates; "
                f"--coords {args.coords!r} would replace them"
            )
        text = strict.read_text(args.coords, "coords")
        coords = ingest.read_coordinates(strict.read_json(text, "coords"), "coords")
    survey = check_equilibrium_all(delivery, tol=tol, coords=coords)
    return (EXIT_OK if survey.all_balanced else EXIT_PROCESSING), survey.to_dict(), []


def _cmd_envelope(args):
    md_path = args.out_dir / "envelope.md"
    json_path = args.out_dir / "envelope_extremes.json"
    _refuse_overwriting_inputs(args, [md_path, json_path])
    selection = envelope_select(ingest.load_delivery(args.input))
    _write_text(md_path, export.envelope_to_markdown(selection.extremes))
    _write_text(json_path, export.write_envelope_json(selection.extremes))
    summary = {"selected_case_ids": list(selection.selected_case_ids)}
    summary["written"] = [str(md_path), str(json_path)]
    return EXIT_OK, summary, [md_path, json_path]


def _cmd_export_ansys(args):
    decks = [args.out_dir / export.deck_name(case_id) for case_id in args.select]
    _refuse_overwriting_inputs(args, decks)
    delivery = ingest.load_delivery(args.input)
    nodes = export.load_node_map(args.node_map)
    paths = export.export_all_inp(delivery, args.select, nodes, args.exclude, args.out_dir)
    return EXIT_OK, {"written": [str(p) for p in paths]}, paths


def _cmd_compare(args):
    if args.out is not None:
        _refuse_overwriting_inputs(args, [args.out, args.out.with_suffix(".md")])
    new_text = strict.read_text(args.new, "new extremes")
    old_text = strict.read_text(args.old, "old extremes")
    report = compare_mod.compare_envelopes(
        export.read_envelope_json(new_text), export.read_envelope_json(old_text), args.widen_tol
    )
    if args.out is not None:
        out = args.out
    else:
        out = Path("comparison_report") / compare_mod.suggested_report_filename(report)
        _refuse_overwriting_inputs(args, [out, out.with_suffix(".md")])
    # Both reports are rendered before either is written, so a refused one leaves neither.
    json_text = compare_mod.write_comparison_report(report)
    md_text = compare_mod.comparison_to_markdown(report)
    _write_text(out, json_text)
    md_path = out.with_suffix(".md")
    _write_text(md_path, md_text)
    summary = {"new_exceeds_old": report.new_exceeds_old, "written": [str(out), str(md_path)]}
    return (EXIT_EXCEEDANCE if report.new_exceeds_old else EXIT_OK), summary, [out, md_path]


def _cmd_eval_run(args):
    from .evalkit.runner import run_scenario
    from .evalkit.scenario import load_scenario

    # Every scenario is read before any runs, so a malformed one, or two
    # that would share a directory of --out-dir, leaves no run behind.
    scenarios, first_path = [], {}
    for path in args.scenarios:
        scenario = load_scenario(path)
        if scenario.id in first_path:
            raise _UsageExit(
                f"the scenarios {first_path[scenario.id]!r} and {path!r} share the id {scenario.id!r}"
            )
        first_path[scenario.id] = path
        scenarios.append(scenario)
    all_pass = True
    any_infra = False
    summaries = []
    for scenario in scenarios:
        report = run_scenario(scenario, args.out_dir / scenario.id, k=args.k)
        all_pass = all_pass and report.pass_hat_k
        any_infra = any_infra or report.infrastructure_failures > 0
        summaries.append(
            {
                "scenario": report.scenario_id,
                "k": report.k,
                "passes": report.passes,
                "pass_hat_k": report.pass_hat_k,
                "lower_bound": report.lower_bound,
                "infrastructure_failures": report.infrastructure_failures,
                "failures": [
                    {"run": run.run_index, "reason": run.reason}
                    for run in report.runs
                    if not run.passed
                ],
                "report": str(args.out_dir / scenario.id / "report.json"),
            }
        )
    status = EXIT_OK if all_pass else EXIT_INFRASTRUCTURE if any_infra else EXIT_PROCESSING
    return status, summaries, []


def _cmd_eval_passk(args):
    from .evalkit.passk import min_k_for

    return EXIT_OK, min_k_for(args.p, args.alpha), []


def _cmd_docserve(args):
    from . import docserver

    docserver.serve(args.catalog_dir)
    return EXIT_OK, None, []


# --- parser wiring --------------------------------------------------------


def _convert_arguments(p):
    p.add_argument("input")
    p.add_argument("--to", choices=("json",), required=True)
    p.add_argument("--out", required=True, type=_delivery_out)
    p.set_defaults(func=_cmd_convert)


def _validate_arguments(p):
    p.add_argument("input")
    p.set_defaults(func=_cmd_validate)


def _transform_arguments(p):
    p.add_argument("input")
    p.add_argument("--rename", action="append", default=[], type=_rename, metavar="OLD=NEW")
    p.add_argument("--scale", action="append", default=[], type=_scale, metavar="COMP=FACTOR")
    p.add_argument("--units", type=_units, metavar="FORCE,MOMENT")
    p.add_argument("--ultimate-factor", type=_float, dest="ultimate_factor")
    p.add_argument("--out", required=True, type=_delivery_out)
    p.set_defaults(func=_cmd_transform)


def _equilibrium_arguments(p):
    p.add_argument("input")
    p.add_argument("--coords", help="JSON file {point: [x, y, z]} in meters")
    p.add_argument("--abs-tol", type=_float, default=Tolerance().abs, dest="abs_tol")
    p.add_argument("--rel-tol", type=_float, default=Tolerance().rel, dest="rel_tol")
    p.set_defaults(func=_cmd_equilibrium)


def _envelope_arguments(p):
    p.add_argument("input")
    p.add_argument("--out-dir", dest="out_dir", required=True, type=Path)
    p.set_defaults(func=_cmd_envelope)


def _export_ansys_arguments(p):
    p.add_argument("input")
    p.add_argument("--select", required=True, type=_case_ids, metavar="ID,ID,...")
    p.add_argument("--node-map", dest="node_map", required=True, help="JSON file {point: node id}")
    p.add_argument("--exclude", type=_point_names, default=frozenset(), metavar="POINT,POINT,...")
    p.add_argument("--out-dir", dest="out_dir", required=True, type=Path)
    p.set_defaults(func=_cmd_export_ansys)


def _compare_arguments(p):
    p.add_argument("new")
    p.add_argument("old")
    p.add_argument("--out", type=_report_out)
    p.add_argument("--widen-tol", type=_float, default=0.0, dest="widen_tol")
    p.set_defaults(func=_cmd_compare)


def _eval_arguments(p):
    eval_sub = p.add_subparsers(dest="eval_command", required=True)

    run_p = eval_sub.add_parser("run", help="run scenario repetitions and report pass^k")
    run_p.add_argument("scenarios", nargs="+")
    run_p.add_argument("-k", type=_int, default=None)
    run_p.add_argument("--out-dir", dest="out_dir", default="eval_runs", type=Path)
    run_p.set_defaults(func=_cmd_eval_run)

    passk_p = eval_sub.add_parser("passk", help="minimum k for a target pass probability")
    passk_p.add_argument("--p", type=_float, required=True)
    passk_p.add_argument("--alpha", type=_float, default=0.05)
    passk_p.set_defaults(func=_cmd_eval_passk)


def _docserve_arguments(p):
    p.add_argument("catalog_dir")
    p.set_defaults(func=_cmd_docserve)


# Each subcommand's name, help line and the function that adds its arguments.
_COMMANDS = {
    "convert": ("convert a delivery to canonical JSON", _convert_arguments),
    "validate": ("validate a delivery and print the findings", _validate_arguments),
    "transform": (
        "rename points, apply correction factors, convert units (in that order)",
        _transform_arguments,
    ),
    "equilibrium": ("verify force (and moment) equilibrium per case", _equilibrium_arguments),
    "envelope": ("downselect critical cases and write the envelope", _envelope_arguments),
    "export-ansys": ("write one nodal-force .inp deck per selected case", _export_ansys_arguments),
    "compare": ("exceedance comparison of new extremes vs old", _compare_arguments),
    "eval": ("evaluation harness", _eval_arguments),
    "docserve": ("serve a document catalog over stdio JSON-RPC", _docserve_arguments),
}


def build_parser(command: str | None = None) -> _Parser:
    """The CLI's parser. When ``command``, the first argv token, names a
    subcommand, only that one is added, since it is the only one the argv
    can run; otherwise (no command, ``-h``, an unknown name) all are, so
    help and usage errors list every subcommand."""
    parser = _Parser(prog="loadsmith", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        if command not in _COMMANDS or command == name:
            add_arguments(sub.add_parser(name, help=help_line))
    return parser


def _refuse_undecodable(argv: list[str]) -> None:
    """A usage error for an argv token that the system gave as bytes that are
    not UTF-8: Python holds them as lone surrogates, which no sidecar or
    summary can write."""
    for token in argv:
        try:
            token.encode("utf-8")
        except UnicodeEncodeError:
            raise _UsageExit(f"argument {token!r} is not UTF-8 text") from None


def main(argv: list[str] | None = None) -> int:
    """Run one command; write its sidecar and stdout summary, or its stderr error."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        _refuse_undecodable(argv)
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        status, summary, written = args.func(args)
        if written:
            write_cli_trace(_sidecar(args, written), ["loadsmith", *argv], _inputs(args), written)
        if summary is not None:
            sys.stdout.write(json.dumps(summary, indent=2, ensure_ascii=False) + "\n")
        return status
    except LoadsmithError as exc:
        error, status = exc, (EXIT_USAGE if isinstance(exc, _UsageExit) else EXIT_PROCESSING)
    except FileNotFoundError as exc:
        error, status = LoadsmithError(str(exc), code="FILE_NOT_FOUND"), EXIT_INFRASTRUCTURE
    except OSError as exc:
        error, status = LoadsmithError(str(exc), code="IO_ERROR"), EXIT_INFRASTRUCTURE
    except ValueError as exc:
        error, status = LoadsmithError(str(exc), code="VALUE_ERROR"), EXIT_PROCESSING
    sys.stderr.write(json.dumps({"error": error.to_dict()}, ensure_ascii=False) + "\n")
    return status
