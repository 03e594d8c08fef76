"""Command-line interface: the whole pipeline plus the evaluation harness.

Exit codes form a contract orchestrators can branch on:

* 0 - success
* 1 - usage error
* 2 - validation or processing failure
* 3 - processing succeeded but the new loads exceed the previous envelope
* 4 - infrastructure failure (missing files, I/O trouble)

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

OUT_DIR_ENV = "LOADSMITH_OUT_DIR"


class _UsageExit(LoadsmithError):
    def __init__(self, message: str):
        super().__init__(message, code="USAGE")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for processing
    # failures, so route usage problems through our own handler.
    def error(self, message):
        raise _UsageExit(message)


def _load_tolerances(path: str | None) -> Tolerance:
    """Default tolerances, or those of a ``{"tolerances": {"abs": x, "rel": y}}`` config file."""
    if path is None:
        return Tolerance()
    config = strict.read_json(strict.read_text(path, "config"), "config")
    strict.expect_keys(strict.expect_mapping(config, "$"), ("tolerances",), (), "$")
    tolerances = strict.expect_mapping(config["tolerances"], "tolerances")
    strict.expect_keys(tolerances, ("abs", "rel"), (), "tolerances")
    return Tolerance(
        *(strict.expect_number(tolerances[key], f"tolerances.{key}") for key in ("abs", "rel"))
    )


def _default_out_dir(explicit: str | None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return Path(env)
    raise _UsageExit(f"--out-dir is required (or set {OUT_DIR_ENV})")


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


def _parse_units(token: str) -> UnitSystem:
    parts = token.split(",")
    if len(parts) != 2:
        raise _UsageExit("--units expects FORCE,MOMENT (for example N,N·m)")
    return UnitSystem(parts[0].strip(), parts[1].strip())


def _parse_component(token: str) -> Component:
    try:
        return Component[token.strip().upper()]
    except KeyError:
        raise _UsageExit(f"unknown component {token!r}; expected one of FX FY FZ MX MY MZ")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


# --- subcommand implementations -----------------------------------------
# Each returns (exit code, stdout summary or None, files written).


def _cmd_convert(args):
    delivery = ingest.load_delivery(args.input)
    out = Path(args.out)
    write = ingest.write_delivery_json if args.to == "json" else ingest.write_delivery_yaml
    _write_text(out, write(delivery))
    return EXIT_OK, {"written": str(out), "format": args.to}, [out]


def _cmd_validate(args):
    raw = Path(args.input).read_bytes()
    delivery = ingest.parse_delivery(raw)
    report = ingest.validate_delivery(delivery)
    return (EXIT_OK if report.ok else EXIT_PROCESSING), report.to_dict(), []


def _cmd_transform(args):
    delivery = ingest.load_delivery(args.input)
    summary: dict = {}

    renames = {}
    for spec in args.rename or []:
        if "=" not in spec:
            raise _UsageExit(f"--rename expects old=new, got {spec!r}")
        old, new = spec.split("=", 1)
        if old in renames:
            raise _UsageExit(f"--rename names point {old!r} twice")
        renames[old] = new
    if renames:
        delivery, count = transform.rename_points(delivery, renames)
        summary["rename_count"] = count

    for spec in args.scale or []:
        if "=" not in spec:
            raise _UsageExit(f"--scale expects COMP=factor, got {spec!r}")
        comp_token, factor_token = spec.split("=", 1)
        component = _parse_component(comp_token)
        try:
            factor = _float(factor_token)
        except ValueError:
            raise _UsageExit(f"--scale factor must be a number, got {factor_token!r}")
        delivery = transform.scale_component(delivery, component, factor)
        summary.setdefault("scaled", []).append({"component": component.name, "factor": factor})

    if args.units is not None:
        target = _parse_units(args.units)
        delivery = transform.convert_units(delivery, target)
        summary["units"] = {"force": target.force_unit, "moment": target.moment_unit}

    if args.ultimate_factor is not None:
        delivery = transform.apply_ultimate_factor(delivery, args.ultimate_factor)
        summary["ultimate_factor"] = args.ultimate_factor

    out = Path(args.out)
    as_yaml = args.to == "yaml" or (args.to is None and out.suffix in (".yaml", ".yml"))
    write = ingest.write_delivery_yaml if as_yaml else ingest.write_delivery_json
    _write_text(out, write(delivery))
    summary["written"] = str(out)
    return EXIT_OK, summary, [out]


def _cmd_equilibrium(args):
    defaults = _load_tolerances(args.config)
    tol = Tolerance(
        abs=args.abs_tol if args.abs_tol is not None else defaults.abs,
        rel=args.rel_tol if args.rel_tol is not None else defaults.rel,
    )
    delivery = ingest.load_delivery(args.input)
    coords = None
    if args.coords is not None:
        text = strict.read_text(args.coords, "coords")
        coords = ingest.read_coordinates(strict.read_json(text, "coords"), "coords")
    survey = check_equilibrium_all(delivery, tol=tol, coords=coords)
    return (EXIT_OK if survey.all_balanced else EXIT_PROCESSING), survey.to_dict(), []


def _cmd_envelope(args):
    delivery = ingest.load_delivery(args.input)
    selection = envelope_select(delivery)
    out_dir = _default_out_dir(args.out_dir)
    md_path = out_dir / "envelope.md"
    json_path = out_dir / "envelope_extremes.json"
    _write_text(md_path, export.envelope_to_markdown(selection.extremes))
    _write_text(json_path, export.write_envelope_json(selection.extremes))
    summary = {"selected_case_ids": list(selection.selected_case_ids)}
    summary["written"] = [str(md_path), str(json_path)]
    return EXIT_OK, summary, [md_path, json_path]


def _cmd_export_ansys(args):
    delivery = ingest.load_delivery(args.input)
    nodes = export.load_node_map(args.node_map)
    selected = []
    for token in args.select.split(","):
        token = token.strip()
        if token:
            try:
                selected.append(_int(token))
            except ValueError:
                raise _UsageExit(f"--select expects integers, got {token!r}")
    exclude = frozenset(
        token.strip() for token in (args.exclude or "").split(",") if token.strip()
    )
    out_dir = _default_out_dir(args.out_dir)
    paths = export.export_all_inp(delivery, selected, nodes, exclude, out_dir)
    return EXIT_OK, {"written": [str(p) for p in paths]}, paths


def _refuse_overwriting_inputs(out: Path, inputs: tuple[str, ...]) -> None:
    """A usage error when the report ``out`` or its markdown twin names one of ``inputs``."""
    for report in (out, out.with_suffix(".md")):
        for name in inputs:
            try:
                same = os.path.samefile(report, name)
            except OSError:  # one of the two does not exist
                same = report.resolve() == Path(name).resolve()
            if same:
                raise _UsageExit(f"the report {str(report)!r} would overwrite the input {name!r}")


def _cmd_compare(args):
    if args.out is not None:
        if Path(args.out).suffix == ".md":
            raise _UsageExit(f"--out {args.out!r} would be overwritten by the markdown report")
        _refuse_overwriting_inputs(Path(args.out), (args.new, args.old))
    new_text = strict.read_text(args.new, "new extremes")
    old_text = strict.read_text(args.old, "old extremes")
    report = compare_mod.compare_envelopes(
        export.read_envelope_json(new_text), export.read_envelope_json(old_text), args.widen_tol
    )
    if args.out is not None:
        out = Path(args.out)
    else:
        out = Path("comparison_report") / compare_mod.suggested_report_filename(report)
        _refuse_overwriting_inputs(out, (args.new, args.old))
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

    out_dir = Path(args.out_dir) if args.out_dir else Path(os.environ.get(OUT_DIR_ENV, "eval_runs"))
    all_pass = True
    any_infra = False
    summaries = []
    for scenario_path in args.scenarios:
        scenario = load_scenario(scenario_path)
        report = run_scenario(scenario, out_dir / scenario.id, k=args.k)
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
                "report": str(out_dir / scenario.id / "report.json"),
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


def build_parser() -> _Parser:
    parser = _Parser(prog="loadsmith", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a delivery between JSON and YAML")
    p.add_argument("input")
    p.add_argument("--to", choices=("json", "yaml"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("validate", help="validate a delivery and print the findings")
    p.add_argument("input")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "transform",
        help="rename points, apply correction factors, convert units (in that order)",
    )
    p.add_argument("input")
    p.add_argument("--rename", action="append", metavar="OLD=NEW")
    p.add_argument("--scale", action="append", metavar="COMP=FACTOR")
    p.add_argument("--units", metavar="FORCE,MOMENT")
    p.add_argument("--ultimate-factor", type=_float, dest="ultimate_factor")
    p.add_argument("--out", required=True)
    p.add_argument("--to", choices=("json", "yaml"))
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("equilibrium", help="verify force (and moment) equilibrium per case")
    p.add_argument("input")
    p.add_argument("--coords", help="JSON file {point: [x, y, z]} in meters")
    p.add_argument("--abs-tol", type=_float, dest="abs_tol")
    p.add_argument("--rel-tol", type=_float, dest="rel_tol")
    p.add_argument("--config", help='JSON file {"tolerances": {"abs": number, "rel": number}}')
    p.set_defaults(func=_cmd_equilibrium)

    p = sub.add_parser("envelope", help="downselect critical cases and write the envelope")
    p.add_argument("input")
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=_cmd_envelope)

    p = sub.add_parser("export-ansys", help="write one nodal-force .inp deck per selected case")
    p.add_argument("input")
    p.add_argument("--select", required=True, metavar="ID,ID,...")
    p.add_argument("--node-map", dest="node_map", required=True, help="JSON file {point: node id}")
    p.add_argument("--exclude", metavar="POINT,POINT,...")
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=_cmd_export_ansys)

    p = sub.add_parser("compare", help="exceedance comparison of new extremes vs old")
    p.add_argument("new")
    p.add_argument("old")
    p.add_argument("--out")
    p.add_argument("--widen-tol", type=_float, default=0.0, dest="widen_tol")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("eval", help="evaluation harness")
    eval_sub = p.add_subparsers(dest="eval_command", required=True)

    run_p = eval_sub.add_parser("run", help="run scenario repetitions and report pass^k")
    run_p.add_argument("scenarios", nargs="+")
    run_p.add_argument("-k", type=_int, default=None)
    run_p.add_argument("--out-dir", dest="out_dir")
    run_p.set_defaults(func=_cmd_eval_run)

    passk_p = eval_sub.add_parser("passk", help="minimum k for a target pass probability")
    passk_p.add_argument("--p", type=_float, required=True)
    passk_p.add_argument("--alpha", type=_float, default=0.05)
    passk_p.set_defaults(func=_cmd_eval_passk)

    p = sub.add_parser("docserve", help="serve a document catalog over stdio JSON-RPC")
    p.add_argument("catalog_dir")
    p.set_defaults(func=_cmd_docserve)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; write its sidecar and stdout summary, or its stderr error."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(argv)
        status, summary, written = args.func(args)
        if written:
            named = [vars(args)[n] for n in ("input", "node_map", "new", "old") if n in vars(args)]
            if "out_dir" in vars(args):
                sidecar = _default_out_dir(args.out_dir) / "trace.ndjson"
            else:
                sidecar = f"{written[0]}.trace.ndjson"
            write_cli_trace(sidecar, ["loadsmith", *argv], named, written)
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


if __name__ == "__main__":
    sys.exit(main())
