"""Scenario runner: k isolated repetitions, traces, checks, aggregation.

Every repetition gets a fresh working directory with the declared inputs
staged in, runs the subject command there, and is then graded by the
scenario's checks. Staging problems and unreadable references are
infrastructure failures: they invalidate the repetition and are flagged
separately, never counted as the subject failing a check. A file the
subject was to leave in the run directory that is missing or unreadable,
by contrast, fails its check, and a nonzero subject exit status is just a
recorded fact for the checks to interpret.

Each run directory ``run_<i>`` has its trace, ``run_<i>.trace.ndjson``,
beside it, so the subject can neither write over it nor list it: the run's
one record (argv, Python and loadsmith versions, the YAML backend, checksums
of staged inputs, timestamps, stdout/stderr, each verdict, and an
``artifact`` checksum for every file the subject wrote or changed, a CLI
sidecar of its own included). The aggregated report lands beside the run
directories as ``report.json``, naming each run's trace, with a one-line
reason for each failed repetition.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

from .checks import CHECKS, CheckResult, ReferenceError
from .passk import pass_lower_bound
from .scenario import CheckSpec, Scenario
from .. import yaml_reader
from ..errors import OutOfRangeError
from ..trace import TraceWriter, environment, file_record, utc_now


class RunOutcome(NamedTuple):
    run_index: int
    trace: str  # run_<i>.trace.ndjson, relative to the report's directory
    exit_status: int | None
    verdicts: tuple[CheckResult, ...]
    passed: bool
    reason: str | None = None  # why the repetition failed, in one line
    infrastructure_error: str | None = None

    def to_dict(self) -> dict:
        return {**self._asdict(), "verdicts": [v.to_dict() for v in self.verdicts]}


class EvalReport(NamedTuple):
    scenario_id: str
    k: int
    alpha: float
    passes: int
    pass_hat_k: bool
    lower_bound: float | None
    infrastructure_failures: int
    runs: tuple[RunOutcome, ...]  # last, so that report.json lists the runs after the totals

    def to_dict(self) -> dict:
        return {**self._asdict(), "runs": [r.to_dict() for r in self.runs]}


def _expand_command(command: tuple[str, ...]) -> list[str]:
    return [sys.executable if token == "{python}" else token for token in command]


def _subject_env() -> dict[str, str]:
    """The harness's environment, with ``PYTHONPATH`` entries made absolute.

    The subject runs inside its run directory, where a relative entry such
    as ``src`` would name a directory that does not exist. Each entry is
    resolved against the harness's working directory instead, so the
    subject imports what the harness imports; an empty entry means the
    current directory to Python and so resolves to that directory too.
    """
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(entry) for entry in env["PYTHONPATH"].split(os.pathsep)
        )
    return env


def _run_check(spec: CheckSpec, workdir: Path, base_dir: Path) -> CheckResult:
    """``spec``'s check, with its run-side paths joined to ``workdir`` and its
    ``reference`` to ``base_dir``; an omitted optional field takes its default."""
    params = dict(spec.params)
    for name, value in spec.params.items():
        if name in ("actual", "dir"):
            params[name] = workdir / value
        elif name == "artifacts":
            params[name] = [workdir / artifact for artifact in value]
        elif name == "reference":
            params[name] = base_dir / value
    function, _, _ = CHECKS[spec.kind]
    return function(**params)


def _failure_reason(exit_status: int | None, stderr: str, verdicts: list[CheckResult]) -> str:
    """Why a repetition that ran failed: its exit status with the last
    stderr line, else the first failing check with its first diff."""
    if exit_status != 0:
        last = (stderr.strip().splitlines() or ["(no stderr)"])[-1]
        return f"exit status {exit_status}: {last}"
    failed = next(v for v in verdicts if not v.passed)
    detail = failed.diffs[0] if failed.diffs else failed.rationale
    return f"{failed.kind} check failed: {detail.splitlines()[0]}"


def _single_run(scenario: Scenario, run_index: int, run_dir: Path) -> RunOutcome:
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    trace = f"{run_dir.name}.trace.ndjson"
    with TraceWriter(run_dir.parent / trace) as writer:

        def infrastructure_failure(reason: str, exit_status=None, verdicts=()) -> RunOutcome:
            writer.emit("infrastructure_error", reason=reason)
            return RunOutcome(run_index, trace, exit_status, tuple(verdicts), False, reason, reason)

        argv = _expand_command(scenario.environment.subject_command)
        started = utc_now()

        staged = {}  # path in the run directory -> sha256 as staged
        try:
            for item in scenario.environment.stage:
                source = scenario.base_dir / item.source
                dest = run_dir / item.dest
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(source, dest)
                record = file_record(dest, relative_to=run_dir)
                staged[record["path"]] = record["sha256"]
                writer.emit("stage", **record)
        except OSError as exc:
            return infrastructure_failure(f"staging failed: {exc}")

        # the measured versions win over a record key of the same name; the subject
        # runs in this environment, so the YAML backend is the installed parser, the
        # one its YAML outside the block subset goes to (its sidecars name the reader)
        writer.emit(
            "versions",
            **{**scenario.environment.record, **environment(), "yaml_backend": yaml_reader.backend()},
        )

        env = _subject_env()
        try:
            proc = subprocess.run(
                argv, cwd=run_dir, env=env, capture_output=True, text=True,
                errors="replace", timeout=600,
            )
            exit_status: int | None = proc.returncode
            stdout, stderr = proc.stdout, proc.stderr
            launch_error = None
        except (OSError, subprocess.TimeoutExpired) as exc:
            exit_status, stdout, stderr = None, "", ""
            launch_error = f"subject failed to run: {exc}"
        writer.emit("exec", argv=argv, exit_status=exit_status,
                    started_at=started, finished_at=utc_now(),
                    stdout=stdout, stderr=stderr, pythonpath=env.get("PYTHONPATH"))

        for path in sorted(run_dir.rglob("*")):
            if not path.is_file():
                continue
            record = file_record(path, relative_to=run_dir)
            if staged.get(record["path"]) != record["sha256"]:
                writer.emit("artifact", **record)

        if launch_error is not None:
            return infrastructure_failure(launch_error)

        verdicts: list[CheckResult] = []
        for spec in scenario.checks:
            try:
                result = _run_check(spec, run_dir, scenario.base_dir)
            except ReferenceError as exc:
                return infrastructure_failure(str(exc), exit_status, verdicts)
            verdicts.append(result)
            writer.emit("check", **result.to_dict())

        passed = all(v.passed for v in verdicts)
        writer.emit("result", passed=passed)
        reason = None if passed else _failure_reason(exit_status, stderr, verdicts)
        return RunOutcome(run_index, trace, exit_status, tuple(verdicts), passed, reason)


def run_scenario(
    scenario: Scenario, out_root: str | Path, k: int | None = None
) -> EvalReport:
    """Execute a scenario's k repetitions and aggregate the outcome.

    Args:
        scenario: Parsed scenario definition.
        out_root: Directory that will hold run_1..run_k, their traces
            run_1.trace.ndjson..run_k.trace.ndjson, and report.json;
            re-running wipes and repopulates the run directories and
            rewrites their traces.
        k: Optional override of the scenario's repetition count.
    """
    reps = scenario.k if k is None else k
    if reps < 1:
        raise OutOfRangeError(f"k must be >= 1, got {reps}", code="BAD_REPETITIONS")
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)

    runs = tuple(
        _single_run(scenario, i, out_root / f"run_{i}") for i in range(1, reps + 1)
    )
    passes = sum(1 for r in runs if r.passed)
    pass_hat_k = passes == reps
    report = EvalReport(
        scenario_id=scenario.id,
        k=reps,
        alpha=scenario.alpha,
        passes=passes,
        pass_hat_k=pass_hat_k,
        lower_bound=pass_lower_bound(reps, scenario.alpha) if pass_hat_k else None,
        infrastructure_failures=sum(1 for r in runs if r.infrastructure_error),
        runs=runs,
    )
    (out_root / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return report
