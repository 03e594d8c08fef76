"""Scenario runner: k isolated repetitions, traces, checks, aggregation.

Every repetition gets a fresh working directory with the declared inputs
staged in, runs the subject command there, and is then graded by the
scenario's checks. Staging problems, unreadable references and judge
transport errors are infrastructure failures: they invalidate the
repetition and are flagged separately, never counted as the subject
failing a check. A nonzero subject exit status, by contrast, is just a
recorded fact for the checks to interpret.

Each run directory keeps its own ``trace.ndjson`` (argv, Python and
loadsmith versions, the YAML backend, checksums of staged inputs and
produced artifacts, timestamps, stdout/stderr); the aggregated report
lands beside the run directories as ``report.json``, with a one-line
reason for each failed repetition.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .checks import (
    CheckResult,
    ReferenceError,
    file_set_check,
    numeric_file_compare,
    text_golden_check,
)
from .judge import ERROR as JUDGE_ERROR
from .judge import judge_check
from .passk import pass_lower_bound
from .scenario import CheckSpec, Scenario
from ..trace import TraceWriter, environment, file_record, utc_now

TRACE_FILENAME = "trace.ndjson"


@dataclass(frozen=True)
class RunTrace:
    run_index: int
    argv: tuple[str, ...]
    started_at: str
    finished_at: str
    exit_status: int | None
    stdout: str
    stderr: str
    staged_inputs: tuple[dict, ...] = field(default_factory=tuple)
    artifacts: tuple[dict, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "run_index": self.run_index,
            "argv": list(self.argv),
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "exit_status": self.exit_status,
            "stdout": self.stdout,
            "stderr": self.stderr,
            "staged_inputs": list(self.staged_inputs),
            "artifacts": list(self.artifacts),
        }


@dataclass(frozen=True)
class RunOutcome:
    trace: RunTrace
    verdicts: tuple[CheckResult, ...]
    passed: bool
    infrastructure_error: str | None = None

    @property
    def reason(self) -> str | None:
        """Why the repetition failed, in one line; None when it passed."""
        if self.passed:
            return None
        if self.infrastructure_error is not None:
            return self.infrastructure_error
        if self.trace.exit_status != 0:
            last = (self.trace.stderr.strip().splitlines() or ["(no stderr)"])[-1]
            return f"exit status {self.trace.exit_status}: {last}"
        failed = next(v for v in self.verdicts if not v.passed)
        detail = failed.diffs[0] if failed.diffs else failed.rationale
        if not detail:
            return f"{failed.kind} check failed"
        return f"{failed.kind} check failed: {detail.splitlines()[0]}"

    def to_dict(self) -> dict:
        return {
            "trace": self.trace.to_dict(),
            "verdicts": [v.to_dict() for v in self.verdicts],
            "passed": self.passed,
            "reason": self.reason,
            "infrastructure_error": self.infrastructure_error,
        }


@dataclass(frozen=True)
class EvalReport:
    scenario_id: str
    k: int
    alpha: float
    runs: tuple[RunOutcome, ...]
    passes: int
    pass_hat_k: bool
    lower_bound: float | None
    infrastructure_failures: int

    def to_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "k": self.k,
            "alpha": self.alpha,
            "passes": self.passes,
            "pass_hat_k": self.pass_hat_k,
            "lower_bound": self.lower_bound,
            "infrastructure_failures": self.infrastructure_failures,
            "runs": [r.to_dict() for r in self.runs],
        }


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
    params = spec.params
    if spec.kind == "numeric_file_compare":
        return numeric_file_compare(
            workdir / params["actual"],
            base_dir / params["reference"],
            abs_tol=params.get("abs_tol", 0.0),
            rel_tol=params.get("rel_tol", 0.0),
        )
    if spec.kind == "file_set":
        return file_set_check(workdir / params["dir"], params["expected"])
    if spec.kind == "text_golden":
        return text_golden_check(workdir / params["actual"], base_dir / params["reference"])
    if spec.kind == "judge":
        verdict = judge_check(
            [workdir / a for a in params["artifacts"]],
            params["rubric"],
            params["adapter"],
            endpoint=params.get("endpoint"),
        )
        if verdict.verdict == JUDGE_ERROR:
            raise ReferenceError(f"judge error: {verdict.rationale}")
        return CheckResult(
            "judge",
            "pass" if verdict.verdict == "PASS" else "fail",
            rationale=verdict.rationale,
        )
    raise ValueError(f"unhandled check kind {spec.kind!r}")


def _single_run(scenario: Scenario, run_index: int, run_dir: Path) -> RunOutcome:
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    writer = TraceWriter(run_dir / TRACE_FILENAME)
    argv = _expand_command(scenario.environment.subject_command)
    started = utc_now()

    staged: list[dict] = []
    try:
        for item in scenario.environment.stage:
            source = scenario.base_dir / item.source
            dest = run_dir / item.dest
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(source, dest)
            record = file_record(dest, relative_to=run_dir)
            staged.append(record)
            writer.emit("stage", **record)
    except OSError as exc:
        trace = RunTrace(
            run_index, tuple(argv), started, utc_now(), None, "", "",
            staged_inputs=tuple(staged),
        )
        writer.emit("infrastructure_error", reason=f"staging failed: {exc}")
        return RunOutcome(trace, (), False, infrastructure_error=f"staging failed: {exc}")

    # the measured versions win over a record key of the same name
    writer.emit("versions", **{**scenario.environment.record, **environment()})

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
    finished = utc_now()
    writer.emit("exec", argv=argv, exit_status=exit_status,
                started_at=started, finished_at=finished,
                stdout=stdout, stderr=stderr, pythonpath=env.get("PYTHONPATH"))

    staged_names = {record["path"] for record in staged}
    artifacts = []
    for path in sorted(run_dir.rglob("*")):
        if not path.is_file() or path.name == TRACE_FILENAME:
            continue
        record = file_record(path, relative_to=run_dir)
        if record["path"] in staged_names:
            continue
        artifacts.append(record)
        writer.emit("artifact", **record)

    trace = RunTrace(
        run_index=run_index,
        argv=tuple(argv),
        started_at=started,
        finished_at=finished,
        exit_status=exit_status,
        stdout=stdout,
        stderr=stderr,
        staged_inputs=tuple(staged),
        artifacts=tuple(artifacts),
    )

    if launch_error is not None:
        writer.emit("infrastructure_error", reason=launch_error)
        return RunOutcome(trace, (), False, infrastructure_error=launch_error)

    verdicts: list[CheckResult] = []
    for spec in scenario.checks:
        try:
            result = _run_check(spec, run_dir, scenario.base_dir)
        except ReferenceError as exc:
            writer.emit("infrastructure_error", reason=str(exc))
            return RunOutcome(
                trace, tuple(verdicts), False, infrastructure_error=str(exc)
            )
        verdicts.append(result)
        writer.emit("check", **result.to_dict())

    passed = all(v.passed for v in verdicts)
    writer.emit("result", passed=passed)
    return RunOutcome(trace, tuple(verdicts), passed)


def run_scenario(
    scenario: Scenario, out_root: str | Path, k: int | None = None
) -> EvalReport:
    """Execute a scenario's k repetitions and aggregate the outcome.

    Args:
        scenario: Parsed scenario definition.
        out_root: Directory that will hold run_1..run_k and report.json;
            re-running wipes and repopulates the run directories.
        k: Optional override of the scenario's repetition count.
    """
    reps = scenario.k if k is None else k
    if reps < 1:
        raise ValueError("k must be >= 1")
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
        runs=runs,
        passes=passes,
        pass_hat_k=pass_hat_k,
        lower_bound=pass_lower_bound(reps, scenario.alpha) if pass_hat_k else None,
        infrastructure_failures=sum(1 for r in runs if r.infrastructure_error),
    )
    (out_root / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return report
