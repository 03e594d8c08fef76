"""Evaluation harness: scenarios, deterministic checks, judges, pass^k."""

from .checks import (
    CheckResult,
    ReferenceError,
    file_set_check,
    numeric_file_compare,
    text_golden_check,
)
from .fixtures import FixtureError, generate_fixture
from .judge import HttpJudge, JudgeVerdict, StubJudge, judge_check
from .passk import DEFAULT_ALPHA, min_k_for, pass_lower_bound
from .runner import EvalReport, RunOutcome, RunTrace, run_scenario
from .scenario import CheckSpec, Environment, Scenario, StageItem, load_scenario, parse_scenario

__all__ = [
    "CheckResult",
    "CheckSpec",
    "DEFAULT_ALPHA",
    "Environment",
    "EvalReport",
    "FixtureError",
    "HttpJudge",
    "JudgeVerdict",
    "ReferenceError",
    "RunOutcome",
    "RunTrace",
    "Scenario",
    "StageItem",
    "StubJudge",
    "file_set_check",
    "generate_fixture",
    "judge_check",
    "load_scenario",
    "min_k_for",
    "numeric_file_compare",
    "parse_scenario",
    "pass_lower_bound",
    "run_scenario",
    "text_golden_check",
]
