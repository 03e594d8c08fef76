"""Evaluation harness: scenarios, deterministic checks, judges, pass^k."""

# ReferenceError is what every check raises when it cannot give a verdict.
# It is importable by name but kept out of __all__, so a star import does
# not shadow the built-in of that name.
from .checks import (
    CheckResult,
    ReferenceError,
    file_set_check,
    numeric_file_compare,
    text_golden_check,
)
from .judge import judge_check
from .passk import min_k_for, pass_lower_bound
from .runner import EvalReport, RunOutcome, run_scenario
from .scenario import CheckSpec, Environment, Scenario, StageItem, load_scenario, parse_scenario

__all__ = [
    "CheckResult",
    "CheckSpec",
    "Environment",
    "EvalReport",
    "RunOutcome",
    "Scenario",
    "StageItem",
    "file_set_check",
    "judge_check",
    "load_scenario",
    "min_k_for",
    "numeric_file_compare",
    "parse_scenario",
    "pass_lower_bound",
    "run_scenario",
    "text_golden_check",
]
