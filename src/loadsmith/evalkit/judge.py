"""Artifact judge: a check that grades artifact files against a rubric.

The rubric is scenario data: a list of rules, one per line, ``require:
<regex>`` or ``forbid: <regex>`` (``#`` comments and blank lines ignored),
evaluated against the concatenated artifact text. ``read_rubric`` reads it,
and refuses a line that is neither rule, a bad regex and a rubric with no
rules as a :class:`SchemaError`; the scenario reader calls it, so a
malformed rubric is refused before any repetition runs.

``judge_check`` keeps the contract of the other checks: it returns a
:class:`CheckResult`, "pass" or "fail" with its rationale, and it always
gives a verdict. The artifacts are the subject's output, so they are read
like any other file on the run side: one that is missing, unreadable or not
UTF-8 fails the check with a diff that names it.
"""

from __future__ import annotations

import re
from pathlib import Path

from .. import strict
from ..errors import SchemaError
from .checks import CheckResult, check, read_run_file


def read_rubric(text: str, location: str) -> tuple[tuple[str, str, re.Pattern], ...]:
    """The rules of rubric ``text``, each ``(mode, pattern, regex)``; a
    malformed rubric raises SchemaError at ``location``."""
    rules = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("require:"):
            mode, pattern = "require", line[len("require:"):].strip()
        elif line.startswith("forbid:"):
            mode, pattern = "forbid", line[len("forbid:"):].strip()
        else:
            raise SchemaError(
                f"rubric line {lineno} is neither 'require:' nor 'forbid:'", location=location
            )
        try:
            rules.append((mode, pattern, re.compile(pattern, re.MULTILINE)))
        except re.error as exc:
            raise SchemaError(f"rubric line {lineno}: bad regex ({exc})", location=location) from exc
    if not rules:
        raise SchemaError("rubric contains no rules", location=location)
    return tuple(rules)


def _read_artifact(path: Path) -> str:
    """The artifact's text, read as a run-side file; every line end reads as
    one newline, as in a file opened in text mode."""
    text = read_run_file(path, "artifact", lambda p: strict.read_text(p, f"artifact {p.name}"))
    return text.replace("\r\n", "\n").replace("\r", "\n")


@check("judge")
def judge_check(artifacts: list[Path], rubric: str) -> CheckResult:
    """Grade ``artifacts`` against ``rubric``; an artifact that cannot be
    read fails the check."""
    rules = read_rubric(rubric, "rubric")
    combined = "\n".join(_read_artifact(path) for path in artifacts)
    for mode, pattern, regex in rules:
        hit = regex.search(combined)
        if mode == "require" and not hit:
            return CheckResult("judge", "fail", rationale=f"required pattern not found: {pattern}")
        if mode == "forbid" and hit:
            return CheckResult("judge", "fail", rationale=f"forbidden pattern found: {pattern}")
    return CheckResult("judge", "pass", rationale=f"all {len(rules)} rubric rules satisfied")
