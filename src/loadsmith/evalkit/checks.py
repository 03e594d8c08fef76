"""Deterministic artifact checks used by the scenario runner.

Each check kind is one function, registered in :data:`CHECKS` by
:func:`check`; its parameters are the kind's scenario fields. Each returns
a :class:`CheckResult`, "pass" or "fail".

A check reads each side of its comparison through its own reader, each
with one rule. ``read_run_file`` reads what the subject left in the run
directory (an ``actual`` file, a ``file_set`` directory's listing, a judge's
artifacts): a file that is missing, unreadable (a directory, say) or
refused by the strict reader fails the check with a diff that names it,
since the subject was to write it. ``read_reference`` reads the scenario's
own ``reference`` files: any such problem raises :class:`ReferenceError`,
because a broken reference invalidates the repetition rather than failing
the subject.

The judge matches artifact files against a rubric, which is scenario data:
one rule per line, ``require: <regex>`` or ``forbid: <regex>`` (``#``
comments and blank lines ignored), run against the artifacts' concatenated
text. The scenario reader calls :func:`read_rubric`, so a malformed rubric
is refused with its location before any repetition runs.
"""

from __future__ import annotations

import functools
import math
import re
from pathlib import Path
from typing import Callable, NamedTuple

from .. import strict
from ..errors import LoadsmithError, SchemaError


class CheckResult(NamedTuple):
    kind: str
    status: str  # "pass" | "fail"
    diffs: tuple[str, ...] = ()
    rationale: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "status": self.status}
        if self.diffs:
            out["diffs"] = list(self.diffs)
        if self.rationale is not None:
            out["rationale"] = self.rationale
        return out


class ReferenceError(LoadsmithError):
    """A check's ``reference`` file is unusable (infrastructure, not a fail).
    Only ``read_reference`` raises it: the judge, which has no reference
    file, always gives a verdict."""

    def __init__(self, message: str):
        super().__init__(message, code="REFERENCE_ERROR")


class _RunFileUnreadable(Exception):
    """A file on the run side that cannot be read; the check fails, naming it."""


def _describe(exc: LoadsmithError) -> str:
    return str(exc) if exc.location is None else f"{exc} at {exc.location}"


def _read(path: Path, what: str, parse, fault):
    """``parse(path)``; an operating-system error, which names ``what`` and
    ``path``, or a refusal of the strict reader raises ``fault``."""
    try:
        return parse(path)
    except OSError as exc:
        raise fault(f"{what} {path} could not be read: {exc.strerror or exc}") from exc
    except LoadsmithError as exc:
        raise fault(_describe(exc)) from exc


def read_run_file(path: Path, what: str, parse):
    """``parse(path)`` of a file the subject left in the run directory; one
    that cannot be read fails the check (see :func:`check`)."""
    return _read(path, what, parse, _RunFileUnreadable)


def read_reference(path: Path, what: str, parse):
    """``parse(path)`` of a reference file; one that cannot be read raises ReferenceError."""
    return _read(path, what, parse, ReferenceError)


# Each check kind: (its function, its required fields, its optional fields).
CHECKS: dict[str, tuple[Callable[..., CheckResult], tuple[str, ...], tuple[str, ...]]] = {}


def check(kind: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    """Register a function in :data:`CHECKS` as the check ``kind``, whose
    scenario fields are the function's parameters: ``required``, and
    ``optional`` ones, which take the function's defaults when a scenario
    omits them. A run-side file that :func:`read_run_file` cannot read gives
    a failing verdict naming it."""

    def decorate(function):
        @functools.wraps(function)
        def run(*args, **kwargs) -> CheckResult:
            try:
                return function(*args, **kwargs)
            except _RunFileUnreadable as exc:
                return CheckResult(kind, "fail", (str(exc),))

        CHECKS[kind] = (run, required, optional)
        return run

    return decorate


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _first_non_finite(node, path: str) -> str | None:
    """The path of the first number in ``node`` that is not finite, else None."""
    if isinstance(node, dict):
        children = ((f"{path}.{key}", value) for key, value in node.items())
    elif isinstance(node, list):
        children = ((f"{path}[{i}]", value) for i, value in enumerate(node))
    elif isinstance(node, (int, float)) and not _finite(node):
        return path
    else:
        return None
    for child_path, child in children:
        found = _first_non_finite(child, child_path)
        if found is not None:
            return found
    return None


def _walk_numeric_diffs(actual, reference, abs_tol, rel_tol, path, diffs):
    if isinstance(reference, dict):
        if not isinstance(actual, dict):
            diffs.append(f"{path}: expected object, got {type(actual).__name__}")
            return
        for key in reference:
            if key not in actual:
                diffs.append(f"{path}.{key}: missing in actual")
            else:
                _walk_numeric_diffs(
                    actual[key], reference[key], abs_tol, rel_tol, f"{path}.{key}", diffs
                )
        for key in actual:
            if key not in reference:
                diffs.append(f"{path}.{key}: unexpected key in actual")
    elif isinstance(reference, list):
        if not isinstance(actual, list):
            diffs.append(f"{path}: expected array, got {type(actual).__name__}")
            return
        if len(actual) != len(reference):
            diffs.append(f"{path}: length {len(actual)} != expected {len(reference)}")
            return
        for i, (a, r) in enumerate(zip(actual, reference)):
            _walk_numeric_diffs(a, r, abs_tol, rel_tol, f"{path}[{i}]", diffs)
    elif isinstance(reference, bool) or reference is None or isinstance(reference, str):
        if actual != reference:
            diffs.append(f"{path}: {actual!r} != expected {reference!r}")
    else:  # a number: the strict reader yields no other type
        tol = max(abs_tol, rel_tol * abs(reference))
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            diffs.append(f"{path}: expected number, got {actual!r}")
        elif not _finite(actual) or abs(actual - reference) > tol:
            diffs.append(f"{path}: {actual!r} != expected {reference!r}")


def _strict_json(what: str):
    """A ``parse`` for the readers: the file's JSON, read by the strict reader
    as the input named ``what``."""
    return lambda path: strict.read_json(strict.read_text(path, what), what)


@check("numeric_file_compare", ("actual", "reference"), ("abs_tol", "rel_tol"))
def numeric_file_compare(
    actual: str | Path,
    reference: str | Path,
    abs_tol: float = 0.0,
    rel_tol: float = 0.0,
) -> CheckResult:
    """Structurally compare two JSON files with numeric tolerances.

    Keys must match exactly; every numeric leaf must be finite and satisfy
    |actual - ref| <= max(abs_tol, rel_tol * |ref|). Both files are read by
    the strict reader, so one that is not UTF-8, not JSON or repeats a key
    cannot be read (see the module docstring); a reference that holds a
    non-finite number raises :class:`ReferenceError` too.
    """
    if not (0 <= abs_tol < math.inf and 0 <= rel_tol < math.inf):
        raise ValueError("tolerances must be finite and >= 0")
    reference = Path(reference)
    what = f"reference file {reference}"
    ref_data = read_reference(reference, "reference file", _strict_json(what))
    non_finite = _first_non_finite(ref_data, "$")
    if non_finite is not None:
        raise ReferenceError(f"{what} holds a non-finite number at {non_finite}")
    actual_data = read_run_file(Path(actual), "actual file", _strict_json("actual file"))

    diffs: list[str] = []
    _walk_numeric_diffs(actual_data, ref_data, abs_tol, rel_tol, "$", diffs)
    status = "pass" if not diffs else "fail"
    return CheckResult("numeric_file_compare", status, tuple(diffs))


@check("file_set", ("dir", "expected"))
def file_set_check(dir: str | Path, expected: list[str]) -> CheckResult:
    """Exact file-name set comparison for one output directory."""
    found = read_run_file(
        Path(dir), "directory", lambda d: {p.name for p in d.iterdir() if p.is_file()}
    )
    missing = sorted(set(expected) - found)
    extra = sorted(found - set(expected))
    diffs = [f"missing: {name}" for name in missing] + [f"unexpected: {name}" for name in extra]
    return CheckResult("file_set", "pass" if not diffs else "fail", tuple(diffs))


@check("text_golden", ("actual", "reference"))
def text_golden_check(actual: str | Path, reference: str | Path) -> CheckResult:
    """Byte-exact comparison between an artifact and its golden reference."""
    expected_bytes = read_reference(Path(reference), "reference file", Path.read_bytes)
    actual_bytes = read_run_file(Path(actual), "actual file", Path.read_bytes)
    if actual_bytes == expected_bytes:
        return CheckResult("text_golden", "pass")
    for lineno, (got, want) in enumerate(
        zip(actual_bytes.split(b"\n"), expected_bytes.split(b"\n")), start=1
    ):
        if got != want:
            return CheckResult(
                "text_golden",
                "fail",
                (f"first difference at line {lineno}: {got!r} != {want!r}",),
            )
    return CheckResult(
        "text_golden",
        "fail",
        (f"length differs: {len(actual_bytes)} vs {len(expected_bytes)} bytes",),
    )


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


@check("judge", ("artifacts", "rubric"))
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
