"""Deterministic artifact checks used by the scenario runner.

Each check returns a :class:`CheckResult` with status "pass" or "fail";
problems on the reference side (missing or unparseable expected data) raise
instead, because a broken reference invalidates the repetition rather than
failing the subject.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .. import strict
from ..errors import LoadsmithError


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
    """The check's own reference data is unusable (infrastructure, not a fail)."""

    def __init__(self, message: str):
        super().__init__(message, code="REFERENCE_ERROR")


def _describe(exc: LoadsmithError) -> str:
    return str(exc) if exc.location is None else f"{exc} at {exc.location}"


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
    elif isinstance(reference, (int, float)):
        tol = max(abs_tol, rel_tol * abs(reference))
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            diffs.append(f"{path}: expected number, got {actual!r}")
        elif not _finite(actual) or abs(actual - reference) > tol:
            diffs.append(f"{path}: {actual!r} != expected {reference!r}")
    else:
        diffs.append(f"{path}: unsupported reference value {reference!r}")


def numeric_file_compare(
    actual: str | Path,
    reference: str | Path,
    abs_tol: float = 0.0,
    rel_tol: float = 0.0,
) -> CheckResult:
    """Structurally compare two JSON files with numeric tolerances.

    Keys must match exactly; every numeric leaf must be finite and satisfy
    |actual - ref| <= max(abs_tol, rel_tol * |ref|). Both files are read by
    the strict reader. An actual file that is missing, not UTF-8, not JSON
    or repeats a key is a failing verdict (that is the subject's output); a
    reference that is any of those or holds a non-finite number raises
    :class:`ReferenceError`.
    """
    if not (0 <= abs_tol < math.inf and 0 <= rel_tol < math.inf):
        raise ValueError("tolerances must be finite and >= 0")
    reference = Path(reference)
    actual = Path(actual)
    what = f"reference file {reference}"
    try:
        ref_data = strict.read_json(strict.read_text(reference, what), what)
    except FileNotFoundError as exc:
        raise ReferenceError(f"reference file missing: {reference}") from exc
    except LoadsmithError as exc:
        raise ReferenceError(_describe(exc)) from exc
    non_finite = _first_non_finite(ref_data, "$")
    if non_finite is not None:
        raise ReferenceError(f"{what} holds a non-finite number at {non_finite}")
    try:
        actual_data = strict.read_json(strict.read_text(actual, "actual file"), "actual file")
    except FileNotFoundError:
        return CheckResult("numeric_file_compare", "fail", (f"actual file missing: {actual}",))
    except LoadsmithError as exc:
        return CheckResult("numeric_file_compare", "fail", (_describe(exc),))

    diffs: list[str] = []
    _walk_numeric_diffs(actual_data, ref_data, abs_tol, rel_tol, "$", diffs)
    status = "pass" if not diffs else "fail"
    return CheckResult("numeric_file_compare", status, tuple(diffs))


def file_set_check(directory: str | Path, expected: list[str]) -> CheckResult:
    """Exact file-name set comparison for one output directory."""
    directory = Path(directory)
    if not directory.is_dir():
        return CheckResult("file_set", "fail", (f"directory missing: {directory}",))
    found = {p.name for p in directory.iterdir() if p.is_file()}
    missing = sorted(set(expected) - found)
    extra = sorted(found - set(expected))
    diffs = [f"missing: {name}" for name in missing] + [f"unexpected: {name}" for name in extra]
    return CheckResult("file_set", "pass" if not diffs else "fail", tuple(diffs))


def text_golden_check(actual: str | Path, reference: str | Path) -> CheckResult:
    """Byte-exact comparison between an artifact and its golden reference."""
    reference = Path(reference)
    actual = Path(actual)
    try:
        expected_bytes = reference.read_bytes()
    except FileNotFoundError as exc:
        raise ReferenceError(f"golden file missing: {reference}") from exc
    try:
        actual_bytes = actual.read_bytes()
    except FileNotFoundError:
        return CheckResult("text_golden", "fail", (f"actual file missing: {actual}",))
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
