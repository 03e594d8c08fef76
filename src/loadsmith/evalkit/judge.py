"""Artifact judges: a check that grades artifact files against a rubric.

``judge_check`` keeps the contract of the other checks: it returns a
:class:`CheckResult`, "pass" or "fail" with the judge's rationale, and
raises :class:`ReferenceError` (``judge error: <why>``) when the judge
cannot give a verdict, because a judge that could not run says nothing
about the subject. The artifacts are the subject's output, so they are
read like any other file on the run side: one that is missing, unreadable
or not UTF-8 fails the check with a diff that names it. Two adapters ship
with the toolkit:

* ``stub``: a local, scripted judge. The rubric is a list of rules, one per
  line, ``require: <regex>`` or ``forbid: <regex>`` (``#`` comments and
  blank lines ignored), evaluated against the concatenated artifact text.
  It exists so the full evaluation suite runs offline and deterministically.
* ``http``: posts ``{"rubric": ..., "artifacts": [{"path", "content"}]}``
  to an endpoint and expects ``{"verdict": "PASS"|"FAIL", "rationale": ...}``
  back, so a hosted model can be swapped in without touching the harness.
  The response is read by the strict reader: ``verdict`` is a required
  string, ``rationale`` an optional one, and nothing else is accepted.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .. import strict
from ..errors import LoadsmithError
from .checks import CheckResult, ReferenceError, check, read_run_file

HTTP_TIMEOUT_S = 30.0


def _error(why: str) -> ReferenceError:
    return ReferenceError(f"judge error: {why}")


def _read_artifacts(artifacts: list[Path]) -> list[tuple[str, str]]:
    """Each artifact's name and text, read as a run-side file; every line
    end reads as one newline, as in a file opened in text mode."""
    texts = []
    for path in artifacts:
        text = read_run_file(path, "artifact", lambda p: strict.read_text(p, f"artifact {p.name}"))
        texts.append((path.name, text.replace("\r\n", "\n").replace("\r", "\n")))
    return texts


def _stub(artifacts: list[Path], rubric: str, endpoint: str | None) -> tuple[bool, str]:
    """Rule-based local judge; see module docstring for the rubric grammar."""
    rules = []
    for lineno, line in enumerate(rubric.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("require:"):
            mode, pattern = "require", line[len("require:"):].strip()
        elif line.startswith("forbid:"):
            mode, pattern = "forbid", line[len("forbid:"):].strip()
        else:
            raise _error(f"rubric line {lineno} is neither 'require:' nor 'forbid:'")
        try:
            rules.append((mode, pattern, re.compile(pattern, re.MULTILINE)))
        except re.error as exc:
            raise _error(f"rubric line {lineno}: bad regex ({exc})") from exc
    if not rules:
        raise _error("rubric contains no rules")

    combined = "\n".join(text for _, text in _read_artifacts(artifacts))
    for mode, pattern, regex in rules:
        hit = regex.search(combined)
        if mode == "require" and not hit:
            return False, f"required pattern not found: {pattern}"
        if mode == "forbid" and hit:
            return False, f"forbidden pattern found: {pattern}"
    return True, f"all {len(rules)} rubric rules satisfied"


def _http(artifacts: list[Path], rubric: str, endpoint: str | None) -> tuple[bool, str]:
    """Remote judge speaking the JSON request/response contract."""
    if not endpoint:
        raise _error("http judge adapter requires an endpoint")
    payload = json.dumps(
        {
            "rubric": rubric,
            "artifacts": [
                {"path": name, "content": text} for name, text in _read_artifacts(artifacts)
            ],
        }
    ).encode("utf-8")
    # Imported here: the HTTP stack is most of the harness's import time,
    # and only this adapter uses it.
    import http.client
    import urllib.request

    try:
        request = urllib.request.Request(
            endpoint, data=payload, headers={"Content-Type": "application/json"}
        )
        with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_S) as response:
            body = response.read()
    # OSError covers urllib's URLError; ValueError is an endpoint of no known
    # scheme, and HTTPException a URL with a space or a malformed reply.
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise _error(f"judge endpoint unreachable: {exc}") from exc
    try:
        text = strict.decode(body, "judge response")
        data = strict.expect_mapping(strict.read_json(text, "judge response"), "$")
        strict.expect_keys(data, ("verdict",), ("rationale",), "$")
        verdict = strict.expect_text(data["verdict"], "verdict")
        rationale = strict.expect_text(data.get("rationale", ""), "rationale")
    except LoadsmithError as exc:
        raise _error(f"unparseable judge response: {exc}") from exc
    if verdict not in ("PASS", "FAIL"):
        raise _error(f"judge returned unknown verdict {verdict!r}")
    return verdict == "PASS", rationale


# Adapter name -> judge(artifacts, rubric, endpoint) -> (passed, rationale).
ADAPTERS = {"stub": _stub, "http": _http}


@check("judge")
def judge_check(
    artifacts: list[Path], rubric: str, adapter: str, endpoint: str | None = None
) -> CheckResult:
    """Grade ``artifacts`` against ``rubric`` with the named adapter; an
    unknown adapter, or one that cannot give a verdict, raises ReferenceError,
    and an artifact that cannot be read fails the check."""
    if adapter not in ADAPTERS:
        raise _error(f"no judge adapter registered under {adapter!r}")
    passed, rationale = ADAPTERS[adapter](artifacts, rubric, endpoint)
    return CheckResult("judge", "pass" if passed else "fail", rationale=rationale)
