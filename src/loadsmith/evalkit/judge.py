"""Pluggable artifact judges.

A judge grades a set of artifact files against a rubric and returns PASS,
FAIL or ERROR. Two adapters ship with the toolkit:

* ``stub``: a local, scripted judge. The rubric is a list of rules, one per
  line, ``require: <regex>`` or ``forbid: <regex>`` (``#`` comments and
  blank lines ignored), evaluated against the concatenated artifact text.
  It exists so the full evaluation suite runs offline and deterministically.
* ``http``: posts ``{"rubric": ..., "artifacts": [{"path", "content"}]}``
  to an endpoint and expects ``{"verdict": "PASS"|"FAIL", "rationale": ...}``
  back, so a hosted model can be swapped in without touching the harness.

Transport failures and unparseable responses are ERROR, never FAIL: a judge
that could not run says nothing about the subject.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

PASS = "PASS"
FAIL = "FAIL"
ERROR = "ERROR"


@dataclass(frozen=True)
class JudgeVerdict:
    verdict: str  # PASS | FAIL | ERROR
    rationale: str

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "rationale": self.rationale}


def _read_artifacts(artifacts: list[Path]) -> list[tuple[str, str]] | None:
    contents = []
    for path in artifacts:
        try:
            contents.append((path.name, Path(path).read_text(encoding="utf-8")))
        except OSError:
            return None
    return contents


class StubJudge:
    """Rule-based local judge; see module docstring for the rubric grammar."""

    name = "stub"

    def judge(self, artifacts: list[Path], rubric: str) -> JudgeVerdict:
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
                return JudgeVerdict(
                    ERROR, f"rubric line {lineno} is neither 'require:' nor 'forbid:'"
                )
            try:
                rules.append((mode, pattern, re.compile(pattern, re.MULTILINE)))
            except re.error as exc:
                return JudgeVerdict(ERROR, f"rubric line {lineno}: bad regex ({exc})")
        if not rules:
            return JudgeVerdict(ERROR, "rubric contains no rules")

        contents = _read_artifacts(artifacts)
        if contents is None:
            return JudgeVerdict(ERROR, "an artifact file could not be read")
        combined = "\n".join(text for _, text in contents)

        for mode, pattern, regex in rules:
            hit = regex.search(combined)
            if mode == "require" and not hit:
                return JudgeVerdict(FAIL, f"required pattern not found: {pattern}")
            if mode == "forbid" and hit:
                return JudgeVerdict(FAIL, f"forbidden pattern found: {pattern}")
        return JudgeVerdict(PASS, f"all {len(rules)} rubric rules satisfied")


class HttpJudge:
    """Generic remote judge speaking the JSON request/response contract."""

    name = "http"

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self.endpoint = endpoint
        self.timeout = timeout

    def judge(self, artifacts: list[Path], rubric: str) -> JudgeVerdict:
        contents = _read_artifacts(artifacts)
        if contents is None:
            return JudgeVerdict(ERROR, "an artifact file could not be read")
        payload = json.dumps(
            {
                "rubric": rubric,
                "artifacts": [{"path": name, "content": text} for name, text in contents],
            }
        ).encode("utf-8")
        # Imported here: the HTTP stack is most of the harness's import time,
        # and only this adapter uses it.
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            self.endpoint, data=payload, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = response.read()
        except (urllib.error.URLError, OSError) as exc:
            return JudgeVerdict(ERROR, f"judge endpoint unreachable: {exc}")
        try:
            data = json.loads(body.decode("utf-8"))
            verdict = data["verdict"]
            rationale = data.get("rationale", "")
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            return JudgeVerdict(ERROR, f"unparseable judge response: {exc}")
        if verdict not in (PASS, FAIL):
            return JudgeVerdict(ERROR, f"judge returned unknown verdict {verdict!r}")
        return JudgeVerdict(verdict, rationale)


def get_adapter(name: str, endpoint: str | None = None):
    """Resolve an adapter id: 'stub', or 'http', which requires an endpoint."""
    if name == "stub":
        return StubJudge()
    if name == "http":
        if not endpoint:
            raise KeyError("http judge adapter requires an endpoint")
        return HttpJudge(endpoint)
    raise KeyError(f"no judge adapter registered under {name!r}")


def judge_check(
    artifacts: list[Path], rubric: str, adapter: str, endpoint: str | None = None
) -> JudgeVerdict:
    """Dispatch a judgment request to the named adapter."""
    try:
        impl = get_adapter(adapter, endpoint)
    except KeyError as exc:
        return JudgeVerdict(ERROR, str(exc.args[0]))
    return impl.judge(list(artifacts), rubric)
