"""Scenario files: what to stage, what to run, what must hold afterwards.

A scenario is the unit of curated evaluation: an environment (inputs plus
the subject command), an ordered list of checks, and the repetition count
k. Scenarios live as JSON files (conventionally under ``scenarios/``) with
reference data beside them; all reference paths resolve relative to the
scenario file so a scenario directory is self-contained and
version-controllable.

Format (see ``scenarios/`` for live examples):

.. code-block:: json

    {
      "id": "case-replay",
      "description": "...",
      "k": 3,
      "alpha": 0.05,
      "environment": {
        "stage": [{"source": "inputs/delivery.yaml", "dest": "delivery.yaml"}],
        "subject_command": ["{python}", "pipeline.py"],
        "record": {"toolkit": "loadsmith"}
      },
      "checks": [
        {"kind": "numeric_file_compare", "actual": "out.json",
         "reference": "references/out.json", "abs_tol": 0, "rel_tol": 1e-12},
        {"kind": "file_set", "dir": "decks", "expected": ["limit_load_2.inp"]},
        {"kind": "text_golden", "actual": "envelope.md",
         "reference": "references/envelope.md"},
        {"kind": "judge", "artifacts": ["pipeline.py"], "rubric": "require: 1\\.04"}
      ]
    }

The file is read by the strict reader every pipeline input goes through:
a repeated key, an unknown field, a value of the wrong type (a string
``abs_tol``, ``"k": true`` or ``2.7``, ``checks`` given as an object) or an
``alpha`` outside (0, 1) is refused with its location, never coerced. So
is a judge ``rubric`` that :func:`judge.read_rubric` refuses, a ``record``
key ``event`` or ``ts``, which would name a trace event's own fields, and a
path in the run directory (a stage ``dest``, a check's ``actual``, ``dir`` or
``artifacts``) that is absolute or has a ``..`` part, since it would leave
the run directory. A stage ``dest``, a check's ``actual`` and an artifact
each name a file, so one with no parts (``""``, ``.``, ``./``), which names
the run directory itself, is refused too; a ``file_set`` ``dir`` of ``.``
lists the run directory. A path or a subject command argument that holds
U+0000 is refused, and so is an ``id``, which names the scenario's
directory in the output directory, that is empty, ``.`` or ``..`` or holds
``/`` or ``\\``.

``{python}`` in the subject command expands to the running interpreter.
The subject runs in the harness's environment, with each ``PYTHONPATH``
entry made absolute against the harness's working directory, so it
imports the same packages as the harness although it runs in its own
run directory.
"""

from __future__ import annotations

from collections import namedtuple
from pathlib import Path
from typing import NamedTuple

from .. import strict
from ..errors import SchemaError
from ..model import CheckedRecord
from .judge import read_rubric

# Per check kind: (required fields, optional fields) beside "kind".
_CHECK_FIELDS = {
    "numeric_file_compare": (("actual", "reference"), ("abs_tol", "rel_tol")),
    "file_set": (("dir", "expected"), ()),
    "text_golden": (("actual", "reference"), ()),
    "judge": (("artifacts", "rubric"), ()),
}
_TOLERANCE_FIELDS = ("abs_tol", "rel_tol")
_LIST_FIELDS = ("expected", "artifacts")


class StageItem(NamedTuple):
    source: str  # relative to the scenario file's directory
    dest: str  # relative to the run working directory


class CheckSpec(NamedTuple):
    kind: str
    params: dict


class Environment(NamedTuple):
    stage: tuple[StageItem, ...]
    subject_command: tuple[str, ...]
    record: dict


class Scenario(
    CheckedRecord,
    namedtuple("Scenario", "id description environment checks k alpha base_dir"),
):
    """A parsed scenario; ``base_dir`` is the directory its reference paths resolve against."""

    __slots__ = ()

    def __new__(cls, id, description, environment, checks, k, alpha, base_dir):
        if k < 1:
            raise SchemaError(f"scenario {id!r}: k must be >= 1", location="k")
        if not checks:
            raise SchemaError(f"scenario {id!r}: at least one check is required", location="checks")
        if not 0.0 < alpha < 1.0:
            raise SchemaError(
                f"scenario {id!r}: alpha must be strictly between 0 and 1", location="alpha"
            )
        return super().__new__(cls, id, description, environment, checks, k, alpha, base_dir)


def _no_nul(text: str, location: str) -> str:
    """``text``, a path or a command argument, refused when it holds U+0000,
    which neither can hold."""
    if "\0" in text:
        raise SchemaError(f"{text!r} holds U+0000", location=location)
    return text


def _inside_run(path: str, location: str) -> str:
    """``path``, refused when it holds U+0000, is absolute or has a ``..`` part."""
    parsed = Path(_no_nul(path, location))
    if parsed.is_absolute() or ".." in parsed.parts:
        raise SchemaError(f"{path!r} leaves the run directory", location=location)
    return path


def _run_file(path: str, location: str) -> str:
    """``path``, checked as :func:`_inside_run` checks it, and refused when it
    has no parts, since it then names the run directory, not a file in it."""
    if not Path(_inside_run(path, location)).parts:
        raise SchemaError(f"{path!r} names the run directory, not a file in it", location=location)
    return path


def _scenario_id(node) -> str:
    """The scenario's id, which names its directory under the output
    directory: refused when empty, ``.`` or ``..``, or when it holds ``/``,
    ``\\`` or U+0000."""
    scenario_id = strict.expect_text(node, "id")
    if scenario_id in ("", ".", "..") or any(c in scenario_id for c in "/\\\0"):
        raise SchemaError(
            f"scenario id {scenario_id!r} cannot name a directory in the output directory",
            location="id",
        )
    return scenario_id


def _expect_texts(node, location: str) -> tuple[str, ...]:
    items = strict.expect_list(node, location)
    return tuple(strict.expect_text(item, f"{location}[{i}]") for i, item in enumerate(items))


def _parse_check(node, loc: str) -> CheckSpec:
    check = strict.expect_mapping(node, loc)
    if "kind" not in check:
        raise SchemaError(f"missing field 'kind' at {loc}", location=f"{loc}.kind")
    kind = strict.expect_text(check["kind"], f"{loc}.kind")
    if kind not in _CHECK_FIELDS:
        raise SchemaError(f"unknown check kind {kind!r}", location=f"{loc}.kind")
    required, optional = _CHECK_FIELDS[kind]
    strict.expect_keys(check, ("kind", *required), optional, loc)
    params = {}
    for name, value in check.items():
        if name == "kind":
            continue
        where = f"{loc}.{name}"
        if name in _TOLERANCE_FIELDS:
            value = strict.expect_number(value, where)
            if value < 0:
                raise SchemaError(f"{name} must be >= 0", location=where)
        elif name in _LIST_FIELDS:
            value = _expect_texts(value, where)
        else:
            value = strict.expect_text(value, where)
        if name == "actual":
            _run_file(value, where)
        elif name == "dir":
            _inside_run(value, where)
        elif name == "reference":
            _no_nul(value, where)
        elif name == "artifacts":
            for i, artifact in enumerate(value):
                _run_file(artifact, f"{where}[{i}]")
        elif name == "rubric":
            read_rubric(value, where)
        params[name] = value
    return CheckSpec(kind=kind, params=params)


def _parse_stage_item(node, loc: str) -> StageItem:
    item = strict.expect_mapping(node, loc)
    strict.expect_keys(item, ("source", "dest"), (), loc)
    return StageItem(
        source=_no_nul(strict.expect_text(item["source"], f"{loc}.source"), f"{loc}.source"),
        dest=_run_file(strict.expect_text(item["dest"], f"{loc}.dest"), f"{loc}.dest"),
    )


def parse_scenario(text: str, base_dir: str | Path = ".") -> Scenario:
    """The scenario in JSON ``text``; a malformed one raises a LoadsmithError with its location."""
    data = strict.expect_mapping(strict.read_json(text, "scenario"), "$")
    strict.expect_keys(data, ("id", "k", "environment", "checks"), ("description", "alpha"), "$")

    env = strict.expect_mapping(data["environment"], "environment")
    strict.expect_keys(env, ("subject_command",), ("stage", "record"), "environment")
    stage = tuple(
        _parse_stage_item(item, f"environment.stage[{i}]")
        for i, item in enumerate(strict.expect_list(env.get("stage", []), "environment.stage"))
    )
    command = _expect_texts(env["subject_command"], "environment.subject_command")
    for i, token in enumerate(command):
        _no_nul(token, f"environment.subject_command[{i}]")
    if not command:
        raise SchemaError("subject_command must not be empty", location="environment.subject_command")
    record = dict(strict.expect_mapping(env.get("record", {}), "environment.record"))
    for key in ("event", "ts"):
        if key in record:
            raise SchemaError(
                f"record key {key!r} would name a trace event's own field",
                location=f"environment.record.{key}",
            )

    checks = tuple(
        _parse_check(node, f"checks[{i}]")
        for i, node in enumerate(strict.expect_list(data["checks"], "checks"))
    )

    return Scenario(
        id=_scenario_id(data["id"]),
        description=strict.expect_text(data.get("description", ""), "description"),
        environment=Environment(stage=stage, subject_command=command, record=record),
        checks=checks,
        k=strict.expect_int(data["k"], "k"),
        alpha=strict.expect_number(data.get("alpha", 0.05), "alpha"),
        base_dir=Path(base_dir),
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    return parse_scenario(strict.read_text(path, "scenario"), base_dir=path.parent)
