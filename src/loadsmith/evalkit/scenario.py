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
        {"kind": "judge", "adapter": "stub", "artifacts": ["pipeline.py"],
         "rubric": "require: 1\\.04"}
      ]
    }

The file is read by the strict reader every pipeline input goes through:
a repeated key, an unknown field, a value of the wrong type (a string
``abs_tol``, ``"k": true`` or ``2.7``, ``checks`` given as an object) or an
``alpha`` outside (0, 1) is refused with its location, never coerced. So
is a judge whose ``adapter`` is not one of ``judge.ADAPTERS``, an ``http``
judge without an ``endpoint`` and a ``stub`` judge with one, and a path in
the run directory (a stage ``dest``, a check's ``actual``, ``dir`` or
``artifacts``) that is absolute or has a ``..`` part, since it would leave
the run directory.

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
from .judge import ADAPTERS

# Per check kind: (required fields, optional fields) beside "kind".
_CHECK_FIELDS = {
    "numeric_file_compare": (("actual", "reference"), ("abs_tol", "rel_tol")),
    "file_set": (("dir", "expected"), ()),
    "text_golden": (("actual", "reference"), ()),
    "judge": (("adapter", "artifacts", "rubric"), ("endpoint",)),
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


def _inside_run(path: str, location: str) -> str:
    """``path``, refused when it is absolute or has a ``..`` part."""
    parsed = Path(path)
    if parsed.is_absolute() or ".." in parsed.parts:
        raise SchemaError(f"{path!r} leaves the run directory", location=location)
    return path


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
        if name in ("actual", "dir"):
            _inside_run(value, where)
        elif name == "artifacts":
            for i, artifact in enumerate(value):
                _inside_run(artifact, f"{where}[{i}]")
        params[name] = value
    if kind == "judge":
        adapter = params["adapter"]
        if adapter not in ADAPTERS:
            raise SchemaError(
                f"unknown judge adapter {adapter!r}; expected one of {', '.join(ADAPTERS)}",
                location=f"{loc}.adapter",
            )
        if (adapter == "http") != ("endpoint" in params):
            need = "needs an endpoint" if adapter == "http" else "takes no endpoint"
            raise SchemaError(f"a {adapter} judge {need}", location=f"{loc}.endpoint")
    return CheckSpec(kind=kind, params=params)


def _parse_stage_item(node, loc: str) -> StageItem:
    item = strict.expect_mapping(node, loc)
    strict.expect_keys(item, ("source", "dest"), (), loc)
    return StageItem(
        source=strict.expect_text(item["source"], f"{loc}.source"),
        dest=_inside_run(strict.expect_text(item["dest"], f"{loc}.dest"), f"{loc}.dest"),
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
    if not command:
        raise SchemaError("subject_command must not be empty", location="environment.subject_command")
    record = dict(strict.expect_mapping(env.get("record", {}), "environment.record"))

    checks = tuple(
        _parse_check(node, f"checks[{i}]")
        for i, node in enumerate(strict.expect_list(data["checks"], "checks"))
    )

    return Scenario(
        id=strict.expect_text(data["id"], "id"),
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
