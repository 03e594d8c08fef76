import argparse
import copy
import gc
import hashlib
import json
import os
import platform
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml

import loadsmith
from loadsmith import cli
from loadsmith.analysis import envelope_extremes
from loadsmith.cli import build_parser, main
from loadsmith.export import write_envelope_json
from loadsmith.errors import LoadsmithError
from loadsmith.ingest import load_delivery, parse_delivery, write_delivery_json
from loadsmith.model import (
    Component, ComponentSet, EnvelopeExtremes, ExtremeCell, LoadCase, LoadsDelivery, SI_UNITS, UnitSystem,
)
from loadsmith.transform import convert_units, rename_points, scale_component
from loadsmith.yaml_reader import backend as yaml_backend

from conftest import REPO_ROOT, SCENARIOS_DIR
from fixtures import delivery_yaml, generate_fixture, scale_all

POINTS = ["bearing", "lug_left", "lug_right", "nozzle"]


@pytest.fixture
def delivery_file(tmp_path):
    d = generate_fixture(21, 12, POINTS, 3, units=UnitSystem("klbf", "klbf·in"))
    path = tmp_path / "delivery.json"
    path.write_text(write_delivery_json(d), encoding="utf-8")
    return path, d


@pytest.fixture
def si_delivery_file(tmp_path):
    """The delivery of ``delivery_file`` in SI units, the only units ``export-ansys`` writes."""
    d = generate_fixture(21, 12, POINTS, 3)
    path = tmp_path / "delivery_si.json"
    path.write_text(write_delivery_json(d), encoding="utf-8")
    return path, d


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def single_error(err: str) -> dict:
    """The one JSON error object a failing command writes to stderr."""
    (line,) = err.strip().splitlines()
    return json.loads(line)["error"]


def surrogate_json(delivery: LoadsDelivery) -> str:
    """The delivery's JSON with a ``\\u`` escape of a lone surrogate in its name."""
    return write_delivery_json(delivery).replace('"name": "', '"name": "bad \\udcff ', 1)


def undecodable(tmp_path) -> Path:
    """A file whose first byte is not UTF-8."""
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe")
    return path


def assert_refused_as_not_utf8(err: str, what: str) -> None:
    error = single_error(err)
    assert error["code"] == "SYNTAX_ERROR"
    assert error["message"].startswith(f"{what} is not UTF-8 text: ")
    assert error["location"] == "offset 0"


class TestConvert:
    def test_yaml_to_json_round_trip(self, tmp_path, capsys, delivery_file):
        path, d = delivery_file
        yaml_path = tmp_path / "delivery.yaml"
        yaml_path.write_text(delivery_yaml(d), encoding="utf-8")
        out_path = tmp_path / "converted.json"
        code, out, _ = run_cli(capsys, "convert", str(yaml_path), "--to", "json", "--out", str(out_path))
        assert code == 0
        assert json.loads(out)["written"] == str(out_path)
        assert parse_delivery(out_path.read_text()) == d

    def test_trace_sidecar_written(self, tmp_path, capsys, delivery_file):
        # A YAML input, so the recorded backend is the one that read it in
        # this process, whichever tests ran before: the line reader, since
        # delivery_yaml's block-style text, "·" in the moment unit included,
        # is in the block subset.
        _, d = delivery_file
        path = tmp_path / "delivery.yaml"
        path.write_text(delivery_yaml(d), encoding="utf-8")
        out_path = tmp_path / "c.json"
        run_cli(capsys, "convert", str(path), "--to", "json", "--out", str(out_path))
        trace = tmp_path / "c.json.trace.ndjson"
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert {e["event"] for e in events} >= {"invocation", "input", "output"}
        assert [e["event"] for e in events[:2]] == ["invocation", "environment"]
        environment = events[1]
        assert environment["python"] == platform.python_version()
        assert environment["loadsmith"] == loadsmith.__version__
        assert environment["yaml_backend"] == "block"

    @pytest.mark.parametrize("flow,reader", [(False, "block"), (True, yaml_backend())])
    def test_sidecar_names_the_yaml_reader(self, tmp_path, capsys, flow, reader):
        # The shipped block-style delivery is read line by line; the same
        # data with its component maps in flow style goes to the parser.
        path = SCENARIOS_DIR / "inputs" / "OEM_loads_v2.yaml"
        if flow:
            data = yaml.safe_load(path.read_text(encoding="utf-8"))
            path = tmp_path / "flow.yaml"
            path.write_text(yaml.safe_dump(data, default_flow_style=None), encoding="utf-8")
        out_path = tmp_path / "c.json"
        code, _, _ = run_cli(capsys, "convert", str(path), "--to", "json", "--out", str(out_path))
        assert code == 0
        events = [json.loads(line) for line in Path(f"{out_path}.trace.ndjson").read_text().splitlines()]
        (environment,) = [e for e in events if e["event"] == "environment"]
        assert environment["yaml_backend"] == reader

    def test_escaped_lone_surrogate_leaves_no_content_file(self, tmp_path, capsys, delivery_file):
        # Before, the escape was read and writing it failed: convert and
        # envelope exited 2 with VALUE_ERROR and left an empty content file.
        path = tmp_path / "surrogate.json"
        path.write_text(surrogate_json(delivery_file[1]), encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        for argv in (
            ["convert", str(path), "--to", "json", "--out", str(out / "out.json")],
            ["envelope", str(path), "--out-dir", str(out)],
        ):
            code, stdout, err = run_cli(capsys, *argv)
            assert (code, stdout) == (2, "")
            error = single_error(err)
            assert error["code"] == "SYNTAX_ERROR"
            assert error["message"] == "invalid delivery JSON: a \\u escape of a lone surrogate"
        assert list(out.iterdir()) == []

    def test_undecodable_bytes_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bin.yaml"
        path.write_bytes(b"\xff\xfename: x\n")
        code, _, err = run_cli(
            capsys, "convert", str(path), "--to", "json", "--out", str(tmp_path / "x.json")
        )
        assert code == 2
        error = single_error(err)
        assert error["code"] == "SYNTAX_ERROR"
        assert error["location"] == "offset 0"

    def test_yaml_merge_key_exit_2(self, tmp_path, capsys, delivery_file):
        _, d = delivery_file
        path = tmp_path / "merge.yaml"
        text = delivery_yaml(d).replace("      fx:", "      <<: {fx: 5.0}\n      fx:", 1)
        path.write_text(text, encoding="utf-8")
        code, _, err = run_cli(
            capsys, "convert", str(path), "--to", "json", "--out", str(tmp_path / "x.json")
        )
        assert code == 2
        error = single_error(err)
        assert error["code"] == "SYNTAX_ERROR"
        assert "merge key" in error["message"]
        line = text.splitlines().index("      <<: {fx: 5.0}") + 1
        assert error["location"] == f"line {line}, column 7"

    def test_missing_input_is_infrastructure(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "convert", str(tmp_path / "gone.json"), "--to", "json",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 4
        assert json.loads(err)["error"]["code"] == "FILE_NOT_FOUND"


class TestValidate:
    def test_ok_delivery(self, capsys, delivery_file):
        path, _ = delivery_file
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["ok"]
        assert report["findings"][0]["code"] == "NON_SI_UNITS"

    def test_mismatched_point_sets_exit_2(self, tmp_path, capsys):
        d = LoadsDelivery(
            name="bad", version=1, units=SI_UNITS,
            cases=(
                LoadCase(id=1, loads={"a": ComponentSet()}),
                LoadCase(id=2, loads={"b": ComponentSet()}),
            ),
        )
        path = tmp_path / "bad.json"
        path.write_text(write_delivery_json(d), encoding="utf-8")
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert not json.loads(out)["ok"]

    def test_repeated_case_id_names_the_error_load_delivery_raises(self, tmp_path, capsys):
        # Before, validate exited 2 with the report on stdout and nothing on stderr.
        d = LoadsDelivery(name="dup", version=1, units=SI_UNITS, cases=(
            LoadCase(id=1, loads={"a": ComponentSet()}),
            LoadCase(id=2, loads={"a": ComponentSet()}),
        ))
        path = tmp_path / "dup.json"
        path.write_text(write_delivery_json(d).replace('"id": 2', '"id": 1'), encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert [f["code"] for f in json.loads(out)["findings"]] == ["DUPLICATE_CASE_ID"]
        with pytest.raises(LoadsmithError) as raised:
            load_delivery(str(path))
        assert single_error(err) == raised.value.to_dict()
        assert single_error(err)["location"] == "load_cases[1].id"

    @pytest.mark.parametrize("carrier", ["yaml", "json"])
    def test_version_of_5000_digits_exit_2(self, tmp_path, capsys, delivery_file, carrier):
        _, d = delivery_file
        if carrier == "yaml":
            text = delivery_yaml(d).replace("\nversion: 1\n", "\nversion: " + "9" * 5000 + "\n")
        else:
            text = write_delivery_json(d).replace('"version": 1,', '"version": ' + "9" * 5000 + ",")
        path = tmp_path / f"long.{carrier}"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        error = single_error(err)
        assert error["code"] == "SYNTAX_ERROR"
        limit = sys.get_int_max_str_digits()
        assert error["message"] == f"integer of more than {limit} digits in delivery {carrier.upper()}"
        if carrier == "yaml":
            assert error["location"] == "line 2, column 10"

    def test_schema_error_exit_2_with_json_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x"}', encoding="utf-8")
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert json.loads(err)["error"]["code"] == "SCHEMA_ERROR"


class TestTransform:
    def test_documented_order_matches_manual_composition(self, tmp_path, capsys, delivery_file):
        path, d = delivery_file
        out_path = tmp_path / "transformed.json"
        code, out, _ = run_cli(
            capsys, "transform", str(path),
            "--rename", "lug_left=lug_port",
            "--rename", "lug_right=lug_starboard",
            "--scale", "FX=1.04",
            "--units", "N,N·m",
            "--out", str(out_path),
        )
        assert code == 0
        assert json.loads(out)["rename_count"] == 2 * len(d.cases)

        manual, _ = rename_points(d, {"lug_left": "lug_port", "lug_right": "lug_starboard"})
        manual = scale_component(manual, Component.FX, 1.04)
        manual = convert_units(manual, SI_UNITS)
        assert parse_delivery(out_path.read_text()) == manual

    def test_bad_scale_spec_is_usage_error(self, tmp_path, capsys, delivery_file):
        path, _ = delivery_file
        code, _, err = run_cli(
            capsys, "transform", str(path), "--scale", "FX:1.04",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 1
        assert json.loads(err)["error"]["code"] == "USAGE"

    def test_scaled_value_overflow_exit_2(self, tmp_path, capsys):
        case = LoadCase(id=1, loads={"a": ComponentSet(fx=1e300)})
        path = tmp_path / "big.json"
        path.write_text(
            write_delivery_json(LoadsDelivery(name="x", version=1, units=SI_UNITS, cases=(case,))),
            encoding="utf-8",
        )
        out_path = tmp_path / "x.json"
        code, _, err = run_cli(
            capsys, "transform", str(path), "--scale", "FX=1e10", "--out", str(out_path)
        )
        assert code == 2
        error = single_error(err)
        assert error["code"] == "SCALE_OVERFLOW"
        assert error["message"].startswith("fx must be finite")
        assert error["location"] == "load_cases[0].point_loads.a.fx"
        assert not out_path.exists()

    def test_repeated_rename_source_is_usage_error(self, tmp_path, capsys, delivery_file):
        path, _ = delivery_file
        out_path = tmp_path / "x.json"
        code, _, err = run_cli(
            capsys, "transform", str(path),
            "--rename", "lug_left=lug_port", "--rename", "lug_left=lug_x",
            "--out", str(out_path),
        )
        assert code == 1
        error = single_error(err)
        assert error["code"] == "USAGE"
        assert "'lug_left'" in error["message"]
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "out", ["delivery.json", "sub/../delivery.json", "link.json"],
        ids=["same-name", "other-spelling", "hard-link"],
    )
    def test_out_naming_the_input_usage_error(self, tmp_path, capsys, delivery_file, out):
        # Before, this exited 0, and the sidecar recorded the sha256 of the
        # scaled file it wrote as that of the input it had read.
        path, _ = delivery_file
        (tmp_path / "sub").mkdir()
        os.link(path, tmp_path / "link.json")
        before = path.read_bytes()
        out = tmp_path / out
        code, out_text, err = run_cli(capsys, "transform", str(path), "--scale", "FX=2", "--out", str(out))
        assert (code, out_text) == (1, "")
        assert single_error(err) == {
            "code": "USAGE",
            "message": f"the output {str(out)!r} would overwrite the input {str(path)!r}",
        }
        assert path.read_bytes() == before
        assert not list(tmp_path.rglob("*.ndjson"))

    def test_unknown_component_usage_error(self, tmp_path, capsys, delivery_file):
        path, _ = delivery_file
        code, _, _ = run_cli(
            capsys, "transform", str(path), "--scale", "QQ=2",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 1


class TestEquilibrium:
    def test_balanced_exit_0(self, tmp_path, capsys):
        d = generate_fixture(31, 10, POINTS, 2, balanced=True)
        path = tmp_path / "d.json"
        path.write_text(write_delivery_json(d), encoding="utf-8")
        code, out, _ = run_cli(capsys, "equilibrium", str(path))
        assert code == 0
        assert json.loads(out)["all_balanced"]

    def test_unbalanced_exit_2(self, capsys, tmp_path, delivery_file):
        path, _ = delivery_file
        code, out, _ = run_cli(capsys, "equilibrium", str(path))
        assert code == 2
        assert not json.loads(out)["all_balanced"]

    def test_unbalanced_cases_named_in_one_error(self, tmp_path, capsys):
        # Before, equilibrium exited 2 with the survey on stdout and nothing on stderr.
        cases = (
            LoadCase(id=5, loads={"a": ComponentSet(fx=1.0), "b": ComponentSet(fx=-1.0)}),
            LoadCase(id=7, loads={"a": ComponentSet(fx=1.0), "b": ComponentSet(fx=1.0)}),
            LoadCase(id=9, loads={"a": ComponentSet(fy=2.0), "b": ComponentSet(fy=1.0)}),
        )
        path = tmp_path / "d.json"
        path.write_text(write_delivery_json(
            LoadsDelivery(name="m", version=1, units=SI_UNITS, cases=cases)
        ), encoding="utf-8")
        code, out, err = run_cli(capsys, "equilibrium", str(path))
        assert code == 2
        assert [c["balanced"] for c in json.loads(out)["cases"]] == [True, False, False]
        assert single_error(err) == {
            "code": "UNBALANCED_CASE", "message": "unbalanced case ids: 7, 9", "location": "load_cases[1]",
        }

    def test_undecodable_coords_exit_2(self, tmp_path, capsys, delivery_file):
        path, _ = delivery_file
        code, _, err = run_cli(
            capsys, "equilibrium", str(path), "--coords", str(undecodable(tmp_path))
        )
        assert code == 2
        assert_refused_as_not_utf8(err, "coords")

    def test_loose_tolerances_balance(self, capsys, delivery_file):
        path, _ = delivery_file
        code, _, _ = run_cli(capsys, "equilibrium", str(path), "--abs-tol", "1e9", "--rel-tol", "1")
        assert code == 0

    @pytest.mark.parametrize(
        "flag", ["--rel-tol=nan", "--abs-tol=inf", "--abs-tol=-1"],
        ids=["rel-nan", "abs-inf", "abs-negative"],
    )
    def test_non_finite_or_negative_tolerance_exit_2(self, capsys, delivery_file, flag):
        path, _ = delivery_file
        code, out, err = run_cli(capsys, "equilibrium", str(path), flag)
        assert (code, out) == (2, "")
        assert single_error(err)["code"] == "BAD_TOLERANCE"

    def test_coords_file(self, tmp_path, capsys):
        case = LoadCase(
            id=1, loads={"a": ComponentSet(fy=10.0), "b": ComponentSet(fy=-10.0, mz=-10.0)}
        )
        d = LoadsDelivery(name="m", version=1, units=SI_UNITS, cases=(case,))
        path = tmp_path / "d.json"
        path.write_text(write_delivery_json(d), encoding="utf-8")
        coords = tmp_path / "coords.json"
        coords.write_text(json.dumps({"a": [1.0, 0.0, 0.0], "b": [0.0, 0.0, 0.0]}))
        code, out, _ = run_cli(capsys, "equilibrium", str(path), "--coords", str(coords))
        assert code == 0
        assert json.loads(out)["cases"][0]["moment_residual"] == [0.0, 0.0, 0.0]

    def test_coords_beside_the_delivery_coordinates_usage_error(self, tmp_path, capsys):
        # Before, --coords silently replaced the delivery's own coordinates:
        # this delivery, balanced on its own, exited 2 with a moment residual of 4.0.
        case = LoadCase(
            id=1, loads={"a": ComponentSet(fy=10.0), "b": ComponentSet(fy=-10.0, mz=-10.0)}
        )
        d = LoadsDelivery(name="m", version=1, units=SI_UNITS, cases=(case,),
                          point_coordinates={"a": (1.0, 0.0, 0.0), "b": (0.0, 0.0, 0.0)})
        path = tmp_path / "d.json"
        path.write_text(write_delivery_json(d), encoding="utf-8")
        code, out, _ = run_cli(capsys, "equilibrium", str(path))
        assert code == 0
        assert json.loads(out)["cases"][0]["moment_residual"] == [0.0, 0.0, 0.0]
        coords = tmp_path / "coords.json"
        coords.write_text(json.dumps({"a": [0.6, 0.0, 0.0], "b": [0.0, 0.0, 0.0]}))
        code, out, err = run_cli(capsys, "equilibrium", str(path), "--coords", str(coords))
        assert (code, out) == (1, "")
        assert single_error(err) == {
            "code": "USAGE",
            "message": f"the delivery {str(path)!r} holds its own point_coordinates; "
            f"--coords {str(coords)!r} would replace them",
        }

    def test_coords_non_number_refused(self, tmp_path, capsys, delivery_file):
        path, _ = delivery_file
        coords = tmp_path / "coords.json"
        coords.write_text(json.dumps({p: [0.0, "x" if p == "nozzle" else 0.0, 0.0] for p in POINTS}))
        code, _, err = run_cli(capsys, "equilibrium", str(path), "--coords", str(coords))
        assert code == 2
        error = single_error(err)
        assert (error["code"], error["location"]) == ("SCHEMA_ERROR", "coords.nozzle[1]")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_coords_non_finite_refused(self, tmp_path, capsys, value):
        case = LoadCase(id=1, loads={"a": ComponentSet(fy=10.0), "b": ComponentSet(fy=-10.0)})
        path = tmp_path / "d.json"
        path.write_text(write_delivery_json(
            LoadsDelivery(name="m", version=1, units=SI_UNITS, cases=(case,))
        ), encoding="utf-8")
        coords = tmp_path / "coords.json"
        coords.write_text(json.dumps({"a": [value, 0.0, 0.0], "b": [0.0, 0.0, 0.0]}))
        code, _, err = run_cli(capsys, "equilibrium", str(path), "--coords", str(coords))
        assert code == 2
        error = single_error(err)
        assert (error["code"], error["location"]) == ("SCHEMA_ERROR", "coords.a[0]")


class TestEnvelope:
    def test_writes_outputs_and_prints_ids(self, tmp_path, capsys, delivery_file):
        path, d = delivery_file
        out_dir = tmp_path / "envelope_out"
        code, out, _ = run_cli(capsys, "envelope", str(path), "--out-dir", str(out_dir))
        assert code == 0
        summary = json.loads(out)
        assert len(summary["selected_case_ids"]) == 3
        assert (out_dir / "envelope.md").exists()
        assert (out_dir / "envelope_extremes.json").exists()
        assert (out_dir / "trace.ndjson").exists()

    def test_out_dir_env_override(self, tmp_path, capsys, monkeypatch, delivery_file):
        # Before, LOADSMITH_OUT_DIR stood in for --out-dir, so an exported
        # variable moved the outputs without showing in the recorded argv.
        # argv is the only source of a setting.
        path, _ = delivery_file
        monkeypatch.setenv("LOADSMITH_OUT_DIR", str(tmp_path / "from_env"))
        code, out, err = run_cli(capsys, "envelope", str(path))
        assert (code, out) == (1, "")
        assert single_error(err)["code"] == "USAGE"
        assert not (tmp_path / "from_env").exists()

    def test_missing_out_dir_usage_error(self, capsys, delivery_file):
        path, _ = delivery_file
        code, _, _ = run_cli(capsys, "envelope", str(path))
        assert code == 1


class TestExportAnsys:
    def test_writes_selected_decks(self, tmp_path, capsys, si_delivery_file):
        path, d = si_delivery_file
        node_map = tmp_path / "nodes.json"
        node_map.write_text(json.dumps({p: 1000 + i for i, p in enumerate(POINTS)}))
        out_dir = tmp_path / "decks"
        ids = ",".join(str(c.id) for c in d.cases[:2])
        code, out, _ = run_cli(
            capsys, "export-ansys", str(path), "--select", ids,
            "--node-map", str(node_map), "--out-dir", str(out_dir),
        )
        assert code == 0
        written = json.loads(out)["written"]
        assert len(written) == 2
        assert all("limit_load_" in w for w in written)

    def test_exclude_point(self, tmp_path, capsys, si_delivery_file):
        path, d = si_delivery_file
        node_map = tmp_path / "nodes.json"
        node_map.write_text(json.dumps({p: 1000 + i for i, p in enumerate(POINTS)}))
        out_dir = tmp_path / "decks"
        code, out, _ = run_cli(
            capsys, "export-ansys", str(path), "--select", str(d.cases[0].id),
            "--node-map", str(node_map), "--exclude", "bearing",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        deck = (out_dir / f"limit_load_{d.cases[0].id}.inp").read_text()
        assert ",1000," not in deck

    def test_unknown_excluded_point_exit_2(self, tmp_path, capsys, si_delivery_file):
        path, d = si_delivery_file
        node_map = tmp_path / "nodes.json"
        node_map.write_text(json.dumps({p: 1000 + i for i, p in enumerate(POINTS)}))
        out_dir = tmp_path / "decks"
        code, _, err = run_cli(
            capsys, "export-ansys", str(path), "--select", str(d.cases[0].id),
            "--node-map", str(node_map), "--exclude", "baering",
            "--out-dir", str(out_dir),
        )
        assert code == 2
        error = single_error(err)
        assert error["code"] == "UNKNOWN_POINT"
        assert error["location"] == "baering"
        assert not list(out_dir.glob("*.inp"))

    def test_multiline_label_exit_2(self, tmp_path, capsys):
        # Before, the label's second line was written as a deck line of its own.
        case = LoadCase(id=3, label="cruise\nF,7,FX,9.9E+09", loads={"a": ComponentSet(fx=1.0)})
        path = tmp_path / "labelled.json"
        path.write_text(
            write_delivery_json(LoadsDelivery(name="x", version=1, units=SI_UNITS, cases=(case,))),
            encoding="utf-8",
        )
        node_map = tmp_path / "nodes.json"
        node_map.write_text(json.dumps({"a": 7}))
        out_dir = tmp_path / "decks"
        code, _, err = run_cli(
            capsys, "export-ansys", str(path), "--select", "3",
            "--node-map", str(node_map), "--out-dir", str(out_dir),
        )
        assert code == 2
        error = single_error(err)
        assert error["code"] == "BAD_LABEL"
        assert error["message"].startswith("case 3: ")
        assert not list(out_dir.glob("*.inp"))

    def test_refused_later_case_leaves_no_deck(self, tmp_path, capsys):
        # Before, case 1's deck was written before case 2's label was refused.
        cases = (
            LoadCase(id=1, label="cruise", loads={"a": ComponentSet(fx=1.0)}),
            LoadCase(id=2, label="climb\nF,7,FX,9.9E+09", loads={"a": ComponentSet(fx=2.0)}),
        )
        path = tmp_path / "labelled.json"
        path.write_text(
            write_delivery_json(LoadsDelivery(name="x", version=1, units=SI_UNITS, cases=cases)),
            encoding="utf-8",
        )
        node_map = tmp_path / "nodes.json"
        node_map.write_text(json.dumps({"a": 7}))
        out_dir = tmp_path / "decks"
        code, _, err = run_cli(
            capsys, "export-ansys", str(path), "--select", "1,2",
            "--node-map", str(node_map), "--out-dir", str(out_dir),
        )
        assert code == 2
        assert single_error(err)["code"] == "BAD_LABEL"
        assert not list(out_dir.glob("*.inp"))

    def test_undecodable_node_map_exit_2(self, tmp_path, capsys, delivery_file):
        path, _ = delivery_file
        code, _, err = run_cli(
            capsys, "export-ansys", str(path), "--select", "1",
            "--node-map", str(undecodable(tmp_path)), "--out-dir", str(tmp_path / "decks"),
        )
        assert code == 2
        assert_refused_as_not_utf8(err, "node map")
        assert not (tmp_path / "decks").exists()

    def test_node_map_required(self, tmp_path, capsys, delivery_file):
        path, _ = delivery_file
        code, _, _ = run_cli(
            capsys, "export-ansys", str(path), "--select", "1",
            "--out-dir", str(tmp_path / "decks"),
        )
        assert code == 1

    def test_config_node_map_refused(self, tmp_path, capsys, delivery_file):
        path, _ = delivery_file
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"node_map": {p: 7 for p in POINTS}}))
        code, _, err = run_cli(
            capsys, "export-ansys", str(path), "--select", "1", "--config", str(config),
            "--out-dir", str(tmp_path / "decks"),
        )
        assert code == 1
        assert single_error(err)["code"] == "USAGE"
        assert not (tmp_path / "decks").exists()


class TestCompare:
    def make_extremes(self, tmp_path, capsys, delivery_file, scale=None):
        path, d = delivery_file
        out_dir = tmp_path / f"env_{scale or 'base'}"
        src = path
        if scale is not None:
            scaled = scale_all(d, scale)
            src = tmp_path / f"scaled_{scale}.json"
            src.write_text(write_delivery_json(scaled), encoding="utf-8")
        run_cli(capsys, "envelope", str(src), "--out-dir", str(out_dir))
        return out_dir / "envelope_extremes.json"

    def test_exceedance_exit_3(self, tmp_path, capsys, delivery_file):
        old = self.make_extremes(tmp_path, capsys, delivery_file)
        new = self.make_extremes(tmp_path, capsys, delivery_file, scale=1.2)
        out = tmp_path / "cmp.json"
        code, outtext, _ = run_cli(capsys, "compare", str(new), str(old), "--out", str(out))
        assert code == 3
        assert json.loads(outtext)["new_exceeds_old"]
        assert out.exists()
        assert out.with_suffix(".md").exists()

    def test_delta_of_bounds_near_the_float_limit_is_finite(self, tmp_path, capsys):
        # Before, the report held -Infinity and the markdown -inf%.
        paths = []
        for name, cell in (("new", ExtremeCell(1e307, 1, 0.0, 2)), ("old", ExtremeCell(1e308, 1, -1e308, 2))):
            extremes = EnvelopeExtremes(name, 1, SI_UNITS, {"p": {comp: cell for comp in Component}})
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(write_envelope_json(extremes), encoding="utf-8")
        out = tmp_path / "cmp.json"
        code, _, err = run_cli(capsys, "compare", *map(str, paths), "--out", str(out))
        assert (code, err) == (0, "")
        cell = json.loads(out.read_text(encoding="utf-8"))["cells"]["p"]["FX"]
        assert cell["max_delta_pct"] == pytest.approx(-90.0)
        assert cell["min_delta_pct"] == -100.0
        row = "| FX | 1.000000E+308 | 1.000000E+307 | -90.00% | no | -1.000000E+308 | 0.000000E+00 | -100.00% | no |"
        assert row in out.with_suffix(".md").read_text(encoding="utf-8").splitlines()

    def test_default_report_path_under_working_directory(self, tmp_path, capsys, monkeypatch, delivery_file):
        _, d = delivery_file
        old = self.make_extremes(tmp_path, capsys, delivery_file)
        newer = tmp_path / "newer.json"
        newer.write_text(write_delivery_json(scale_all(d, 1.2)._replace(version=d.version + 1)))
        run_cli(capsys, "envelope", str(newer), "--out-dir", str(tmp_path / "env_new"))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        new = tmp_path / "env_new" / "envelope_extremes.json"
        code, out, err = run_cli(capsys, "compare", str(new), str(old))
        assert (code, err) == (3, "")
        report = f"comparison_report/v{d.version}_vs_v{d.version + 1}"
        assert json.loads(out)["written"] == [f"{report}.json", f"{report}.md"]
        assert sorted(p.relative_to(work).as_posix() for p in work.rglob("*")) == [
            "comparison_report", f"{report}.json", f"{report}.json.trace.ndjson", f"{report}.md"
        ]
        events = [json.loads(line) for line in (work / f"{report}.json.trace.ndjson").read_text().splitlines()]
        assert [e["path"] for e in events if e["event"] in ("input", "output")] == [
            str(new), str(old), f"{report}.json", f"{report}.md"
        ]
        assert events[-1]["event"] == "done"

    def test_refused_markdown_leaves_no_report(self, tmp_path, capsys, delivery_file):
        # Before, the JSON report was written, and the name's second line landed in the markdown.
        old = self.make_extremes(tmp_path, capsys, delivery_file)
        new = tmp_path / "new.json"
        new.write_text(json.dumps({**json.loads(old.read_text()), "name": "v2\nNew exceeds old: no"}))
        out = tmp_path / "cmp.json"
        code, outtext, err = run_cli(capsys, "compare", str(new), str(old), "--out", str(out))
        assert (code, outtext) == (2, "")
        assert single_error(err)["code"] == "BAD_LABEL"
        assert not list(tmp_path.glob("cmp*"))

    def test_markdown_out_path_usage_error(self, tmp_path, capsys, delivery_file):
        # Before, the markdown report overwrote the JSON report written to the same path.
        old = self.make_extremes(tmp_path, capsys, delivery_file)
        out = tmp_path / "rep.md"
        code, outtext, err = run_cli(capsys, "compare", str(old), str(old), "--out", str(out))
        assert (code, outtext) == (1, "")
        assert single_error(err)["code"] == "USAGE"
        assert not list(tmp_path.glob("rep*"))

    @pytest.mark.parametrize(
        "old_name,out",
        [
            ("old.json", "old.json"),
            ("old.md", "old.json"),
            ("old.json", "new.json"),
            ("old.json", "sub/../old.json"),
        ],
        ids=["old", "old-md-twin", "new", "old-other-spelling"],
    )
    def test_report_naming_an_input_usage_error(self, tmp_path, capsys, delivery_file, old_name, out):
        # Before, the report replaced the envelope it had just compared.
        envelope = self.make_extremes(tmp_path, capsys, delivery_file)
        inputs = [tmp_path / "new.json", tmp_path / old_name]
        for path in inputs:
            path.write_bytes(envelope.read_bytes())
        (tmp_path / "sub").mkdir()
        before = [path.read_bytes() for path in inputs]
        code, outtext, err = run_cli(capsys, "compare", *map(str, inputs), "--out", str(tmp_path / out))
        assert (code, outtext) == (1, "")
        assert single_error(err)["code"] == "USAGE"
        assert [path.read_bytes() for path in inputs] == before

    def test_default_report_path_naming_an_input_usage_error(self, tmp_path, capsys, monkeypatch, delivery_file):
        old = self.make_extremes(tmp_path, capsys, delivery_file)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "comparison_report").mkdir()
        _, d = delivery_file
        report = tmp_path / "comparison_report" / f"v{d.version}_vs_v{d.version}.json"
        report.write_bytes(old.read_bytes())
        before = report.read_bytes()
        code, outtext, err = run_cli(capsys, "compare", str(old), "comparison_report/" + report.name)
        assert (code, outtext) == (1, "")
        assert single_error(err)["code"] == "USAGE"
        assert report.read_bytes() == before
        assert sorted(p.name for p in report.parent.iterdir()) == [report.name]

    def test_identity_exit_0(self, tmp_path, capsys, delivery_file):
        old = self.make_extremes(tmp_path, capsys, delivery_file)
        out = tmp_path / "cmp.json"
        code, outtext, _ = run_cli(capsys, "compare", str(old), str(old), "--out", str(out))
        assert code == 0
        assert not json.loads(outtext)["new_exceeds_old"]

    @pytest.mark.parametrize(
        "edit,location",
        [
            (lambda cell: cell.pop("max_case"), "extremes.bearing.FX.max_case"),
            (lambda cell: cell.update(max="1.0"), "extremes.bearing.FX.max"),
            (lambda cell: cell.update(min=cell["max"] + 1.0), "extremes.bearing.FX"),
        ],
        ids=["missing-max-case", "string-max", "min-above-max"],
    )
    def test_malformed_extremes_exit_2(self, tmp_path, capsys, delivery_file, edit, location):
        old = self.make_extremes(tmp_path, capsys, delivery_file)
        data = json.loads(old.read_text())
        edit(data["extremes"]["bearing"]["FX"])
        old.write_text(json.dumps(data))
        new = self.make_extremes(tmp_path, capsys, delivery_file, scale=1.2)
        code, _, err = run_cli(capsys, "compare", str(new), str(old), "--out", str(tmp_path / "c.json"))
        assert code == 2
        error = single_error(err)
        assert (error["code"], error["location"]) == ("SCHEMA_ERROR", location)

    @pytest.mark.parametrize("version", [0, -7])
    def test_version_below_one_exit_2(self, tmp_path, capsys, monkeypatch, delivery_file, version):
        # Before, compare wrote comparison_report/v-7_vs_v1.json. An
        # envelope's version meets the rule a delivery's version meets.
        new = self.make_extremes(tmp_path, capsys, delivery_file)
        old = tmp_path / "old.json"
        old.write_text(json.dumps({**json.loads(new.read_text()), "version": version}))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "compare", str(new), str(old))
        assert (code, out) == (2, "")
        error = single_error(err)
        assert (error["code"], error["location"]) == ("SCHEMA_ERROR", "version")
        assert not (tmp_path / "comparison_report").exists()

    def test_empty_extremes_exit_2(self, tmp_path, capsys, delivery_file):
        data = json.loads(self.make_extremes(tmp_path, capsys, delivery_file).read_text())
        data["extremes"] = {}
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "compare", str(empty), str(empty), "--out", str(tmp_path / "c.json"))
        assert code == 2
        error = single_error(err)
        assert (error["code"], error["location"]) == ("SCHEMA_ERROR", "extremes")

    @pytest.mark.parametrize("side", ["new", "old"])
    def test_undecodable_extremes_exit_2(self, tmp_path, capsys, delivery_file, side):
        files = {"new": self.make_extremes(tmp_path, capsys, delivery_file)}
        files["old"] = files["new"]
        files[side] = undecodable(tmp_path)
        out = tmp_path / "c.json"
        code, _, err = run_cli(
            capsys, "compare", str(files["new"]), str(files["old"]), "--out", str(out)
        )
        assert code == 2
        assert_refused_as_not_utf8(err, f"{side} extremes")
        assert not out.exists()


_SCENARIO = {
    "id": "cli-malformed",
    "k": 1,
    "environment": {
        "stage": [{"source": "payload.txt", "dest": "payload.txt"}],
        "subject_command": ["{python}", "-c", "pass"],
    },
    "checks": [{"kind": "numeric_file_compare", "actual": "o.json", "reference": "ref.json", "abs_tol": 0}],
}


def _scenario_with(path: tuple, value) -> str:
    """The scenario's JSON with the field at ``path`` (keys and indexes) set to ``value``."""
    data = copy.deepcopy(_SCENARIO)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(data)


_JUDGE = {"kind": "judge", "artifacts": ["o.json"], "rubric": "require: x"}

# (scenario text, error code, location); JSON duplicate keys have no position.
MALFORMED_SCENARIOS = [
    pytest.param(_scenario_with(("checks", 0, "abs_tol"), "0"), "SCHEMA_ERROR", "checks[0].abs_tol",
                 id="string-abs_tol"),
    pytest.param(_scenario_with(("checks",), _SCENARIO["checks"][0]), "SCHEMA_ERROR", "checks",
                 id="checks-as-object"),
    pytest.param(_scenario_with(("environment", "stage", 0), "payload.txt"), "SCHEMA_ERROR",
                 "environment.stage[0]", id="stage-entry-string"),
    pytest.param(_scenario_with(("k",), True), "SCHEMA_ERROR", "k", id="k-true"),
    pytest.param(_scenario_with(("k",), 2.7), "SCHEMA_ERROR", "k", id="k-float"),
    pytest.param(_scenario_with(("alpha",), 5), "SCHEMA_ERROR", "alpha", id="alpha-out-of-range"),
    pytest.param(json.dumps(_SCENARIO).replace('"k": 1', '"k": 1, "k": 2'), "SYNTAX_ERROR", None,
                 id="duplicate-key"),
    # A judge has no adapter or endpoint: it checks its rubric's rules.
    pytest.param(_scenario_with(("checks", 0), dict(_JUDGE, adapter="stb")), "SCHEMA_ERROR",
                 "checks[0].adapter", id="misspelled-judge-adapter"),
    pytest.param(_scenario_with(("checks", 0), dict(_JUDGE, adapter="http")), "SCHEMA_ERROR",
                 "checks[0].adapter", id="http-judge-without-endpoint"),
    pytest.param(_scenario_with(("checks", 0), dict(_JUDGE, endpoint="http://127.0.0.1:9/judge")),
                 "SCHEMA_ERROR", "checks[0].endpoint", id="stub-judge-with-endpoint"),
    # Before, a malformed rubric was found only as each repetition was
    # graded: every repetition ran, then failed as infrastructure (exit 4).
    *(pytest.param(_scenario_with(("checks", 0), dict(_JUDGE, rubric=rubric)), "SCHEMA_ERROR",
                   "checks[0].rubric", id=f"judge-rubric-{name}")
      for name, rubric in (("not-a-rule", "requires: x"), ("bad-regex", "require: x\nforbid: ("),
                           ("no-rules", "# only a comment\n"))),
    # Before, "event" ended eval run in a TypeError traceback, and "ts"
    # replaced the versions event's timestamp.
    *(pytest.param(_scenario_with(("environment", "record"), {key: "mine"}), "SCHEMA_ERROR",
                   f"environment.record.{key}", id=f"record-key-{key}")
      for key in ("event", "ts")),
    # Before, each of these paths was joined to the run directory unchecked.
    pytest.param(_scenario_with(("environment", "stage", 0, "dest"), "../../escaped.txt"),
                 "SCHEMA_ERROR", "environment.stage[0].dest", id="stage-dest-parent"),
    pytest.param(_scenario_with(("environment", "stage", 0, "dest"), "/dev/null"),
                 "SCHEMA_ERROR", "environment.stage[0].dest", id="stage-dest-absolute"),
    pytest.param(_scenario_with(("checks", 0, "actual"), "sub/../../o.json"), "SCHEMA_ERROR",
                 "checks[0].actual", id="check-actual-parent"),
    pytest.param(_scenario_with(("checks", 0), {"kind": "file_set", "dir": "/", "expected": []}),
                 "SCHEMA_ERROR", "checks[0].dir", id="check-dir-absolute"),
    pytest.param(_scenario_with(("checks", 0), dict(_JUDGE, artifacts=["o.json", "../o.json"])),
                 "SCHEMA_ERROR", "checks[0].artifacts[1]", id="judge-artifact-parent"),
    pytest.param(_scenario_with(("checks", 0), {"actual": "o.json", "reference": "ref.json"}),
                 "SCHEMA_ERROR", "checks[0].kind", id="check-without-kind"),
    pytest.param(_scenario_with(("environment", "subject_command"), []), "SCHEMA_ERROR",
                 "environment.subject_command", id="empty-subject-command"),
    # Before, the id was joined to --out-dir unchecked, and U+0000 in a path
    # or an argument escaped as VALUE_ERROR with no location.
    *(pytest.param(_scenario_with(("id",), scenario_id), "SCHEMA_ERROR", "id", id=f"id-{name}")
      for name, scenario_id in (("parent", "../outside"), ("dot", "."), ("dot-dot", ".."), ("empty", ""),
                                ("slash", "a/b"), ("backslash", "a\\b"), ("nul", "a\0b"))),
    *(pytest.param(_scenario_with(path, "o\0.json"), "SCHEMA_ERROR", location, id=f"nul-{name}")
      for name, path, location in (
          ("stage-source", ("environment", "stage", 0, "source"), "environment.stage[0].source"),
          ("stage-dest", ("environment", "stage", 0, "dest"), "environment.stage[0].dest"),
          ("subject-argument", ("environment", "subject_command", 2),
           "environment.subject_command[2]"),
          ("check-actual", ("checks", 0, "actual"), "checks[0].actual"),
          ("check-reference", ("checks", 0, "reference"), "checks[0].reference"),
      )),
    pytest.param(_scenario_with(("checks", 0), {"kind": "file_set", "dir": "d\0", "expected": []}),
                 "SCHEMA_ERROR", "checks[0].dir", id="nul-check-dir"),
    pytest.param(_scenario_with(("checks", 0), dict(_JUDGE, artifacts=["o.json", "o\0.json"])),
                 "SCHEMA_ERROR", "checks[0].artifacts[1]", id="nul-judge-artifact"),
    # Before, each of these was accepted, naming the run directory itself as
    # a file; an empty actual stopped eval run with IO_ERROR and no report.
    pytest.param(_scenario_with(("checks", 0, "actual"), ""), "SCHEMA_ERROR", "checks[0].actual",
                 id="check-actual-empty"),
    pytest.param(_scenario_with(("environment", "stage", 0, "dest"), "."), "SCHEMA_ERROR",
                 "environment.stage[0].dest", id="stage-dest-dot"),
    pytest.param(_scenario_with(("checks", 0), dict(_JUDGE, artifacts=["o.json", "./"])),
                 "SCHEMA_ERROR", "checks[0].artifacts[1]", id="judge-artifact-dot-slash"),
    # Before, a file named twice was graded once: file_set compared the set of
    # names, so a subject that wrote a.txt once passed.
    pytest.param(_scenario_with(("checks", 0), {"kind": "file_set", "dir": ".",
                                                "expected": ["a.txt", "a.txt"]}),
                 "SCHEMA_ERROR", "checks[0].expected[1]", id="file-set-expected-twice"),
    pytest.param(_scenario_with(("checks", 0), dict(_JUDGE, artifacts=["o.json", "p.json", "o.json"])),
                 "SCHEMA_ERROR", "checks[0].artifacts[2]", id="judge-artifact-twice"),
]


class TestEval:
    @pytest.mark.parametrize("text,code,location", MALFORMED_SCENARIOS)
    def test_run_malformed_scenario_exit_2(self, tmp_path, capsys, text, code, location):
        spath = tmp_path / "scenario.json"
        spath.write_text(text, encoding="utf-8")
        exit_code, out, err = run_cli(capsys, "eval", "run", str(spath), "--out-dir", str(tmp_path / "runs"))
        assert exit_code == 2
        assert out == ""
        error = single_error(err)
        assert error["code"] == code
        assert error.get("location") == location
        assert not (tmp_path / "runs").exists()

    def test_run_shared_id_usage_error(self, tmp_path, capsys):
        # Before, both ran into runs/cli-malformed/: the second's report.json
        # replaced the first's, and its run_1/ was wiped.
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(json.dumps(_SCENARIO), encoding="utf-8")
        second.write_text(json.dumps({**_SCENARIO, "k": 2}), encoding="utf-8")
        code, out, err = run_cli(capsys, "eval", "run", str(first), str(second), "-k", "1",
                                 "--out-dir", str(tmp_path / "runs"))
        assert (code, out) == (1, "")
        error = single_error(err)
        assert error["code"] == "USAGE"
        assert repr(str(first)) in error["message"] and repr(str(second)) in error["message"]
        assert not (tmp_path / "runs").exists()

    def test_run_malformed_second_scenario_runs_nothing(self, tmp_path, capsys):
        # Before, the first scenario ran before the second was read.
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(json.dumps(_SCENARIO), encoding="utf-8")
        second.write_text(_scenario_with(("k",), True), encoding="utf-8")
        code, out, err = run_cli(capsys, "eval", "run", str(first), str(second), "-k", "1",
                                 "--out-dir", str(tmp_path / "runs"))
        assert (code, out) == (2, "")
        error = single_error(err)
        assert (error["code"], error["location"]) == ("SCHEMA_ERROR", "k")
        assert not (tmp_path / "runs").exists()

    def test_run_out_dir_defaults_to_eval_runs(self, tmp_path, capsys, monkeypatch):
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps(_SCENARIO), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "eval", "run", str(spath), "-k", "1")
        assert json.loads(out)[0]["report"] == "eval_runs/cli-malformed/report.json"
        assert (tmp_path / "eval_runs" / "cli-malformed" / "report.json").exists()

    def test_run_id_cannot_leave_out_dir(self, tmp_path, capsys):
        # Before, the runs and report.json landed in D/../outside, and the
        # run_1 already there was deleted.
        spath = tmp_path / "scenario.json"
        spath.write_text(_scenario_with(("id",), "../outside"), encoding="utf-8")
        kept = tmp_path / "outside" / "run_1" / "kept.txt"
        kept.parent.mkdir(parents=True)
        kept.write_text("kept\n")
        (tmp_path / "D").mkdir()
        before = sorted(tmp_path.rglob("*"))
        exit_code, out, err = run_cli(capsys, "eval", "run", str(spath), "-k", "1",
                                      "--out-dir", str(tmp_path / "D"))
        assert (exit_code, out) == (2, "")
        assert single_error(err)["location"] == "id"
        assert sorted(tmp_path.rglob("*")) == before
        assert kept.read_text() == "kept\n"


    @pytest.mark.parametrize(
        "argv, code",
        [
            (["eval", "passk", "--p", "2"], "BAD_PROBABILITY"),
            (["eval", "passk", "--p", "0.9", "--alpha", "nan"], "BAD_PROBABILITY"),
            (["eval", "run", "SCENARIO", "-k", "0", "--out-dir", "RUNS"], "BAD_REPETITIONS"),
        ],
        ids=["p-above-one", "alpha-nan", "k-zero"],
    )
    def test_out_of_range_number_exit_2(self, tmp_path, capsys, argv, code):
        # Before, each was a VALUE_ERROR, the code of any ValueError.
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps(_SCENARIO), encoding="utf-8")
        named = {"SCENARIO": str(spath), "RUNS": str(tmp_path / "runs")}
        exit_code, out, err = run_cli(capsys, *(named.get(arg, arg) for arg in argv))
        assert exit_code == 2
        assert out == ""
        assert single_error(err)["code"] == code
        assert not (tmp_path / "runs").exists()

    def test_passk_prints_29(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "passk", "--p", "0.9", "--alpha", "0.05")
        assert code == 0
        assert out.strip() == "29"

    def test_passk_other_rows(self, capsys):
        for p, expected in ((0.5, "5"), (0.99, "299")):
            code, out, _ = run_cli(capsys, "eval", "passk", "--p", str(p))
            assert code == 0
            assert out.strip() == expected

    def test_run_copy_scenario(self, tmp_path, capsys):
        scenario_dir = tmp_path / "s"
        scenario_dir.mkdir()
        (scenario_dir / "payload.txt").write_text("data\n")
        (scenario_dir / "ref.txt").write_text("data\n")
        scenario = {
            "id": "cli-copy",
            "k": 2,
            "environment": {
                "stage": [{"source": "payload.txt", "dest": "payload.txt"}],
                "subject_command": [
                    "{python}", "-c", "import shutil; shutil.copyfile('payload.txt', 'o.txt')",
                ],
            },
            "checks": [{"kind": "text_golden", "actual": "o.txt", "reference": "ref.txt"}],
        }
        spath = scenario_dir / "scenario.json"
        spath.write_text(json.dumps(scenario))
        code, out, _ = run_cli(
            capsys, "eval", "run", str(spath), "--out-dir", str(tmp_path / "runs")
        )
        assert code == 0
        summary = json.loads(out)[0]
        assert summary["pass_hat_k"] and summary["passes"] == 2

    def test_run_failing_scenario_exit_2(self, tmp_path, capsys):
        scenario_dir = tmp_path / "s"
        scenario_dir.mkdir()
        (scenario_dir / "ref.txt").write_text("expected\n")
        scenario = {
            "id": "cli-fail",
            "k": 1,
            "environment": {
                "stage": [],
                "subject_command": ["{python}", "-c", "open('o.txt','w').write('nope\\n')"],
            },
            "checks": [{"kind": "text_golden", "actual": "o.txt", "reference": "ref.txt"}],
        }
        spath = scenario_dir / "scenario.json"
        spath.write_text(json.dumps(scenario))
        code, _, _ = run_cli(capsys, "eval", "run", str(spath), "--out-dir", str(tmp_path / "runs"))
        assert code == 2

    def test_run_summary_names_failure_reason(self, tmp_path, capsys):
        scenario_dir = tmp_path / "s"
        scenario_dir.mkdir()
        (scenario_dir / "ref.txt").write_text("expected\n")
        scenario = {
            "id": "cli-boom",
            "k": 2,
            "environment": {
                "stage": [],
                "subject_command": ["{python}", "-c", "import sys; sys.exit('boom')"],
            },
            "checks": [{"kind": "text_golden", "actual": "o.txt", "reference": "ref.txt"}],
        }
        spath = scenario_dir / "scenario.json"
        spath.write_text(json.dumps(scenario))
        code, out, _ = run_cli(capsys, "eval", "run", str(spath), "--out-dir", str(tmp_path / "runs"))
        assert code == 2
        assert json.loads(out)[0]["failures"] == [
            {"run": 1, "reason": "exit status 1: boom"},
            {"run": 2, "reason": "exit status 1: boom"},
        ]


@pytest.fixture(scope="module")
def refusal_inputs(tmp_path_factory) -> dict[str, str]:
    """The input files of every refusal in CLI_REFUSALS, by name."""
    root = tmp_path_factory.mktemp("refusal_inputs")
    d = generate_fixture(21, 12, POINTS, 3, units=UnitSystem("klbf", "klbf·in"))
    one_point = LoadsDelivery(name="x", version=1, units=SI_UNITS, cases=(
        LoadCase(id=1, label="cruise", loads={"a": ComponentSet(fx=1e300)}),
        LoadCase(id=3, label="climb\nF,7,FX,9.9E+09", loads={"a": ComponentSet(fx=2.0)}),
    ))
    multiline_point = LoadsDelivery(name="v2", version=1, units=SI_UNITS, cases=(
        LoadCase(id=1, loads={"a\n| FX | 9.9E+09 | 1 | 0 | 1 |": ComponentSet(fx=1.0)}),
    ))
    with_coordinates = LoadsDelivery(name="c", version=1, units=SI_UNITS, cases=(
        LoadCase(id=1, loads={"a": ComponentSet(fy=10.0), "b": ComponentSet(fy=-10.0, mz=-10.0)}),
    ), point_coordinates={"a": (1.0, 0.0, 0.0), "b": (0.0, 0.0, 0.0)})
    extremes = json.loads(write_envelope_json(envelope_extremes(d)))

    def edited(edit) -> str:
        data = copy.deepcopy(extremes)
        edit(data["extremes"]["bearing"]["FX"])
        return json.dumps(data)

    texts = {
        "delivery": write_delivery_json(d),
        "delivery_si": write_delivery_json(generate_fixture(21, 12, POINTS, 3)),
        "bom_json": "\ufeff" + write_delivery_json(d),
        "merge_yaml": delivery_yaml(d).replace("      fx:", "      <<: {fx: 5.0}\n      fx:", 1),
        "long_yaml": delivery_yaml(d).replace("\nversion: 1\n", "\nversion: " + "9" * 5000 + "\n"),
        "date_value_yaml": delivery_yaml(d).replace("\nversion: 1\n", "\nversion: 1\nlabel: 2024-13-45\n"),
        "time_value_yaml": delivery_yaml(d).replace(
            "\nversion: 1\n", "\nversion: 1\nlabel: 2001-12-14 25:00:00\n"
        ),
        "date_key_yaml": delivery_yaml(d).replace("\nversion: 1\n", "\nversion: 1\n2024-13-45: a\n"),
        "long_json": write_delivery_json(d).replace('"version": 1,', '"version": ' + "9" * 5000 + ","),
        "broken": '{"name": "x"}',
        "deep": "[" * 200_000 + "]" * 200_000,
        "surrogate": surrogate_json(d),
        "one_point": write_delivery_json(one_point),
        "multiline_point": write_delivery_json(multiline_point),
        "nodes": json.dumps({p: 1000 + i for i, p in enumerate(POINTS)}),
        "nodes_a": json.dumps({"a": 7}),
        "tolerances": json.dumps({"tolerances": {"abs": 1e9, "rel": 1.0}}),
        "export_config": json.dumps({"node_map": {p: 7 for p in POINTS}}),
        "coords_string": json.dumps({p: [0.0, "x" if p == "nozzle" else 0.0, 0.0] for p in POINTS}),
        "coords_nan": json.dumps({p: [float("nan"), 0.0, 0.0] for p in POINTS}),
        "with_coordinates": write_delivery_json(with_coordinates),
        "coords_ab": json.dumps({"a": [0.6, 0.0, 0.0], "b": [0.0, 0.0, 0.0]}),
        "extremes": json.dumps(extremes),
        "extremes_old": json.dumps(extremes),  # its own file: a run that replaced it harms no other
        "extremes_no_max_case": edited(lambda cell: cell.pop("max_case")),
        "extremes_string_max": edited(lambda cell: cell.update(max="1.0")),
        "extremes_min_above_max": edited(lambda cell: cell.update(min=cell["max"] + 1.0)),
        "extremes_empty": json.dumps({**extremes, "extremes": {}}),
        "extremes_multiline_name": json.dumps({**extremes, "name": "v2\nUnits: force N, moment N·m"}),
        "extremes_version_negative": json.dumps({**extremes, "version": -7}),
        "scenario": json.dumps(_SCENARIO),
        "scenario_same_id": json.dumps({**_SCENARIO, "k": 2}),
        **{f"scenario_{param.id}": param.values[0] for param in MALFORMED_SCENARIOS},
    }
    files = {"bin": root / "bin.json"}
    files["bin"].write_bytes(b"\xff\xfename: x\n")
    for name, text in texts.items():
        files[name] = root / f"{name}.{'yaml' if name.endswith('yaml') else 'json'}"
        files[name].write_text(text, encoding="utf-8")
    # Inputs named as the content files of envelope and export-ansys in this directory.
    files["shadow"] = root / "shadow"
    files["shadow"].mkdir()
    (files["shadow"] / "envelope_extremes.json").write_bytes(files["bin"].read_bytes())
    (files["shadow"] / "limit_load_1.inp").write_text(texts["nodes"], encoding="utf-8")
    # Inputs named as the sidecar that envelope and transform write beside their outputs.
    files["sidecar_shadow"] = root / "sidecar_shadow"
    files["sidecar_shadow"].mkdir()
    for name in ("trace.ndjson", "x.json.trace.ndjson"):
        (files["sidecar_shadow"] / name).write_text(texts["delivery"], encoding="utf-8")
    return {name: str(path) for name, path in files.items()}


def _refusals(status: int, *cases: tuple) -> list:
    """Each case is (name, argv) or (name, argv, the error code it must give);
    an argv is a string of space-separated arguments, or their list."""
    return [
        pytest.param(argv.split() if isinstance(argv, str) else argv, status, code, id=name)
        for name, argv, *code in cases
    ]


# Every refusal this file's tests exercise, as an argv with {name} for an
# input from refusal_inputs and {out} for the test's output directory. A
# command that reports findings (validate, equilibrium, a failing scenario)
# and an unreadable input (exit 4) are not refusals.
CLI_REFUSALS = [
    *_refusals(
        1,
        # Every option value is checked as argv is parsed, before the input
        # is read. Before, the checks of --scale, --units, --rename and
        # --select ran after the read, so the input of these, which is not
        # UTF-8 or is missing, was refused first (exit 2 or 4).
        ("transform-scale-spec", "transform {bin} --scale FX:1.04 --out {out}/x.json", "USAGE"),
        ("transform-scale-spec-missing-input",
         "transform {out}/missing.json --scale FX:1.04 --out {out}/x.json", "USAGE"),
        ("transform-repeated-rename",
         "transform {bin} --rename lug_left=lug_port --rename lug_left=lug_x --out {out}/x.json",
         "USAGE"),
        ("transform-unknown-component", "transform {bin} --scale QQ=2 --out {out}/x.json", "USAGE"),
        ("transform-units-one-part", "transform {bin} --units N --out {out}/x.json", "USAGE"),
        ("transform-rename-no-equals", "transform {bin} --rename lug_left --out {out}/x.json",
         "USAGE"),
        ("export-select-not-integer",
         "export-ansys {bin} --select x --node-map {nodes} --out-dir {out}", "USAGE"),
        # Before, the point was renamed to "" or " ", which envelope.md then
        # wrote as a heading with no name.
        ("transform-rename-empty-target", "transform {delivery} --rename lug_left= --out {out}/x.json",
         "USAGE"),
        ("transform-rename-blank-target",
         ["transform", "{delivery}", "--rename", "lug_left= ", "--out", "{out}/x.json"], "USAGE"),
        # Before, --config read default tolerances from a file.
        ("equilibrium-config", "equilibrium {delivery} --config {tolerances}", "USAGE"),
        # Before, convert and transform wrote YAML on request, and JSON or
        # YAML under any name. A delivery is written as JSON only, and never
        # under a YAML name, which is refused before the input is read: the
        # input of the last three is not UTF-8, which would exit 2.
        ("convert-to-yaml", "convert {delivery} --to yaml --out {out}/x.json", "USAGE"),
        ("transform-to-yaml", "transform {delivery} --to yaml --out {out}/x.json", "USAGE"),
        ("transform-out-yaml", "transform {bin} --out {out}/x.yaml", "USAGE"),
        ("transform-out-upper-yaml", "transform {bin} --out {out}/x.YAML", "USAGE"),
        ("convert-out-yml", "convert {bin} --to json --out {out}/x.yml", "USAGE"),
        ("envelope-no-out-dir", "envelope {delivery}"),
        ("export-no-node-map", "export-ansys {delivery} --select 1 --out-dir {out}"),
        ("export-config-node-map",
         "export-ansys {delivery} --select 1 --config {export_config} --out-dir {out}"),
        ("unknown-subcommand", "frobnicate"),
        ("compare-out-md", "compare {extremes} {extremes} --out {out}/c.md"),
        ("compare-out-names-old", "compare {extremes} {extremes_old} --out {extremes_old}"),
        # Before, each of these wrote over its input, and its sidecar recorded
        # the written file's sha256 as the input's. The refusal comes before
        # the input is read: the input of the first three is not UTF-8.
        ("convert-out-names-input", "convert {bin} --to json --out {bin}", "USAGE"),
        ("transform-out-names-input", "transform {bin} --scale FX=2 --out {bin}", "USAGE"),
        ("envelope-out-dir-holds-input",
         "envelope {shadow}/envelope_extremes.json --out-dir {shadow}", "USAGE"),
        ("export-deck-names-node-map",
         "export-ansys {delivery_si} --select 1 --node-map {shadow}/limit_load_1.inp --out-dir {shadow}",
         "USAGE"),
        # Before, each of these exited 0: its sidecar replaced the input, and
        # recorded the half-written sidecar's bytes as the input's.
        ("envelope-sidecar-names-input",
         "envelope {sidecar_shadow}/trace.ndjson --out-dir {sidecar_shadow}", "USAGE"),
        ("transform-sidecar-names-input",
         "transform {sidecar_shadow}/x.json.trace.ndjson --scale FX=2 --out {sidecar_shadow}/x.json",
         "USAGE"),
        # Before, --coords silently replaced the delivery's own coordinates.
        ("equilibrium-coords-beside-delivery-coordinates",
         "equilibrium {with_coordinates} --coords {coords_ab}", "USAGE"),
        # Before, float() and int() read "1_5" as 15, so each of these ran.
        ("transform-scale-grouped", "transform {delivery} --scale FX=1_04 --out {out}/x.json", "USAGE"),
        ("export-select-grouped",
         "export-ansys {delivery} --select 1_0 --node-map {nodes} --out-dir {out}", "USAGE"),
        ("equilibrium-abs-tol-grouped", "equilibrium {delivery} --abs-tol=1_0", "USAGE"),
        ("eval-passk-p-grouped", "eval passk --p 0.9_0", "USAGE"),
        ("eval-run-k-grouped", "eval run {scenario} -k 1_0 --out-dir {out}", "USAGE"),
        # Before, both ran into one directory, the second over the first.
        ("eval-run-shared-id", "eval run {scenario} {scenario_same_id} -k 1 --out-dir {out}", "USAGE"),
        # Before, convert wrote the content file and an empty sidecar, then
        # exited 2 with VALUE_ERROR.
        ("convert-undecodable-out-name", "convert {delivery} --to json --out {out}/\udcff.json",
         "USAGE"),
        # Before, the last value of an option given twice won: the first two
        # exited 0, the deck keeping bearing's loads and only e2 written; the
        # third, whose input is not UTF-8, exited 2.
        ("export-repeated-exclude",
         "export-ansys {delivery_si} --select 1 --node-map {nodes} --exclude bearing "
         "--exclude nozzle --out-dir {out}", "USAGE"),
        ("envelope-repeated-out-dir-prefix", "envelope {delivery} --out-dir {out}/e1 --out-d {out}/e2",
         "USAGE"),
        ("export-repeated-select",
         "export-ansys {bin} --select 1 --select 2 --node-map {nodes} --out-dir {out}", "USAGE"),
        # Before, FX was scaled by the product of the two factors, 2.08.
        ("transform-repeated-scale-component",
         "transform {delivery} --scale FX=1.04 --scale fx=2 --out {out}/x.json", "USAGE"),
        # Before, --ultimate-factor scaled all six components, and --widen-tol
        # let a widening up to its value pass unflagged. Both are deleted.
        ("transform-ultimate-factor-deleted",
         "transform {delivery} --ultimate-factor 1.5 --out {out}/x.json", "USAGE"),
        ("compare-widen-tol-deleted", "compare {extremes} {extremes} --out {out}/c.json --widen-tol 1e6",
         "USAGE"),
    ),
    *_refusals(
        2,
        ("envelope-multiline-point", "envelope {multiline_point} --out-dir {out}"),
        ("convert-undecodable", "convert {bin} --to json --out {out}/x.json"),
        ("convert-merge-key", "convert {merge_yaml} --to json --out {out}/x.json"),
        ("convert-bom-json", "convert {bom_json} --to json --out {out}/x.json"),
        ("convert-surrogate-escape", "convert {surrogate} --to json --out {out}/x.json",
         "SYNTAX_ERROR"),
        # Before, a YAML date or time that does not exist escaped as
        # VALUE_ERROR, with no line and column.
        ("convert-impossible-date", "convert {date_value_yaml} --to json --out {out}/x.json",
         "SYNTAX_ERROR"),
        ("convert-impossible-time", "convert {time_value_yaml} --to json --out {out}/x.json",
         "SYNTAX_ERROR"),
        ("convert-impossible-date-key", "convert {date_key_yaml} --to json --out {out}/x.json",
         "SYNTAX_ERROR"),
        ("validate-long-yaml-version", "validate {long_yaml}"),
        ("validate-long-json-version", "validate {long_json}"),
        ("validate-schema", "validate {broken}"),
        # Before, the decoder's RecursionError ended in a traceback (exit 1).
        ("validate-deep-json", "validate {deep}", "SYNTAX_ERROR"),
        ("transform-overflow", "transform {one_point} --scale FX=1e10 --out {out}/x.json"),
        ("transform-unknown-unit", "transform {delivery} --units furlong,N·m --out {out}/x.json",
         "UNKNOWN_UNIT"),
        ("transform-negative-factor", "transform {delivery} --scale FX=-1 --out {out}/x.json",
         "BAD_FACTOR"),
        ("equilibrium-undecodable-coords", "equilibrium {delivery} --coords {bin}"),
        ("equilibrium-rel-nan", "equilibrium {delivery} --rel-tol=nan"),
        ("equilibrium-abs-inf", "equilibrium {delivery} --abs-tol=inf"),
        ("equilibrium-abs-negative", "equilibrium {delivery} --abs-tol=-1"),
        ("equilibrium-coords-string", "equilibrium {delivery} --coords {coords_string}"),
        ("equilibrium-coords-nan", "equilibrium {delivery} --coords {coords_nan}"),
        ("export-unknown-excluded",
         "export-ansys {delivery_si} --select 1 --node-map {nodes} --exclude baering --out-dir {out}",
         "UNKNOWN_POINT"),
        ("export-non-si", "export-ansys {delivery} --select 1 --node-map {nodes} --out-dir {out}",
         "NON_SI_EXPORT"),
        ("export-multiline-label",
         "export-ansys {one_point} --select 3 --node-map {nodes_a} --out-dir {out}"),
        ("export-later-case-refused",
         "export-ansys {one_point} --select 1,3 --node-map {nodes_a} --out-dir {out}"),
        ("export-undecodable-node-map",
         "export-ansys {delivery} --select 1 --node-map {bin} --out-dir {out}"),
        ("compare-missing-max-case", "compare {extremes} {extremes_no_max_case} --out {out}/c.json"),
        ("compare-string-max", "compare {extremes} {extremes_string_max} --out {out}/c.json"),
        ("compare-min-above-max", "compare {extremes} {extremes_min_above_max} --out {out}/c.json"),
        ("compare-empty", "compare {extremes_empty} {extremes_empty} --out {out}/c.json"),
        ("compare-multiline-name", "compare {extremes_multiline_name} {extremes} --out {out}/c.json"),
        # Before, the report was written, naming version -7.
        ("compare-version-below-one", "compare {extremes} {extremes_version_negative} --out {out}/c.json",
         "SCHEMA_ERROR"),
        ("compare-undecodable-new", "compare {bin} {extremes} --out {out}/c.json"),
        ("compare-undecodable-old", "compare {extremes} {bin} --out {out}/c.json"),
        *(
            (f"eval-run-{param.id}", f"eval run {{scenario_{param.id}}} --out-dir {{out}}")
            for param in MALFORMED_SCENARIOS
        ),
        ("eval-run-malformed-second", "eval run {scenario} {scenario_k-true} -k 1 --out-dir {out}",
         "SCHEMA_ERROR"),
        ("eval-passk-p-above-one", "eval passk --p 2"),
        ("eval-passk-alpha-nan", "eval passk --p 0.9 --alpha nan"),
        ("eval-run-k-zero", "eval run {scenario} -k 0 --out-dir {out}"),
    ),
]


@pytest.mark.parametrize("argv,status,error_code", CLI_REFUSALS)
def test_refusal_sweep(tmp_path, capsys, refusal_inputs, argv, status, error_code):
    # Before, a scaled value that overflowed was refused as VALUE_ERROR, the
    # code main() gives any other ValueError.
    root = Path(refusal_inputs["bin"]).parent
    before = {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}
    code, out, err = run_cli(capsys, *(arg.format(**refusal_inputs, out=tmp_path) for arg in argv))
    # a refusal leaves every input as it was, and writes nothing beside them
    assert {path: path.read_bytes() for path in root.rglob("*") if path.is_file()} == before
    assert list(tmp_path.iterdir()) == []  # nor in the output directory
    assert (code, out) == (status, "")
    given = single_error(err)["code"]
    assert given != "VALUE_ERROR"
    if error_code:
        assert [given] == error_code


# One valid argv per subcommand, each option it takes given.
VALID_ARGVS = [
    "convert d.yaml --to json --out d.json",
    "validate d.json",
    "transform d.json --rename a=b --rename c=d --scale FX=2 --scale MY=0.5 --units N,N·m "
    "--out o.json",
    "equilibrium d.json --coords c.json --abs-tol 1e-6 --rel-tol 1e-3",
    "envelope d.json --out-dir out",
    "export-ansys d.json --select 1,2 --node-map n.json --exclude bearing --out-dir out",
    "compare new.json old.json --out c.json",
    "eval run s1.json s2.json -k 3 --out-dir out",
    "eval passk --p 0.9 --alpha 0.1",
    "docserve catalog",
]


# The six steps of scenarios/inputs/replay_case.py and their exit statuses,
# each writing into the working directory.
REPLAY_STEPS = [
    (["convert", str(SCENARIOS_DIR / "inputs" / "OEM_loads_v2.yaml"), "--to", "json",
      "--out", "delivery.json"], 0),
    (["transform", "delivery.json", "--rename", "lug_left=lug_port",
      "--rename", "lug_right=lug_starboard", "--rename", "lug_fairlead=lug_failsafe",
      "--scale", "FX=1.04", "--units", "N,N·m", "--out", "processed.json"], 0),
    (["equilibrium", "processed.json"], 0),
    (["envelope", "processed.json", "--out-dir", "."], 0),
    (["export-ansys", "processed.json", "--select", "2,20,34,61,92,99",
      "--node-map", str(SCENARIOS_DIR / "inputs" / "node_map.json"), "--exclude", "bearing",
      "--out-dir", "limit_loads"], 0),
    (["compare", "envelope_extremes.json",
      str(SCENARIOS_DIR / "inputs" / "previous_run_envelope_extremes.json"),
      "--out", "comparison_report/v1_vs_v2.json"], 3),
]


def _readme_command_lines() -> list[str]:
    """Each ``loadsmith ...`` command of README's ``sh`` blocks, continuation
    lines joined."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```$", readme, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("loadsmith ")]


def _option_strings(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of ``parser`` and of its subcommands, at any depth."""
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _option_strings(sub)
    return found


class TestReadme:
    @pytest.mark.parametrize("line", _readme_command_lines())
    def test_command_line_parses(self, line):
        argv = shlex.split(line, comments=True)
        build_parser().parse_args(argv[1:])

    def test_command_lines_found(self):
        assert len(_readme_command_lines()) >= 8

    def test_named_options_exist(self):
        # Before, README named the deleted equilibrium --config.
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme)) - {"--no-build-isolation"}
        assert named - _option_strings(build_parser()) == set()


class TestUsageAndErrors:
    @pytest.mark.parametrize("argv", VALID_ARGVS)
    def test_one_subcommand_parser_parses_as_all_of_them(self, argv):
        # main() builds only the subcommand that argv names.
        argv = argv.split()
        one = build_parser(argv[0])
        assert one.format_usage() == f"usage: loadsmith [-h] {{{argv[0]}}} ...\n"
        assert one.parse_args(argv) == build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", [argv for argv in VALID_ARGVS if " -" in argv])
    def test_one_value_option_given_twice_is_usage_error(self, argv):
        # Before, the last of the two values silently won.
        argv = argv.split()
        for i, token in enumerate(argv):
            if token.startswith("-") and token not in ("--rename", "--scale"):
                twice = argv[: i + 2] + argv[i:]
                with pytest.raises(cli._UsageExit, match=f"^argument {token}: given twice"):
                    build_parser(twice[0]).parse_args(twice)

    def test_valid_argvs_name_every_subcommand(self):
        assert sorted({argv.split()[0] for argv in VALID_ARGVS}) == sorted(cli._COMMANDS)

    def test_unknown_subcommand_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert json.loads(err)["error"] == {
            "code": "USAGE",
            "message": "argument command: invalid choice: 'frobnicate' (choose from 'convert', "
            "'validate', 'transform', 'equilibrium', 'envelope', 'export-ansys', 'compare', 'eval', "
            "'docserve')",
        }

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["-h"])
        assert exit_.value.code == 0
        listed = capsys.readouterr().out.split("positional arguments:\n", 1)[1].splitlines()[0]
        assert listed.strip() == "{" + ",".join(cli._COMMANDS) + "}"

    def test_unreadable_input_exit_4(self, tmp_path, capsys):
        # a directory named as the input: reading it fails with IsADirectoryError
        code, out, err = run_cli(
            capsys, "convert", str(tmp_path), "--to", "json", "--out", str(tmp_path / "x.json")
        )
        assert (code, out) == (4, "")
        assert single_error(err)["code"] == "IO_ERROR"

    @pytest.mark.parametrize(
        "argv",
        [
            ["convert", "{input}", "--to", "json", "--out", "{out}/\udcff.json"],
            ["envelope", "{input}", "--out-dir", "{out}/\udcff"],
        ],
        ids=["argument", "out-dir"],
    )
    def test_undecodable_name_is_usage_before_any_file(self, tmp_path, capsys, delivery_file, argv):
        # Python gives a name whose bytes are not UTF-8 as lone surrogates.
        # Before, convert wrote the content file and an empty sidecar, then
        # exited 2 with VALUE_ERROR.
        out = tmp_path / "out"
        out.mkdir()
        argv = [arg.format(input=delivery_file[0], out=out) for arg in argv]
        code, out_text, err = run_cli(capsys, *argv)
        assert (code, out_text) == (1, "")
        error = single_error(err)
        assert error["code"] == "USAGE"
        assert error["message"].endswith("is not UTF-8 text")
        assert list(out.iterdir()) == []

    def test_rerun_byte_identical_outputs(self, tmp_path, capsys, delivery_file):
        path, _ = delivery_file
        for attempt in ("one", "two"):
            run_cli(capsys, "envelope", str(path), "--out-dir", str(tmp_path / attempt))
        assert (tmp_path / "one" / "envelope.md").read_bytes() == (
            tmp_path / "two" / "envelope.md"
        ).read_bytes()
        assert (tmp_path / "one" / "envelope_extremes.json").read_bytes() == (
            tmp_path / "two" / "envelope_extremes.json"
        ).read_bytes()

    @pytest.mark.parametrize("command", ["convert", "transform", "envelope", "export-ansys", "compare"])
    def test_sidecar_records_parsed_arguments(self, tmp_path, capsys, monkeypatch, si_delivery_file, command):
        path, d = si_delivery_file
        nodes = tmp_path / "nodes.json"
        nodes.write_text(json.dumps({p: 1000 + i for i, p in enumerate(POINTS)}))
        run_cli(capsys, "envelope", str(path), "--out-dir", str(tmp_path / "env"))
        extremes = str(tmp_path / "env" / "envelope_extremes.json")
        out = tmp_path / "out"
        args, sidecar = {
            "convert": (["convert", str(path), "--to", "json", "--out", f"{out}.json"], f"{out}.json.trace.ndjson"),
            "transform": (["transform", str(path), "--scale", "FX=2", "--out", f"{out}.json"], f"{out}.json.trace.ndjson"),
            "envelope": (["envelope", str(path), "--out-dir", str(out)], out / "trace.ndjson"),
            "export-ansys": (
                ["export-ansys", str(path), "--select", str(d.cases[0].id), "--node-map", str(nodes),
                 "--out-dir", str(out)],
                out / "trace.ndjson",
            ),
            "compare": (["compare", extremes, extremes, "--out", f"{out}.json"], f"{out}.json.trace.ndjson"),
        }[command]
        monkeypatch.setattr(sys, "argv", ["host-program", "--unrelated"])
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        first = json.loads(Path(sidecar).read_text().splitlines()[0])
        assert first["event"] == "invocation"
        assert first["argv"] == ["loadsmith", *args]
        # The whole sequence: one record per named input, then per written file.
        inputs = {"export-ansys": [str(path), str(nodes)], "compare": [extremes, extremes]}.get(command, [str(path)])
        written = json.loads(out)["written"]
        written = [written] if isinstance(written, str) else written
        events = [json.loads(line) for line in Path(sidecar).read_text().splitlines()]
        assert [e["event"] for e in events] == [
            "invocation", "environment", *["input"] * len(inputs), *["output"] * len(written), "done"
        ]
        assert [e["path"] for e in events[2:-1]] == [*inputs, *written]
        for event in events[2:-1]:
            data = Path(event["path"]).read_bytes()
            assert (event["bytes"], event["sha256"]) == (len(data), hashlib.sha256(data).hexdigest())

    def test_cli_import_leaves_numpy_out(self):
        src = Path(loadsmith.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, loadsmith.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_harness_and_http_out(self):
        # Pipeline steps skip the harness, the doc server, PyYAML, the YAML
        # reader, dataclasses, inspect and platform; the layer modules stay
        # imported, where a traced benchmark step looks them up.
        src = Path(loadsmith.__file__).resolve().parents[1]
        script = (
            "import json, sys, loadsmith.cli\n"
            "print(json.dumps(sorted(name for name in ("
            "'loadsmith.evalkit', 'loadsmith.docserver', 'urllib.request', 'http.client', 'yaml', "
            "'loadsmith.yaml_reader', 'dataclasses', 'inspect', 'platform', "
            "'loadsmith.ingest', 'loadsmith.transform', 'loadsmith.analysis', "
            "'loadsmith.export', 'loadsmith.compare', 'loadsmith.trace') "
            "if name in sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [
            "loadsmith.analysis", "loadsmith.compare", "loadsmith.export",
            "loadsmith.ingest", "loadsmith.trace", "loadsmith.transform",
        ]

    def test_package_import_runs_no_submodule(self):
        # Before, the package re-exported 42 names, so importing it ran
        # analysis, compare, export, ingest, model, strict and transform.
        src = Path(loadsmith.__file__).resolve().parents[1]
        script = (
            "import json, sys, loadsmith\n"
            "print(json.dumps([sorted(n for n in sys.modules if n.startswith('loadsmith.')), "
            "hasattr(loadsmith, '__all__')]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[], False]

    def test_each_replay_step_runs_only_its_modules(self, tmp_path):
        # The replay's steps and a no-op one, each in a fresh process. The
        # layer modules are in sys.modules from the CLI's import, but one that
        # has not run is still the lazy module type, which type() does not
        # run. Before, every step ran every layer module.
        src = Path(loadsmith.__file__).resolve().parents[1]
        script = (
            "import json, sys, types\n"
            "from loadsmith.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "ran = sorted(n[len('loadsmith.'):] for n, m in sys.modules.items()\n"
            "             if n.startswith('loadsmith.') and type(m) is types.ModuleType)\n"
            "sys.stderr.write(json.dumps({'exit': code, 'ran': ran}))\n"
        )
        read = {"cli", "errors", "ingest", "model", "strict"}
        runs = [
            read | {"trace", "yaml_reader"},
            read | {"trace", "transform"},
            read | {"analysis"},
            read | {"analysis", "export", "trace"},
            read | {"export", "trace"},
            read | {"compare", "export", "trace"},
            {"cli", "errors", "evalkit", "evalkit.passk"},
        ]
        steps = [*REPLAY_STEPS, (["eval", "passk", "--p", "0.9"], 0)]
        for (argv, code), ran in zip(steps, runs, strict=True):
            proc = subprocess.run(
                [sys.executable, "-c", script, *argv],
                cwd=tmp_path, capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(src)},
            )
            assert json.loads(proc.stderr) == {"exit": code, "ran": sorted(ran)}, argv[0]

    def test_process_entry_freezes_after_the_command(self, tmp_path, monkeypatch):
        # python -m loadsmith runs __main__ as a fresh process does; once the
        # command has returned, it freezes what is left, so shutdown's
        # collection walks none of it. The status is the command's. Before,
        # nothing was frozen.
        monkeypatch.chdir(tmp_path)
        for argv, code in REPLAY_STEPS[:-1]:
            assert main(argv) == code, argv[0]
        script = (
            "import gc, json, runpy, sys\n"
            "try:\n"
            "    runpy.run_module('loadsmith', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    sys.stderr.write(json.dumps({'exit': exc.code, 'frozen': gc.get_freeze_count()}))\n"
        )
        src = Path(loadsmith.__file__).resolve().parents[1]
        for argv, code in [(["eval", "passk", "--p", "0.9"], 0), REPLAY_STEPS[-1]]:
            proc = subprocess.run(
                [sys.executable, "-c", script, *argv],
                cwd=tmp_path, capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(src)},
            )
            ended = json.loads(proc.stderr)
            assert ended["exit"] == code and ended["frozen"] > 0, (argv[0], ended)

    def test_main_in_process_never_freezes(self):
        # A caller that keeps running (tests, perfbench's cli_child.py) would
        # otherwise keep its cyclic garbage for good.
        frozen = gc.get_freeze_count()
        assert main(["eval", "passk", "--p", "0.9"]) == 0
        assert gc.get_freeze_count() == frozen

    def test_replay_steps_leave_no_file_to_a_finalizer(self, tmp_path, monkeypatch):
        # The process entry freezes what is left once main() returns, so a
        # file left for a finalizer to close might never be closed. Every file
        # a step opens is closed before it returns: none warns when collected.
        monkeypatch.chdir(tmp_path)
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for argv, code in REPLAY_STEPS:
                assert main(argv) == code, argv[0]
            gc.collect()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_traced_benchmark_steps_record_layer_spans(self, tmp_path):
        # perfbench's traced cli_replay runs each step through cli_child.py,
        # which wraps the layer functions it finds in sys.modules. This runs
        # two steps that way, so an import change that hides a layer module
        # from it fails here, not only in the benchmark's self-test.
        src = Path(loadsmith.__file__).resolve().parents[1]
        inputs = SCENARIOS_DIR / "inputs"
        processed = tmp_path / "processed.json"
        delivery, _ = rename_points(
            parse_delivery((inputs / "OEM_loads_v2.yaml").read_bytes()),
            {"lug_left": "lug_port", "lug_right": "lug_starboard", "lug_fairlead": "lug_failsafe"},
        )
        processed.write_text(write_delivery_json(convert_units(delivery, SI_UNITS)), encoding="utf-8")
        steps = [
            (["equilibrium", str(processed)], "analysis.equilibrium"),
            (["export-ansys", str(processed), "--select", "2", "--node-map", str(inputs / "node_map.json"),
              "--out-dir", str(tmp_path / "decks")], "export.decks"),
        ]
        for argv, layer in steps:
            spans = tmp_path / "spans.ndjson"
            proc = subprocess.run(
                [sys.executable, str(REPO_ROOT / "perfbench" / "cli_child.py"), str(spans), *argv],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(src)},
            )
            assert proc.returncode == 0, proc.stderr
            names = {json.loads(line)["name"] for line in spans.read_text(encoding="utf-8").splitlines()}
            assert {"ingest.parse", layer} <= names, argv[0]

    def test_harness_and_doc_server_import_leave_dataclasses_out(self):
        # Before, their records were dataclasses, which import inspect. The
        # runner imports every other harness module.
        src = Path(loadsmith.__file__).resolve().parents[1]
        script = (
            "import sys, loadsmith.evalkit.runner, loadsmith.docserver\n"
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_eval_passk_loads_only_passk(self):
        # Before, the harness package imported every harness module, so
        # eval passk loaded the runner, scenario reader, checks and judge.
        src = Path(loadsmith.__file__).resolve().parents[1]
        script = (
            "import json, sys\n"
            "from loadsmith.cli import main\n"
            "code = main(['eval', 'passk', '--p', '0.9'])\n"
            "harness = sorted(n for n in sys.modules if n.startswith('loadsmith.evalkit.'))\n"
            "sys.stderr.write(json.dumps({'exit': code, 'harness': harness}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.stdout.strip() == "29"
        assert json.loads(proc.stderr) == {"exit": 0, "harness": ["loadsmith.evalkit.passk"]}

    def test_json_only_steps_leave_yaml_out(self, tmp_path):
        # The replay's first three steps on the shipped delivery, each in a
        # fresh process: reading and writing JSON loads neither PyYAML nor the
        # YAML reader, and a step that writes no sidecar (equilibrium) hashes
        # nothing, so it skips hashlib. The shipped YAML is in the block
        # subset, so converting it loads the reader but not PyYAML; a flow
        # mapping takes the event reader, which loads both. Before, the reader
        # imported PyYAML as it loaded, and trace imported hashlib. No step
        # loads datetime but through PyYAML, which imports it: trace stamps
        # its events without it.
        src = Path(loadsmith.__file__).resolve().parents[1]
        shipped = SCENARIOS_DIR / "inputs" / "OEM_loads_v2.yaml"
        flow = tmp_path / "flow.yaml"
        flow.write_text(
            shipped.read_text(encoding="utf-8").replace(
                "units:\n  force: klbs\n  moment: klbs.in\n", "units: {force: klbs, moment: klbs.in}\n"
            ),
            encoding="utf-8",
        )
        delivery = tmp_path / "delivery.json"
        delivery.write_text(write_delivery_json(parse_delivery(shipped.read_bytes())), encoding="utf-8")
        processed = tmp_path / "processed.json"
        script = (
            "import json, sys\n"
            "from loadsmith.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "probed = ('yaml', 'loadsmith.yaml_reader', 'hashlib', 'datetime')\n"
            "loaded = [name for name in probed if name in sys.modules]\n"
            "sys.stderr.write(json.dumps({'exit': code, 'loaded': loaded}))\n"
        )
        steps = [
            (["transform", str(delivery), "--rename", "lug_left=lug_port",
              "--rename", "lug_right=lug_starboard", "--rename", "lug_fairlead=lug_failsafe",
              "--scale", "FX=1.04", "--units", "N,N·m", "--out", str(processed)], ["hashlib"]),
            (["equilibrium", str(processed)], []),
            (["convert", str(shipped), "--to", "json", "--out", str(tmp_path / "converted.json")],
             ["loadsmith.yaml_reader", "hashlib"]),
            (["convert", str(flow), "--to", "json", "--out", str(tmp_path / "flow.json")],
             ["yaml", "loadsmith.yaml_reader", "hashlib", "datetime"]),
        ]
        for argv, loaded in steps:
            proc = subprocess.run(
                [sys.executable, "-c", script, *argv],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(src)},
            )
            assert json.loads(proc.stderr) == {"exit": 0, "loaded": loaded}, argv[0]
        assert (tmp_path / "flow.json").read_bytes() == (tmp_path / "converted.json").read_bytes()
        backends = {}
        for output in (processed, tmp_path / "converted.json", tmp_path / "flow.json"):
            sidecar = [json.loads(line) for line in Path(f"{output}.trace.ndjson").read_text().splitlines()]
            (environment,) = [e for e in sidecar if e["event"] == "environment"]
            backends[output.name] = environment["yaml_backend"]
        assert backends == {
            "processed.json": None, "converted.json": "block", "flow.json": yaml_backend(),
        }

    def test_console_entry_point_subprocess(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "loadsmith", "eval", "passk", "--p", "0.9"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "29"
