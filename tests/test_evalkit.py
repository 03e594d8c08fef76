import json
import os
import platform
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
import yaml

import loadsmith
from loadsmith.cli import main
from loadsmith.evalkit.checks import (
    ReferenceError,
    file_set_check,
    numeric_file_compare,
    text_golden_check,
)
from loadsmith.evalkit.judge import judge_check
from loadsmith.evalkit.passk import pass_lower_bound
from loadsmith.evalkit.runner import run_scenario
from loadsmith.evalkit.scenario import load_scenario, parse_scenario
from loadsmith.errors import SchemaError

from conftest import REPO_ROOT


class TestNumericFileCompare:
    def write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    def test_identical_files_pass(self, tmp_path):
        a = self.write(tmp_path, "a.json", {"x": 1.0, "nested": {"y": [1, 2]}})
        b = self.write(tmp_path, "b.json", {"x": 1.0, "nested": {"y": [1, 2]}})
        result = numeric_file_compare(a, b)
        assert result.passed
        assert result.diffs == ()

    def test_within_relative_tolerance_passes(self, tmp_path):
        # 100.0005 vs 100.0 is 5e-6 relative, below 1e-5
        a = self.write(tmp_path, "a.json", {"v": 100.0005})
        b = self.write(tmp_path, "b.json", {"v": 100.0})
        assert numeric_file_compare(a, b, rel_tol=1e-5).passed

    def test_beyond_relative_tolerance_fails(self, tmp_path):
        # 100.002 vs 100.0 is 2e-5 relative, above 1e-5
        a = self.write(tmp_path, "a.json", {"v": 100.002})
        b = self.write(tmp_path, "b.json", {"v": 100.0})
        result = numeric_file_compare(a, b, rel_tol=1e-5)
        assert not result.passed
        assert "$.v" in result.diffs[0]

    def test_missing_key_named(self, tmp_path):
        a = self.write(tmp_path, "a.json", {"x": 1.0})
        b = self.write(tmp_path, "b.json", {"x": 1.0, "missing_one": 2.0})
        result = numeric_file_compare(a, b)
        assert not result.passed
        assert any("missing_one" in d for d in result.diffs)

    def test_extra_key_named(self, tmp_path):
        a = self.write(tmp_path, "a.json", {"x": 1.0, "surplus": 3.0})
        b = self.write(tmp_path, "b.json", {"x": 1.0})
        result = numeric_file_compare(a, b)
        assert any("surplus" in d for d in result.diffs)

    def test_absent_actual_is_fail_not_error(self, tmp_path):
        b = self.write(tmp_path, "b.json", {"x": 1.0})
        result = numeric_file_compare(tmp_path / "nope.json", b)
        assert not result.passed

    def test_broken_reference_raises(self, tmp_path):
        a = self.write(tmp_path, "a.json", {"x": 1.0})
        with pytest.raises(ReferenceError) as missing:
            numeric_file_compare(a, tmp_path / "nope.json")
        assert missing.value.code == "REFERENCE_ERROR"
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ReferenceError):
            numeric_file_compare(a, bad)

    def test_structure_mismatch_is_fail(self, tmp_path):
        a = self.write(tmp_path, "a.json", {"x": [1, 2, 3]})
        b = self.write(tmp_path, "b.json", {"x": [1, 2]})
        result = numeric_file_compare(a, b)
        assert not result.passed

    @pytest.mark.parametrize(
        "text,diff",
        [
            ('{"v": NaN}', "$.v: nan != expected 5.0"),
            ('{"v": Infinity}', "$.v: inf != expected 5.0"),
            ('{"v": 1e400}', "$.v: inf != expected 5.0"),
            ('{"v": 1%s}' % ("0" * 400), "$.v: 1000"),
            ('{"v": 5.0, "v": 5.0}', "duplicate key 'v' in actual file JSON"),
            ('{"v": ', "invalid actual file JSON: Expecting value at line 1, column 7"),
        ],
        ids=["nan", "infinity", "overflowing-float", "overflowing-int", "repeated-key", "truncated"],
    )
    def test_non_finite_or_repeated_actual_fails(self, tmp_path, text, diff):
        a = tmp_path / "a.json"
        a.write_text(text, encoding="utf-8")
        b = self.write(tmp_path, "b.json", {"v": 5.0})
        result = numeric_file_compare(a, b, rel_tol=1e-12)
        assert result.status == "fail"
        assert result.diffs[0].startswith(diff)

    def test_undecodable_actual_fails(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_bytes(b'{"v": "\xff"}')
        b = self.write(tmp_path, "b.json", {"v": 5.0})
        result = numeric_file_compare(a, b)
        assert result.diffs == ("actual file is not UTF-8 text: invalid start byte at offset 7",)

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"v": 5.0, "v": 7.0}', "duplicate key 'v' in reference file"),
            ('{"v": [1.0, NaN]}', "holds a non-finite number at $.v[1]"),
            ('{"w": {"v": -Infinity}}', "holds a non-finite number at $.w.v"),
        ],
        ids=["repeated-key", "nan", "infinity"],
    )
    def test_repeated_key_or_non_finite_reference_raises(self, tmp_path, text, message):
        a = self.write(tmp_path, "a.json", {"v": 7.0})
        b = tmp_path / "b.json"
        b.write_text(text, encoding="utf-8")
        with pytest.raises(ReferenceError) as err:
            numeric_file_compare(a, b)
        assert message in str(err.value)

    @pytest.mark.parametrize("tol", [{"abs_tol": float("nan")}, {"rel_tol": float("inf")}])
    def test_non_finite_tolerance_refused(self, tmp_path, tol):
        a = self.write(tmp_path, "a.json", {"v": 1.0})
        with pytest.raises(ValueError):
            numeric_file_compare(a, a, **tol)


class TestFileSetCheck:
    def test_exact_match(self, tmp_path):
        (tmp_path / "a.inp").write_text("x")
        (tmp_path / "b.inp").write_text("y")
        assert file_set_check(tmp_path, ["a.inp", "b.inp"]).passed

    def test_missing_and_extra_listed(self, tmp_path):
        (tmp_path / "b.inp").write_text("y")
        result = file_set_check(tmp_path, ["a.inp"])
        assert not result.passed
        assert "missing: a.inp" in result.diffs
        assert "unexpected: b.inp" in result.diffs

    def test_missing_directory_fails(self, tmp_path):
        assert not file_set_check(tmp_path / "nowhere", ["a"]).passed


class TestTextGolden:
    def test_byte_equal_passes(self, tmp_path):
        (tmp_path / "got.txt").write_text("line\n")
        (tmp_path / "want.txt").write_text("line\n")
        assert text_golden_check(tmp_path / "got.txt", tmp_path / "want.txt").passed

    def test_difference_names_line(self, tmp_path):
        (tmp_path / "got.txt").write_text("one\ntwo\n")
        (tmp_path / "want.txt").write_text("one\nTWO\n")
        result = text_golden_check(tmp_path / "got.txt", tmp_path / "want.txt")
        assert not result.passed
        assert "line 2" in result.diffs[0]

    def test_missing_golden_raises(self, tmp_path):
        (tmp_path / "got.txt").write_text("x")
        with pytest.raises(ReferenceError):
            text_golden_check(tmp_path / "got.txt", tmp_path / "nope.txt")


class TestStubJudge:
    def test_require_satisfied(self, tmp_path):
        script = tmp_path / "pipeline.py"
        script.write_text("loads = scale_component(loads, Component.FX, 1.04)\n")
        result = judge_check([script], "require: scale_component.*1\\.04", "stub")
        assert result.passed
        assert result.to_dict() == {
            "kind": "judge", "status": "pass", "rationale": "all 1 rubric rules satisfied",
        }

    def test_missing_step_fails_with_named_rule(self, tmp_path):
        script = tmp_path / "pipeline.py"
        script.write_text("# no rename here\n")
        rubric = "require: rename_points\nrequire: 1\\.04"
        result = judge_check([script], rubric, "stub")
        assert result.status == "fail"
        assert "rename_points" in result.rationale

    def test_forbid_rule(self, tmp_path):
        script = tmp_path / "pipeline.py"
        script.write_text("import os; os.system('rm')\n")
        result = judge_check([script], "forbid: os\\.system", "stub")
        assert result.status == "fail"

    def test_comments_and_blanks_ignored(self, tmp_path):
        script = tmp_path / "s.py"
        script.write_text("value = 1.04\n")
        rubric = "# factor applied\n\nrequire: 1\\.04\n"
        assert judge_check([script], rubric, "stub").passed

    def test_bad_rubric_line_is_error(self, tmp_path):
        script = tmp_path / "s.py"
        script.write_text("x")
        with pytest.raises(ReferenceError, match="^judge error: rubric line 1 "):
            judge_check([script], "script applies factor", "stub")

    def test_empty_rubric_is_error(self, tmp_path):
        script = tmp_path / "s.py"
        script.write_text("x")
        with pytest.raises(ReferenceError, match="^judge error: rubric contains no rules$"):
            judge_check([script], "# only a comment", "stub")

    def test_missing_artifact_is_error(self, tmp_path):
        # Before, the message named no artifact.
        (tmp_path / "here.py").write_text("x = 1\n")
        with pytest.raises(ReferenceError) as err:
            judge_check([tmp_path / "here.py", tmp_path / "gone.py"], "require: x", "stub")
        assert str(err.value) == "judge error: artifact gone.py could not be read: No such file or directory"

    def test_undecodable_artifact_is_error(self, tmp_path):
        # The strict reader names the artifact and the offset of its first bad byte.
        script = tmp_path / "s.py"
        script.write_bytes(b"x = 1\n\xff")
        with pytest.raises(ReferenceError) as err:
            judge_check([script], "require: x", "stub")
        assert str(err.value) == (
            "judge error: artifact s.py is not UTF-8 text: invalid start byte at offset 6"
        )

    def test_artifact_line_ends_read_as_newlines(self, tmp_path):
        # CRLF and CR line ends read as LF, as a file opened in text mode reads them.
        script = tmp_path / "s.py"
        script.write_bytes(b"alpha\r\nbeta\rgamma\n")
        assert judge_check([script], "require: ^alpha$\nrequire: ^beta$", "stub").passed

    def test_unknown_adapter_is_error(self, tmp_path):
        script = tmp_path / "s.py"
        script.write_text("x")
        with pytest.raises(ReferenceError, match="no judge adapter registered under 'no_such_adapter'"):
            judge_check([script], "require: x", "no_such_adapter")


# Response bodies the local judge server sends back, by request path.
_JUDGE_RESPONSES = {
    "/list": b"[]",
    "/bare-string": b'"PASS"',
    "/no-verdict": b'{"rationale": "looked fine"}',
    "/number-verdict": b'{"verdict": 1}',
    "/number-rationale": b'{"verdict": "PASS", "rationale": 7}',
    "/repeated-key": b'{"verdict": "FAIL", "verdict": "PASS"}',
    "/not-json": b"PASS",
    "/not-utf8": b'{"verdict": "PASS", "rationale": "\xff"}',
    "/extra-key": b'{"verdict": "PASS", "score": 1}',
}


class _JudgeHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        payload = _JUDGE_RESPONSES.get(self.path)
        if payload is None:
            passed = "1.04" in body["artifacts"][0]["content"]
            payload = json.dumps(
                {"verdict": "PASS" if passed else "FAIL", "rationale": "checked factor"}
            ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def judge_server():
    server = HTTPServer(("127.0.0.1", 0), _JudgeHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


class TestHttpJudge:
    def test_round_trip_pass_and_fail(self, tmp_path, judge_server):
        good = tmp_path / "good.py"
        good.write_text("factor = 1.04\n")
        bad = tmp_path / "bad.py"
        bad.write_text("factor = 1.0\n")
        endpoint = f"{judge_server}/judge"
        passed = judge_check([good], "apply the factor", "http", endpoint=endpoint)
        assert passed.passed and passed.rationale == "checked factor"
        assert judge_check([bad], "apply the factor", "http", endpoint=endpoint).status == "fail"

    def test_unreachable_endpoint_is_error(self, tmp_path):
        script = tmp_path / "s.py"
        script.write_text("x")
        with pytest.raises(ReferenceError, match="^judge error: judge endpoint unreachable: "):
            judge_check([script], "rubric", "http", endpoint="http://127.0.0.1:9/judge")

    def test_missing_endpoint_is_error(self, tmp_path):
        script = tmp_path / "s.py"
        script.write_text("x")
        with pytest.raises(ReferenceError, match="^judge error: http judge adapter requires an endpoint$"):
            judge_check([script], "rubric", "http")

    @pytest.mark.parametrize("path", sorted(_JUDGE_RESPONSES))
    def test_malformed_response_is_error(self, tmp_path, judge_server, path):
        script = tmp_path / "s.py"
        script.write_text("factor = 1.04\n")
        with pytest.raises(ReferenceError, match="^judge error: unparseable judge response: "):
            judge_check([script], "rubric", "http", endpoint=judge_server + path)

    def test_malformed_response_fails_run_as_infrastructure(self, tmp_path, judge_server, capsys):
        scenario_dir = tmp_path / "scenario"
        scenario_dir.mkdir()
        scenario = {
            "id": "http-judge-list",
            "k": 2,
            "environment": {
                "stage": [],
                "subject_command": ["{python}", "-c", "open('s.py', 'w').write('1.04')"],
            },
            "checks": [{
                "kind": "judge", "adapter": "http", "endpoint": judge_server + "/list",
                "artifacts": ["s.py"], "rubric": "apply the factor",
            }],
        }
        path = scenario_dir / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        out = tmp_path / "runs"
        code = main(["eval", "run", str(path), "--out-dir", str(out)])
        assert code == 4
        summary = json.loads(capsys.readouterr().out)[0]
        assert summary["infrastructure_failures"] == 2
        reason = "judge error: unparseable judge response: expected a mapping at $"
        assert summary["failures"] == [{"run": 1, "reason": reason}, {"run": 2, "reason": reason}]
        on_disk = json.loads((out / "http-judge-list" / "report.json").read_text())
        assert [run["infrastructure_error"] for run in on_disk["runs"]] == [reason, reason]


class TestScenarioParsing:
    GOOD = {
        "id": "demo",
        "description": "copy a file",
        "k": 3,
        "environment": {
            "stage": [{"source": "in.txt", "dest": "in.txt"}],
            "subject_command": ["{python}", "-c", "pass"],
        },
        "checks": [
            {"kind": "text_golden", "actual": "out.txt", "reference": "ref.txt"}
        ],
    }

    def test_parse_good(self):
        scenario = parse_scenario(json.dumps(self.GOOD))
        assert scenario.id == "demo"
        assert scenario.k == 3
        assert scenario.checks[0].kind == "text_golden"

    def test_unknown_check_kind(self):
        bad = dict(self.GOOD, checks=[{"kind": "vibes"}])
        with pytest.raises(SchemaError):
            parse_scenario(json.dumps(bad))

    def test_check_requires_fields(self):
        bad = dict(self.GOOD, checks=[{"kind": "text_golden", "actual": "x"}])
        with pytest.raises(SchemaError):
            parse_scenario(json.dumps(bad))

    def test_k_must_be_positive(self):
        with pytest.raises(SchemaError):
            parse_scenario(json.dumps(dict(self.GOOD, k=0)))

    def test_needs_a_check(self):
        with pytest.raises(SchemaError):
            parse_scenario(json.dumps(dict(self.GOOD, checks=[])))

    def test_shipped_scenarios_parse(self):
        paths = sorted((REPO_ROOT / "scenarios").glob("*.json"))
        assert [load_scenario(path).checks[0].kind for path in paths] == ["numeric_file_compare"] * 2

    def test_unknown_field_rejected(self):
        bad = dict(self.GOOD, checks=[dict(self.GOOD["checks"][0], abs_tol=0)])
        with pytest.raises(SchemaError) as err:
            parse_scenario(json.dumps(bad))
        assert err.value.location == "checks[0].abs_tol"

    def test_negative_tolerance_rejected(self):
        bad = dict(
            self.GOOD,
            checks=[{
                "kind": "numeric_file_compare", "actual": "a", "reference": "b",
                "abs_tol": -1,
            }],
        )
        with pytest.raises(SchemaError):
            parse_scenario(json.dumps(bad))


def make_copy_scenario(tmp_path: Path, k: int = 3, correct: bool = True) -> Path:
    """Subject copies a staged file to out.txt; golden compares against reference."""
    scenario_dir = tmp_path / "scenario"
    scenario_dir.mkdir()
    (scenario_dir / "payload.txt").write_text("reference payload\n", encoding="utf-8")
    (scenario_dir / "ref.txt").write_text("reference payload\n", encoding="utf-8")
    copier = "import shutil; shutil.copyfile('payload.txt', 'out.txt')"
    if not correct:
        copier = "open('out.txt', 'w').write('wrong payload\\n')"
    scenario = {
        "id": "copy-file",
        "description": "subject copies the staged payload verbatim",
        "k": k,
        "environment": {
            "stage": [{"source": "payload.txt", "dest": "payload.txt"}],
            "subject_command": ["{python}", "-c", copier],
        },
        "checks": [
            {"kind": "text_golden", "actual": "out.txt", "reference": "ref.txt"}
        ],
    }
    path = scenario_dir / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return path


class TestRunScenario:
    def test_verbatim_copy_passes_k3(self, tmp_path):
        scenario = load_scenario(make_copy_scenario(tmp_path, k=3))
        report = run_scenario(scenario, tmp_path / "runs")
        assert report.passes == 3
        assert report.pass_hat_k
        assert report.lower_bound == pytest.approx(pass_lower_bound(3, 0.05))
        assert report.lower_bound == pytest.approx(0.05 ** (1 / 3), abs=1e-12)

    def test_wrong_output_fails(self, tmp_path):
        scenario = load_scenario(make_copy_scenario(tmp_path, k=2, correct=False))
        report = run_scenario(scenario, tmp_path / "runs")
        assert report.passes == 0
        assert not report.pass_hat_k
        assert report.lower_bound is None

    def test_k_override(self, tmp_path):
        scenario = load_scenario(make_copy_scenario(tmp_path, k=3))
        report = run_scenario(scenario, tmp_path / "runs", k=1)
        assert report.k == 1

    def test_staging_failure_is_infrastructure(self, tmp_path):
        path = make_copy_scenario(tmp_path, k=2)
        (path.parent / "payload.txt").unlink()
        report = run_scenario(load_scenario(path), tmp_path / "runs")
        assert report.infrastructure_failures == 2
        assert report.passes == 0

    def test_traces_written_per_run(self, tmp_path):
        scenario = load_scenario(make_copy_scenario(tmp_path, k=2))
        out = tmp_path / "runs"
        report = run_scenario(scenario, out)
        for i in (1, 2):
            trace_file = out / f"run_{i}" / "trace.ndjson"
            events = [json.loads(line) for line in trace_file.read_text().splitlines()]
            kinds = {e["event"] for e in events}
            assert {"stage", "exec", "artifact", "check", "result"} <= kinds
            artifact_events = [e for e in events if e["event"] == "artifact"]
            assert any(e["path"] == "out.txt" for e in artifact_events)
            assert all("sha256" in e for e in artifact_events)
            (exec_event,) = [e for e in events if e["event"] == "exec"]
            assert {"stdout", "stderr", "pythonpath"} <= exec_event.keys()
            assert exec_event["exit_status"] == report.runs[i - 1].exit_status == 0
        # report.json names each run's trace instead of copying it
        on_disk = json.loads((out / "report.json").read_text())
        for i, entry in enumerate(on_disk["runs"], start=1):
            assert list(entry) == [
                "run_index", "trace", "exit_status", "verdicts", "passed", "reason",
                "infrastructure_error",
            ]
            assert (entry["run_index"], entry["trace"]) == (i, f"run_{i}/trace.ndjson")
            assert (out / entry["trace"]).is_file()

    def test_runs_are_isolated(self, tmp_path):
        scenario = load_scenario(make_copy_scenario(tmp_path, k=3))
        out = tmp_path / "runs"
        report = run_scenario(scenario, out)
        dirs = {r.run_index: out / f"run_{r.run_index}" for r in report.runs}
        assert len(dirs) == 3
        # deleting one run's directory does not invalidate the others' records
        import shutil

        shutil.rmtree(dirs[2])
        assert (dirs[1] / "out.txt").read_text() == "reference payload\n"
        assert report.runs[0].passed and report.runs[2].passed

    def test_nonzero_exit_is_not_harness_error(self, tmp_path):
        scenario_dir = tmp_path / "scenario"
        scenario_dir.mkdir()
        (scenario_dir / "ref.txt").write_text("x\n", encoding="utf-8")
        scenario = {
            "id": "crash",
            "k": 1,
            "environment": {
                "stage": [],
                "subject_command": [
                    "{python}", "-c",
                    "open('out.txt','w').write('x\\n'); raise SystemExit(9)",
                ],
            },
            "checks": [
                {"kind": "text_golden", "actual": "out.txt", "reference": "ref.txt"}
            ],
        }
        path = scenario_dir / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        report = run_scenario(load_scenario(path), tmp_path / "runs")
        assert report.infrastructure_failures == 0
        assert report.runs[0].exit_status == 9
        assert report.passes == 1  # the artifact was still correct

    def test_relative_pythonpath_reaches_subject(self, tmp_path, monkeypatch):
        # `PYTHONPATH=src python -m pytest` from the repo root: inside the
        # run directory, "src" must still mean the repo's src directory.
        monkeypatch.chdir(REPO_ROOT)
        monkeypatch.setenv("PYTHONPATH", "src")
        scenario_dir = tmp_path / "scenario"
        scenario_dir.mkdir()
        (scenario_dir / "ref.txt").write_text("imported\n", encoding="utf-8")
        scenario = {
            "id": "import-toolkit",
            "k": 1,
            "environment": {
                "stage": [],
                "subject_command": [
                    "{python}", "-c",
                    "import loadsmith; print(loadsmith.__file__); "
                    "open('out.txt', 'w').write('imported\\n')",
                ],
            },
            "checks": [
                {"kind": "text_golden", "actual": "out.txt", "reference": "ref.txt"}
            ],
        }
        path = scenario_dir / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        report = run_scenario(load_scenario(path), tmp_path / "runs")
        run = report.runs[0]
        assert run.exit_status == 0, run.reason
        assert run.passed
        events = [
            json.loads(line)
            for line in (tmp_path / "runs" / run.trace).read_text().splitlines()
        ]
        (exec_event,) = [e for e in events if e["event"] == "exec"]
        imported = Path(exec_event["stdout"].strip()).resolve()
        assert imported.is_relative_to((REPO_ROOT / "src").resolve())

    def test_pythonpath_entries_made_absolute(self, tmp_path, monkeypatch):
        # an empty entry is the current directory to Python
        monkeypatch.chdir(tmp_path)
        absolute = str(tmp_path / "elsewhere")
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(["lib", "", absolute]))
        out = tmp_path / "runs"
        run_scenario(load_scenario(make_copy_scenario(tmp_path, k=1)), out)
        events = [
            json.loads(line)
            for line in (out / "run_1" / "trace.ndjson").read_text().splitlines()
        ]
        (exec_event,) = [e for e in events if e["event"] == "exec"]
        cwd = os.getcwd()
        assert exec_event["pythonpath"] == os.pathsep.join(
            [os.path.join(cwd, "lib"), cwd, absolute]
        )

    def test_failed_run_names_reason(self, tmp_path):
        scenario_dir = tmp_path / "scenario"
        scenario_dir.mkdir()
        (scenario_dir / "ref.txt").write_text("x\n", encoding="utf-8")
        scenario = {
            "id": "boom",
            "k": 1,
            "environment": {
                "stage": [],
                "subject_command": [
                    "{python}", "-c", "import sys; sys.stderr.write('starting\\nboom\\n'); sys.exit(1)",
                ],
                "record": {"toolkit": "loadsmith"},
            },
            "checks": [
                {"kind": "text_golden", "actual": "out.txt", "reference": "ref.txt"}
            ],
        }
        path = scenario_dir / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        out = tmp_path / "runs"
        report = run_scenario(load_scenario(path), out)
        assert report.runs[0].reason == "exit status 1: boom"
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk["runs"][0]["reason"] == "exit status 1: boom"
        events = [
            json.loads(line)
            for line in (out / "run_1" / "trace.ndjson").read_text().splitlines()
        ]
        (versions,) = [e for e in events if e["event"] == "versions"]
        assert versions["toolkit"] == "loadsmith"
        assert versions["python"] == platform.python_version()
        assert versions["loadsmith"] == loadsmith.__version__
        assert versions["yaml_backend"] == ("libyaml" if yaml.__with_libyaml__ else "python")

    def test_passing_run_has_no_reason(self, tmp_path):
        report = run_scenario(load_scenario(make_copy_scenario(tmp_path, k=1)), tmp_path / "runs")
        assert report.runs[0].reason is None
        events = (tmp_path / "runs" / "run_1" / "trace.ndjson").read_text().splitlines()
        assert any(json.loads(line)["event"] == "versions" for line in events)

    def test_wrong_factor_reason_names_first_diff(self, tmp_path):
        scenario = load_scenario(REPO_ROOT / "scenarios" / "case_replay_wrong_factor.json")
        run = run_scenario(scenario, tmp_path / "runs", k=1).runs[0]
        first = run.verdicts[0]
        assert first.kind == "numeric_file_compare" and not first.passed
        assert run.reason == f"numeric_file_compare check failed: {first.diffs[0]}"
        assert run.reason.startswith("numeric_file_compare check failed: $.extremes.bearing.FX.max: ")

    def test_report_persisted(self, tmp_path):
        scenario = load_scenario(make_copy_scenario(tmp_path, k=1))
        out = tmp_path / "runs"
        report = run_scenario(scenario, out)
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk["scenario_id"] == report.scenario_id
        assert on_disk["pass_hat_k"] is True
