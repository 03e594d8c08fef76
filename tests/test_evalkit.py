import hashlib
import json
import os
import platform
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
        "actual,reference,diff",
        [
            ([1.0], {"a": 1.0}, "$.x: expected object, got list"),
            ({"a": 1.0}, [1.0], "$.x: expected array, got dict"),
            ("1.0", 1.0, "$.x: expected number, got '1.0'"),
            (True, 1, "$.x: expected number, got True"),
            ("kN", "N", "$.x: 'kN' != expected 'N'"),
            (None, False, "$.x: None != expected False"),
        ],
        ids=["object", "array", "number", "bool-for-number", "string", "bool"],
    )
    def test_type_mismatch_names_path_and_types(self, tmp_path, actual, reference, diff):
        a = self.write(tmp_path, "a.json", {"x": actual})
        b = self.write(tmp_path, "b.json", {"x": reference})
        assert numeric_file_compare(a, b).diffs == (diff,)

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

    def test_directory_at_actual_fails_naming_it(self, tmp_path):
        # Before, the IsADirectoryError escaped: eval run stopped with IO_ERROR.
        (tmp_path / "a.json").mkdir()
        b = self.write(tmp_path, "b.json", {"v": 5.0})
        result = numeric_file_compare(tmp_path / "a.json", b)
        assert (result.status, result.diffs) == (
            "fail", (f"actual file {tmp_path / 'a.json'} could not be read: Is a directory",)
        )

    def test_directory_at_reference_raises(self, tmp_path):
        a = self.write(tmp_path, "a.json", {"v": 5.0})
        (tmp_path / "b.json").mkdir()
        with pytest.raises(ReferenceError) as err:
            numeric_file_compare(a, tmp_path / "b.json")
        assert str(err.value) == f"reference file {tmp_path / 'b.json'} could not be read: Is a directory"

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

    def test_file_at_directory_fails_naming_it(self, tmp_path):
        # Before, this diff read "directory missing", and a directory that
        # could not be listed escaped as an operating-system error.
        (tmp_path / "decks").write_text("not a directory")
        result = file_set_check(tmp_path / "decks", ["a.inp"])
        assert result.diffs == (f"directory {tmp_path / 'decks'} could not be read: Not a directory",)


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

    def test_prefix_names_lengths(self, tmp_path):
        # every line the two share is equal: only the final newline is missing
        (tmp_path / "got.txt").write_bytes(b"one\ntwo")
        (tmp_path / "want.txt").write_bytes(b"one\ntwo\n")
        result = text_golden_check(tmp_path / "got.txt", tmp_path / "want.txt")
        assert result.diffs == ("length differs: 7 vs 8 bytes",)

    def test_missing_golden_raises(self, tmp_path):
        (tmp_path / "got.txt").write_text("x")
        with pytest.raises(ReferenceError) as err:
            text_golden_check(tmp_path / "got.txt", tmp_path / "nope.txt")
        assert str(err.value) == (
            f"reference file {tmp_path / 'nope.txt'} could not be read: No such file or directory"
        )

    def test_missing_actual_fails_naming_it(self, tmp_path):
        (tmp_path / "want.txt").write_text("x")
        result = text_golden_check(tmp_path / "got.txt", tmp_path / "want.txt")
        assert result.diffs == (
            f"actual file {tmp_path / 'got.txt'} could not be read: No such file or directory",
        )

    def test_directory_at_actual_fails_naming_it(self, tmp_path):
        # Before, the IsADirectoryError escaped: eval run stopped with IO_ERROR.
        (tmp_path / "got.txt").mkdir()
        (tmp_path / "want.txt").write_text("x")
        result = text_golden_check(tmp_path / "got.txt", tmp_path / "want.txt")
        assert (result.status, result.diffs) == (
            "fail", (f"actual file {tmp_path / 'got.txt'} could not be read: Is a directory",)
        )

    def test_directory_at_reference_raises(self, tmp_path):
        # Before, the IsADirectoryError escaped: eval run stopped with IO_ERROR.
        (tmp_path / "got.txt").write_text("x")
        (tmp_path / "want.txt").mkdir()
        with pytest.raises(ReferenceError) as err:
            text_golden_check(tmp_path / "got.txt", tmp_path / "want.txt")
        assert str(err.value) == f"reference file {tmp_path / 'want.txt'} could not be read: Is a directory"


class TestStubJudge:
    def test_require_satisfied(self, tmp_path):
        script = tmp_path / "pipeline.py"
        script.write_text("loads = scale_component(loads, Component.FX, 1.04)\n")
        result = judge_check([script], "require: scale_component.*1\\.04")
        assert result.passed
        assert result.to_dict() == {
            "kind": "judge", "status": "pass", "rationale": "all 1 rubric rules satisfied",
        }

    def test_missing_step_fails_with_named_rule(self, tmp_path):
        script = tmp_path / "pipeline.py"
        script.write_text("# no rename here\n")
        rubric = "require: rename_points\nrequire: 1\\.04"
        result = judge_check([script], rubric)
        assert result.status == "fail"
        assert "rename_points" in result.rationale

    def test_forbid_rule(self, tmp_path):
        script = tmp_path / "pipeline.py"
        script.write_text("import os; os.system('rm')\n")
        result = judge_check([script], "forbid: os\\.system")
        assert result.status == "fail"

    def test_comments_and_blanks_ignored(self, tmp_path):
        script = tmp_path / "s.py"
        script.write_text("value = 1.04\n")
        rubric = "# factor applied\n\nrequire: 1\\.04\n"
        assert judge_check([script], rubric).passed

    # A scenario's rubric is read when the scenario is, so these are schema
    # errors; before, each was a judge error at every repetition.
    def test_bad_rubric_line_is_error(self, tmp_path):
        script = tmp_path / "s.py"
        script.write_text("x")
        with pytest.raises(SchemaError, match="^rubric line 1 is neither 'require:' nor 'forbid:'$"):
            judge_check([script], "script applies factor")

    def test_bad_regex_is_error(self, tmp_path):
        script = tmp_path / "s.py"
        script.write_text("x")
        with pytest.raises(SchemaError, match=r"^rubric line 2: bad regex \(missing \)"):
            judge_check([script], "require: x\nforbid: (")

    def test_empty_rubric_is_error(self, tmp_path):
        script = tmp_path / "s.py"
        script.write_text("x")
        with pytest.raises(SchemaError, match="^rubric contains no rules$"):
            judge_check([script], "# only a comment")

    def test_missing_artifact_is_error(self, tmp_path):
        # The artifacts are the subject's output, so a missing one fails the
        # check, as a missing actual file does. Before, it was a judge error,
        # which made the repetition an infrastructure failure.
        (tmp_path / "here.py").write_text("x = 1\n")
        result = judge_check([tmp_path / "here.py", tmp_path / "gone.py"], "require: x")
        assert result.to_dict() == {
            "kind": "judge",
            "status": "fail",
            "diffs": [f"artifact {tmp_path / 'gone.py'} could not be read: No such file or directory"],
        }

    def test_undecodable_artifact_is_error(self, tmp_path):
        # The strict reader names the artifact and the offset of its first bad
        # byte. Before, this was a judge error, not a failing verdict.
        script = tmp_path / "s.py"
        script.write_bytes(b"x = 1\n\xff")
        result = judge_check([script], "require: x")
        assert (result.status, result.diffs) == (
            "fail", ("artifact s.py is not UTF-8 text: invalid start byte at offset 6",)
        )

    def test_artifact_line_ends_read_as_newlines(self, tmp_path):
        # CRLF and CR line ends read as LF, as a file opened in text mode reads them.
        script = tmp_path / "s.py"
        script.write_bytes(b"alpha\r\nbeta\rgamma\n")
        assert judge_check([script], "require: ^alpha$\nrequire: ^beta$").passed


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
            trace_file = out / f"run_{i}.trace.ndjson"
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
            assert (entry["run_index"], entry["trace"]) == (i, f"run_{i}.trace.ndjson")
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

    def test_rerun_replaces_the_run_directories(self, tmp_path):
        scenario = load_scenario(make_copy_scenario(tmp_path, k=2))
        out = tmp_path / "runs"
        run_scenario(scenario, out)
        (out / "run_1" / "stale.txt").write_text("from an earlier run\n")
        report = run_scenario(scenario, out)
        assert report.passes == 2
        assert sorted(p.name for p in (out / "run_1").iterdir()) == ["out.txt", "payload.txt"]

    def test_subject_that_cannot_launch_is_infrastructure(self, tmp_path):
        missing = tmp_path / "no-such-program"
        scenario = {
            "id": "no-launch",
            "k": 2,
            "environment": {"subject_command": [str(missing)]},
            "checks": [{"kind": "file_set", "dir": ".", "expected": []}],
        }
        report = run_scenario(parse_scenario(json.dumps(scenario)), tmp_path / "runs")
        assert (report.passes, report.infrastructure_failures) == (0, 2)
        for run in report.runs:
            assert run.exit_status is None and run.verdicts == ()
            assert run.reason == run.infrastructure_error
            assert run.reason.startswith("subject failed to run: [Errno 2] No such file or directory")
            assert str(missing) in run.reason

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
            for line in (out / "run_1.trace.ndjson").read_text().splitlines()
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
            for line in (out / "run_1.trace.ndjson").read_text().splitlines()
        ]
        (versions,) = [e for e in events if e["event"] == "versions"]
        assert versions["toolkit"] == "loadsmith"
        assert versions["python"] == platform.python_version()
        assert versions["loadsmith"] == loadsmith.__version__
        assert versions["yaml_backend"] == ("libyaml" if yaml.__with_libyaml__ else "python")

    def test_passing_run_has_no_reason(self, tmp_path):
        report = run_scenario(load_scenario(make_copy_scenario(tmp_path, k=1)), tmp_path / "runs")
        assert report.runs[0].reason is None
        events = (tmp_path / "runs" / "run_1.trace.ndjson").read_text().splitlines()
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


def write_scenario(tmp_path: Path, subject: str, checks: list, k: int = 2, stage=()) -> Path:
    """A scenario whose subject runs the Python code ``subject``; ``ref.txt``
    (``x``), ``ref.json`` and ``in.txt`` lie beside it."""
    scenario_dir = tmp_path / "scenario"
    scenario_dir.mkdir()
    (scenario_dir / "ref.txt").write_text("x\n", encoding="utf-8")
    (scenario_dir / "ref.json").write_text('{"v": 1.0}', encoding="utf-8")
    (scenario_dir / "in.txt").write_text("staged\n", encoding="utf-8")
    scenario = {
        "id": "boundary",
        "k": k,
        "environment": {
            "stage": [{"source": name, "dest": name} for name in stage],
            "subject_command": ["{python}", "-c", subject],
        },
        "checks": checks,
    }
    path = scenario_dir / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return path


def trace_events(run_dir: Path, kind: str) -> list[dict]:
    """The events of ``kind`` in the trace of ``run_dir``, which lies beside it."""
    trace = run_dir.with_name(f"{run_dir.name}.trace.ndjson")
    lines = trace.read_text(encoding="utf-8").splitlines()
    return [event for event in map(json.loads, lines) if event["event"] == kind]


class TestFileBoundaries:
    """A run-side file that cannot be read fails its check; a reference that
    cannot be read makes the repetition an infrastructure failure."""

    @pytest.mark.parametrize(
        "check",
        [
            {"kind": "text_golden", "actual": "out.txt", "reference": "ref.txt"},
            {"kind": "numeric_file_compare", "actual": "out.txt", "reference": "ref.json"},
        ],
        ids=["text_golden", "numeric_file_compare"],
    )
    def test_directory_at_actual_fails_every_run(self, tmp_path, capsys, check):
        # Before, eval run stopped at run 1 with exit 4 (IO_ERROR), and wrote no report.json.
        path = write_scenario(tmp_path, "import os; os.mkdir('out.txt')", [check])
        out = tmp_path / "runs"
        code, printed = main(["eval", "run", str(path), "--out-dir", str(out)]), capsys.readouterr()
        assert (code, printed.err) == (2, "")
        summary = json.loads(printed.out)[0]
        assert summary["infrastructure_failures"] == 0
        assert summary["failures"] == [
            {"run": i, "reason": (
                f"{check['kind']} check failed: actual file {out / 'boundary' / f'run_{i}' / 'out.txt'} "
                "could not be read: Is a directory"
            )}
            for i in (1, 2)
        ]
        assert len(json.loads((out / "boundary" / "report.json").read_text())["runs"]) == 2

    def test_directory_at_reference_is_infrastructure_on_every_run(self, tmp_path, capsys):
        # Before, eval run stopped at run 1 with exit 4 (IO_ERROR), and wrote no report.json.
        path = write_scenario(
            tmp_path, "open('out.txt', 'w').write('x\\n')",
            [{"kind": "text_golden", "actual": "out.txt", "reference": "golden"}],
        )
        (path.parent / "golden").mkdir()
        out = tmp_path / "runs"
        code, printed = main(["eval", "run", str(path), "--out-dir", str(out)]), capsys.readouterr()
        assert (code, printed.err) == (4, "")
        reason = f"reference file {path.parent / 'golden'} could not be read: Is a directory"
        assert json.loads(printed.out)[0]["failures"] == [
            {"run": 1, "reason": reason}, {"run": 2, "reason": reason}
        ]
        on_disk = json.loads((out / "boundary" / "report.json").read_text())
        assert [run["infrastructure_error"] for run in on_disk["runs"]] == [reason, reason]

    def test_missing_judge_artifact_fails_the_check(self, tmp_path, capsys):
        # Before, it was a judge error: an infrastructure failure, exit 4.
        path = write_scenario(
            tmp_path, "pass",
            [{"kind": "judge", "artifacts": ["gone.py"], "rubric": "require: x"}],
            k=1,
        )
        out = tmp_path / "runs"
        code, printed = main(["eval", "run", str(path), "--out-dir", str(out)]), capsys.readouterr()
        assert code == 2
        summary = json.loads(printed.out)[0]
        assert summary["infrastructure_failures"] == 0
        assert summary["failures"] == [{"run": 1, "reason": (
            f"judge check failed: artifact {out / 'boundary' / 'run_1' / 'gone.py'} could not be read: "
            "No such file or directory"
        )}]

    def test_nested_sidecar_is_an_artifact(self, tmp_path):
        # Before, every file named trace.ndjson was skipped, so a subject's
        # CLI sidecar in its out-dir never got an artifact event.
        path = write_scenario(
            tmp_path,
            "import os; os.mkdir('sub'); open('sub/trace.ndjson', 'w').write('{}\\n')",
            [{"kind": "file_set", "dir": "sub", "expected": ["trace.ndjson"]}],
            k=1,
        )
        report = run_scenario(load_scenario(path), tmp_path / "runs")
        assert report.passes == 1
        assert [e["path"] for e in trace_events(tmp_path / "runs" / "run_1", "artifact")] == [
            str(Path("sub") / "trace.ndjson")
        ]

    def test_changed_staged_file_is_an_artifact(self, tmp_path):
        # Before, a staged file was never an artifact, so the trace held only
        # the sha256 it was staged with.
        path = write_scenario(
            tmp_path,
            "open('in.txt', 'a').write('appended\\n')",
            [{"kind": "file_set", "dir": ".", "expected": ["in.txt", "ref.txt"]}],
            k=1, stage=("in.txt", "ref.txt"),
        )
        assert run_scenario(load_scenario(path), tmp_path / "runs").passes == 1
        run_dir = tmp_path / "runs" / "run_1"
        (staged, _) = trace_events(run_dir, "stage")
        (artifact,) = trace_events(run_dir, "artifact")  # ref.txt, unchanged, is none
        assert staged["path"] == artifact["path"] == "in.txt"
        assert staged["sha256"] != artifact["sha256"]
        assert artifact["sha256"] == hashlib.sha256(b"staged\nappended\n").hexdigest()

    def test_subject_trace_file_leaves_the_run_trace_whole(self, tmp_path):
        # Before, the run trace was run_1/trace.ndjson: a subject that wrote
        # that name replaced the harness's events, and the run still passed.
        path = write_scenario(
            tmp_path,
            "open('trace.ndjson', 'w').write('{\"event\": \"mine\"}\\n')",
            [{"kind": "file_set", "dir": ".", "expected": ["in.txt", "trace.ndjson"]}],
            k=1, stage=("in.txt",),
        )
        assert run_scenario(load_scenario(path), tmp_path / "runs").passes == 1
        run_dir = tmp_path / "runs" / "run_1"
        lines = (tmp_path / "runs" / "run_1.trace.ndjson").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["event"] for line in lines] == [
            "stage", "versions", "exec", "artifact", "check", "result",
        ]
        (artifact,) = trace_events(run_dir, "artifact")
        assert artifact["path"] == "trace.ndjson"
        assert artifact["sha256"] == hashlib.sha256(b'{"event": "mine"}\n').hexdigest()
