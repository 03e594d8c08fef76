"""The trace writer holds one handle per trace and flushes each event as it is emitted."""

import datetime
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import loadsmith
from loadsmith import trace
from loadsmith.trace import TraceWriter


def events(path: Path) -> list[str]:
    return [json.loads(line)["event"] for line in path.read_text(encoding="utf-8").splitlines()]


def test_each_event_is_in_the_file_once_emitted(tmp_path):
    path = tmp_path / "trace.ndjson"
    path.write_text("left by an earlier run\n", encoding="utf-8")
    with TraceWriter(path) as writer:
        assert events(path) == []
        writer.emit("invocation", argv=["loadsmith"])
        assert events(path) == ["invocation"]
        writer.emit("done")
        assert events(path) == ["invocation", "done"]


def test_one_handle_for_the_whole_trace(tmp_path):
    path = tmp_path / "trace.ndjson"
    with TraceWriter(path) as writer:
        writer.emit("stage")
        moved = path.rename(tmp_path / "moved.ndjson")
        writer.emit("result")  # goes to the open file, not to a new one at ``path``
    assert events(moved) == ["stage", "result"]
    assert not path.exists()


def test_a_run_that_dies_leaves_its_events(tmp_path):
    path = tmp_path / "trace.ndjson"
    script = (
        "import os, sys\n"
        "from loadsmith.trace import TraceWriter\n"
        "writer = TraceWriter(sys.argv[1])\n"
        "writer.emit('stage')\n"
        "writer.emit('exec')\n"
        "os._exit(9)  # no close, no interpreter shutdown\n"
    )
    src = Path(loadsmith.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 9, proc.stderr
    assert events(path) == ["stage", "exec"]


_EPOCH = datetime.datetime(1970, 1, 1, tzinfo=datetime.timezone.utc)


@pytest.mark.parametrize(
    "ns", [0, 999, 1_000, 1_700_000_000_123_456_789, 951_782_400_000_000_000, 4_102_444_799_999_999_999]
)
def test_utc_now_writes_isoformat_microseconds(monkeypatch, ns):
    # 2000-02-29 and the last nanosecond of 2099 among them; microseconds truncate.
    monkeypatch.setattr(trace.time, "time_ns", lambda: ns)
    expected = _EPOCH + datetime.timedelta(microseconds=ns // 1000)
    assert trace.utc_now() == expected.isoformat(timespec="microseconds")


def test_utc_now_is_the_current_utc_time():
    before = datetime.datetime.now(datetime.timezone.utc)
    stamp = trace.utc_now()
    after = datetime.datetime.now(datetime.timezone.utc)
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{6}\+00:00", stamp)
    assert before <= datetime.datetime.fromisoformat(stamp) <= after
