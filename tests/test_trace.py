"""The trace writer holds one handle per trace and flushes each event as it is emitted."""

import json
import os
import subprocess
import sys
from pathlib import Path

import loadsmith
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
