"""Run provenance: checksums and newline-delimited JSON trace files.

Content files stay byte-reproducible, so anything time- or host-dependent
(argv, software versions, checksums, timestamps, exit codes) is written to a
sidecar ``*.ndjson`` trace instead. One JSON object per line; consumers may
tail or forward the stream to an observability platform.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from . import __version__


def utc_now() -> str:
    """The time as ``datetime.now(timezone.utc).isoformat(timespec="microseconds")``
    writes it, built without importing ``datetime``."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds)) + f".{micros:06d}+00:00"


def sha256_file(path: str | Path) -> str:
    import hashlib  # on the first hash: it loads OpenSSL, which a step that writes no sidecar skips

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def file_record(path: str | Path, relative_to: str | Path | None = None) -> dict:
    path = Path(path)
    shown = path if relative_to is None else path.relative_to(relative_to)
    return {"path": str(shown), "bytes": path.stat().st_size, "sha256": sha256_file(path)}


def environment() -> dict:
    """What a trace records of the software that ran: Python and loadsmith
    versions and the reader of the latest YAML read in this process:
    ``"block"`` for the line reader, else the parser, ``"libyaml"`` or
    ``"python"``; None when none ran. The YAML reader is looked up, never
    imported, so a step that read only JSON does not load it."""
    reader = sys.modules.get(f"{__package__}.yaml_reader")
    return {
        "python": sys.version.split()[0],  # platform.python_version() on CPython
        "loadsmith": __version__,
        "yaml_backend": None if reader is None else reader.last_reader,
    }


class TraceWriter:
    """Append-only NDJSON writer for one run or CLI invocation.

    It holds one handle on its file until ``close()``, or the end of its
    ``with`` block, and flushes each event, so a run that dies part-way
    still leaves the events it emitted.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # fresh file per run; a trace never spans invocations
        self._handle = open(self.path, "w", encoding="utf-8")

    def emit(self, event: str, **fields) -> None:
        record = {"ts": utc_now(), "event": event, **fields}
        self._handle.write(json.dumps(record, ensure_ascii=False) + "\n")
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_cli_trace(
    trace_path: str | Path,
    argv: list[str],
    inputs: list[str | Path],
    outputs: list[str | Path],
) -> None:
    """Standard sidecar for a CLI subcommand that wrote files: its argv, the
    ``environment()``, then a checksum record per input and per output."""
    with TraceWriter(trace_path) as writer:
        writer.emit("invocation", argv=list(argv))
        writer.emit("environment", **environment())
        for path in inputs:
            writer.emit("input", **file_record(path))
        for path in outputs:
            writer.emit("output", **file_record(path))
        writer.emit("done")
