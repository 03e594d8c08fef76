#!/usr/bin/env python3
"""Check that every executable line of ``src/`` runs under the Tier-1 tests.

Runs the Tier-1 command from the root of the repository, with the
``coverage`` Hypothesis profile (no deadline, since tracing slows every
example), and a generated ``sitecustomize`` on ``PYTHONPATH``:

    python3 scripts/line_coverage.py

The ``sitecustomize`` installs a ``sys.settrace`` line collector in the test
process and in every Python subprocess that inherits ``PYTHONPATH`` (the CLI
and the harness's subjects), and each process writes the ``src/`` lines it ran
when it exits. Subprocesses that replace ``PYTHONPATH`` run untraced. The
executable lines of a file are those its compiled code objects map
instructions to (``co_lines()``). Standard library only.

Exit status: the tests' own status when they fail; otherwise 1 when a line
that did not run is missing from ``scripts/line_coverage_allow.txt``, or an
allowlist entry matches no unrun line (the line now runs, or no longer
exists); otherwise 0.

Allowlist format: one entry per line, three fields separated by `` :: ``:
the file's path from the repository root, the line's source text stripped of
surrounding whitespace, and the reason it may stay unrun. Keyed on the
text, an entry survives edits above its line. Each entry allows exactly one
unrun line, so two unrun lines of a file with the same text need two
entries, and an entry left over once each unrun line has taken one is
stale. Blank lines and lines starting with ``#`` are ignored.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ALLOWLIST = REPO / "scripts" / "line_coverage_allow.txt"
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--hypothesis-profile=coverage"]

# Imported by each traced process at start-up; the environment names the
# directory to trace and the one to write the lines into.
SITECUSTOMIZE = '''\
import atexit, os, sys, tempfile, threading

_root = os.environ["LINE_COVERAGE_ROOT"]
_out = os.environ["LINE_COVERAGE_OUT"]
_hits = set()


def _lines(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(_root) else None


def _save():
    sys.settrace(None)
    fd, _ = tempfile.mkstemp(dir=_out, suffix=".lines")
    with os.fdopen(fd, "w", encoding="utf-8") as f:
        f.writelines(f"{name}\\t{line}\\n" for name, line in _hits)


atexit.register(_save)
threading.settrace(_calls)
sys.settrace(_calls)
'''


def executable_lines(path: Path) -> set[int]:
    """The lines the compiled code objects of ``path`` map instructions to."""
    lines: set[int] = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def read_allowlist(path: Path) -> list[tuple[str, str, str]]:
    entries = []
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = [field.strip() for field in raw.split(" :: ", 2)]
        if len(fields) != 3 or not all(fields):
            sys.exit(f"{path.name}:{number}: expected PATH :: SOURCE :: REASON, got {raw!r}")
        entries.append((fields[0], fields[1], fields[2]))
    return entries


def run_traced_tier1(out_dir: Path) -> int:
    site_dir = out_dir / "site"
    site_dir.mkdir()
    (site_dir / "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
    lines_dir = out_dir / "lines"
    lines_dir.mkdir()
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            [str(SRC), str(site_dir), *filter(None, [os.environ.get("PYTHONPATH")])]
        ),
        "LINE_COVERAGE_ROOT": str(SRC) + os.sep,
        "LINE_COVERAGE_OUT": str(lines_dir),
    }
    return subprocess.run([sys.executable, *TIER1], cwd=REPO, env=env).returncode


def ran_lines(lines_dir: Path) -> dict[str, set[int]]:
    ran: dict[str, set[int]] = {}
    for part in lines_dir.iterdir():
        for record in part.read_text(encoding="utf-8").splitlines():
            name, line = record.rsplit("\t", 1)
            ran.setdefault(os.path.relpath(name, REPO), set()).add(int(line))
    return ran


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="line_coverage-") as tmp:
        status = run_traced_tier1(Path(tmp))
        if status != 0:
            print(f"line_coverage: the tests failed under tracing (exit {status})")
            return status
        ran = ran_lines(Path(tmp) / "lines")

    unrun: list[tuple[str, int, str]] = []
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(REPO).as_posix()
        source = path.read_text(encoding="utf-8").splitlines()
        executable = executable_lines(path)
        total += len(executable)
        for line in sorted(executable - ran.get(name, set())):
            unrun.append((name, line, source[line - 1].strip()))

    allowed = Counter((name, text) for name, text, _ in read_allowlist(ALLOWLIST))
    failures = []
    for name, line, text in unrun:
        if allowed[name, text] > 0:
            allowed[name, text] -= 1
        else:
            failures.append(f"{name}:{line}: not run: {text}")
    print(f"line_coverage: {total - len(unrun)} of {total} executable lines of src/ ran; "
          f"{len(unrun) - len(failures)} unrun lines allowlisted")
    failures += [f"{ALLOWLIST.name}: stale entry, no unrun line of {name} is left for: {text}"
                 for (name, text), count in allowed.items() for _ in range(count)]
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
