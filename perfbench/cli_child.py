"""One loadsmith CLI command with its layer calls traced (traced cli_replay passes).

    python perfbench/cli_child.py SPANS_PATH COMMAND [ARGS...]

Runs ``loadsmith.cli.main`` on COMMAND and ARGS as ``python -m loadsmith``
would, writes the spans of its layer calls (see ``layers.py``) to SPANS_PATH
as NDJSON, and exits with the CLI's status.
"""

from __future__ import annotations

import sys
from pathlib import Path

from layers import instrumented
from spans import Tracer

from loadsmith.cli import main


def run(spans_path: str, args: list[str]) -> int:
    tracer = Tracer()
    sys.argv = ["loadsmith", *args]  # the CLI records its argv in trace sidecars
    try:
        with instrumented(tracer):
            return main(args)
    finally:
        tracer.write_ndjson(Path(spans_path))


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
