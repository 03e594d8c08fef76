"""Process entry point of ``python -m loadsmith`` and the installed ``loadsmith`` script."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run one command as a whole process and return its exit status.

    Once the command has returned, every object left is frozen, so the
    interpreter's shutdown collection walks none of what the OS is about to
    reclaim. Every file the command wrote is closed by then; atexit
    handlers and the flush of stdout and stderr still run. ``cli.main()``
    itself never freezes, since callers in one process keep running.
    """
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())
