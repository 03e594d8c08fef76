"""Machine-speed normalisation of measured times.

On a shared machine the CPU's speed can change by nearly 2x from one second
to the next, which moves wall times far more than any code change would. The
benchmark therefore times a fixed reference task right before and right
after each timed region, and reports the region's time at reference speed:

    normalised = wall * reference.seconds / mean(reference before, after)

There are two reference tasks, because kinds of work slow by different
amounts when the machine slows. ``LOOP`` is a pure-Python loop over dicts,
floats and JSON; it tracks the in-process workloads. ``SPAWN`` starts an
interpreter that imports a few standard modules; it tracks ``cli_replay``,
whose passes are mostly interpreter starts and imports, and which slows about
1.3x when the loop slows 1.65x. ``seconds`` is what the task takes on an
unloaded core of the machine the benchmark was written on (2-core x86 VM,
Python 3.11), so normalised times read as seconds on that machine at full
speed. Neither task uses loadsmith, so no change to the program moves them.
The raw wall times are printed beside the normalised ones.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from time import perf_counter
from typing import Callable, NamedTuple


def reference_loop() -> float:
    """Seconds taken by the fixed reference loop: dicts, floats and JSON."""
    start = perf_counter()
    rng = random.Random(0)
    rows = [{"id": i, "v": [rng.uniform(-1.0, 1.0) for _ in range(6)]} for i in range(2000)]
    total = 0.0
    for row in rows:
        for value in row["v"]:
            total += value * 1.04
    json.loads(json.dumps(rows))
    return perf_counter() - start


def reference_spawn() -> float:
    """Seconds taken to start an isolated interpreter that imports stdlib modules."""
    start = perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "import argparse, json, pathlib"], check=True)
    return perf_counter() - start


class Reference(NamedTuple):
    measure: Callable[[], float]
    seconds: float


LOOP = Reference(reference_loop, 0.020)
SPAWN = Reference(reference_spawn, 0.065)


class Timed:
    """Times a region and the reference task on both sides of it.

    ``wall`` is the region's wall time in seconds and ``factor`` the
    multiplier that brings it to reference speed.
    """

    def __init__(self, reference: Reference = LOOP):
        self.reference = reference

    def __enter__(self) -> "Timed":
        self.before = self.reference.measure()
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall = perf_counter() - self.start
        self.factor = self.reference.seconds / ((self.before + self.reference.measure()) / 2)
        return False

    @property
    def normalised(self) -> float:
        return self.wall * self.factor
