import sys
from pathlib import Path

import pytest
from hypothesis import settings

from loadsmith.model import ComponentSet, LoadCase, LoadsDelivery, SI_UNITS, UnitSystem

sys.path.insert(0, str(Path(__file__).parent))

# A longer search for the differential tests, chosen with --hypothesis-profile=ci.
settings.register_profile("ci", max_examples=1000, deadline=None)
# The line-coverage run (scripts/line_coverage.py) traces every line, which
# slows each example past the default deadline. Its examples are derived from
# each test, not drawn at random, so a line that only some draws reach is run
# or unrun the same way on every run of the gate.
settings.register_profile("coverage", deadline=None, derandomize=True)

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDENS_DIR = Path(__file__).resolve().parent / "goldens"
SCENARIOS_DIR = REPO_ROOT / "scenarios"
CATALOG_DIR = REPO_ROOT / "catalog"

CASE_POINTS = [
    "bearing",
    "lpt",
    "lug_left",
    "lug_right",
    "nozzle",
    "plug",
    "spare",
]


def cs(fx=0.0, fy=0.0, fz=0.0, mx=0.0, my=0.0, mz=0.0) -> ComponentSet:
    return ComponentSet(fx, fy, fz, mx, my, mz)


@pytest.fixture
def two_point_delivery() -> LoadsDelivery:
    """Small two-point, two-case delivery used across ingest/export tests."""
    return LoadsDelivery(
        name="micro loads",
        version=1,
        units=SI_UNITS,
        cases=(
            LoadCase(
                id=1,
                label="pull",
                loads={"lug_port": cs(fx=10.0, mz=2.5), "bearing": cs(fy=-1.0)},
            ),
            LoadCase(
                id=2,
                loads={"lug_port": cs(fx=-5.0), "bearing": cs(fy=4.0, mx=0.25)},
            ),
        ),
    )


@pytest.fixture
def imperial_delivery() -> LoadsDelivery:
    return LoadsDelivery(
        name="imperial loads",
        version=2,
        units=UnitSystem("klbf", "klbf·in"),
        cases=(LoadCase(id=1, loads={"bearing": cs(fx=1.0, mx=1.0)}),),
    )
