"""Hand-built micro deliveries frozen into the golden-file suite.

Values are small and exact in binary where possible so the expected
renderings can be verified by eye against the format rules.
"""

from __future__ import annotations

from loadsmith.model import ComponentSet, LoadCase, LoadsDelivery, SI_UNITS, UnitSystem

from fixtures import scale_all


def micro_single() -> LoadsDelivery:
    """One point, one case; max == min everywhere."""
    return LoadsDelivery(
        name="micro single",
        version=1,
        units=SI_UNITS,
        cases=(
            LoadCase(
                id=1,
                loads={"hub": ComponentSet(fx=100.0, fz=-25.5, mx=3.25, mz=-1.0)},
            ),
        ),
    )


MICRO_SINGLE_NODES = {"hub": 501}


def micro_pair() -> LoadsDelivery:
    """Two points, three cases: a max tie (cases 1 and 2) and negative minima."""
    return LoadsDelivery(
        name="micro pair",
        version=2,
        units=SI_UNITS,
        cases=(
            LoadCase(
                id=1,
                label="steady",
                loads={
                    "bearing": ComponentSet(fx=10.0, fy=-1.0, mz=2.0),
                    "lug_port": ComponentSet(fx=-4.0, my=0.5),
                },
            ),
            LoadCase(
                id=2,
                loads={
                    "bearing": ComponentSet(fx=10.0, fy=3.0, mz=-6.0),
                    "lug_port": ComponentSet(fx=7.5, my=-0.25),
                },
            ),
            LoadCase(
                id=3,
                label="gust",
                loads={
                    "bearing": ComponentSet(fx=-2.0, fy=0.0, mz=1.0),
                    "lug_port": ComponentSet(fx=12.0, my=4.0),
                },
            ),
        ),
    )


MICRO_PAIR_NODES = {"bearing": 11, "lug_port": 12}


def micro_imperial() -> LoadsDelivery:
    """Imperial units and labels; exercises unit text in headers."""
    return LoadsDelivery(
        name="micro imperial",
        version=3,
        units=UnitSystem("klbf", "klbf·in"),
        coordinate_system="engine_cs",
        cases=(
            LoadCase(
                id=4,
                label="takeoff",
                loads={
                    "nozzle": ComponentSet(fx=1.5, fy=-0.5, mz=0.75),
                    "plug": ComponentSet(fz=-2.25, mx=1.125),
                },
            ),
            LoadCase(
                id=9,
                loads={
                    "nozzle": ComponentSet(fx=-1.0, fy=2.0, mz=-0.5),
                    "plug": ComponentSet(fz=0.5, mx=-3.5),
                },
            ),
        ),
    )


MICRO_IMPERIAL_NODES = {"nozzle": 21, "plug": 22}


def micro_pair_shrunk() -> LoadsDelivery:
    """micro_pair scaled down 20%: its envelope is strictly inside micro_pair's."""
    return scale_all(micro_pair(), 0.8)


def micro_imperial_grown() -> LoadsDelivery:
    return scale_all(micro_imperial(), 1.25)
