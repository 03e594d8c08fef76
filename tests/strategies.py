"""Shared hypothesis strategies and seeded generators for building random domain values."""

from __future__ import annotations

import random
import string

from hypothesis import strategies as st

from loadsmith.model import (
    COMPONENT_ORDER,
    ComponentSet,
    EnvelopeExtremes,
    ExtremeCell,
    LoadCase,
    LoadsDelivery,
    SI_UNITS,
    UnitSystem,
)

# Words YAML 1.1 resolves to booleans/null; point names must survive a YAML
# round trip unquoted.
_YAML_RESERVED = {"yes", "no", "true", "false", "on", "off", "null"}

point_names_st = st.text(
    alphabet=string.ascii_lowercase + "_", min_size=1, max_size=10
).filter(lambda s: s not in _YAML_RESERVED)

# Quantized to a 1e-6 grid: keeps zero/extreme coverage while ruling out
# adjacent-double contenders, whose order a scaling multiply may not keep.
finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
).map(lambda v: round(v, 6))

unit_systems = st.sampled_from(
    [
        SI_UNITS,
        UnitSystem("kN", "kN·m"),
        UnitSystem("lbf", "lbf·in"),
        UnitSystem("klbf", "klbf·in"),
    ]
)


@st.composite
def component_sets(draw, values=finite_floats):
    vals = draw(st.lists(values, min_size=6, max_size=6))
    return ComponentSet(*vals)


@st.composite
def deliveries(draw, max_cases=8, max_points=4, values=finite_floats, with_units=None):
    points = draw(
        st.lists(point_names_st, min_size=1, max_size=max_points, unique=True)
    )
    n_cases = draw(st.integers(min_value=1, max_value=max_cases))
    cases = tuple(
        LoadCase(
            id=cid,
            loads={p: draw(component_sets(values)) for p in points},
        )
        for cid in range(1, n_cases + 1)
    )
    units = with_units if with_units is not None else draw(unit_systems)
    return LoadsDelivery(
        name=draw(st.sampled_from(["loads_a", "loads_b", "delivery one"])),
        version=draw(st.integers(min_value=1, max_value=9)),
        units=units,
        cases=cases,
    )


@st.composite
def envelopes(draw, max_points=4, positive_max=False):
    """Random extremes tables; positive_max forces max > 0 > min per cell."""
    points = draw(
        st.lists(point_names_st, min_size=1, max_size=max_points, unique=True)
    )
    n_cases = draw(st.integers(min_value=1, max_value=20))
    cells = {}
    for point in points:
        per_comp = {}
        for comp in COMPONENT_ORDER:
            if positive_max:
                max_v = draw(st.floats(min_value=0.5, max_value=100.0))
                min_v = draw(st.floats(min_value=-100.0, max_value=-0.5))
            else:
                a = draw(finite_floats)
                b = draw(finite_floats)
                min_v, max_v = min(a, b), max(a, b)
            per_comp[comp] = ExtremeCell(
                max_value=max_v,
                max_case=draw(st.integers(min_value=1, max_value=n_cases)),
                min_value=min_v,
                min_case=draw(st.integers(min_value=1, max_value=n_cases)),
            )
        cells[point] = per_comp
    return EnvelopeExtremes(
        name="random envelope", version=1, units=SI_UNITS, cells=cells
    )


def random_delivery(
    seed: int,
    max_cases: int = 20,
    max_points: int = 5,
    lo: float = -100.0,
    hi: float = 100.0,
    units: UnitSystem = SI_UNITS,
    name: str = "random delivery",
    version: int = 1,
) -> LoadsDelivery:
    """Unstructured random delivery for property tests and oracles."""
    rng = random.Random(seed)
    n_cases = rng.randint(1, max_cases)
    n_points = rng.randint(1, max_points)
    points = [f"pt_{chr(ord('a') + i)}" for i in range(n_points)]
    cases = tuple(
        LoadCase(
            id=cid,
            loads={
                p: ComponentSet(
                    **{c.value: rng.uniform(lo, hi) for c in COMPONENT_ORDER}
                )
                for p in points
            },
        )
        for cid in range(1, n_cases + 1)
    )
    return LoadsDelivery(name=name, version=version, units=units, cases=cases)


# Text with JSON escapes (quote, backslash, control characters), non-ASCII
# letters and U+2028, which json.dumps leaves unescaped.
_tricky_text = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é€ü'), st.characters()),
    max_size=8,
)
_any_float = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(-0.0))


@st.composite
def oracle_deliveries(draw):
    """Deliveries using every optional field, for the canonical JSON writer's oracle."""
    points = draw(st.lists(_tricky_text, min_size=1, max_size=4, unique=True))
    cases = tuple(
        LoadCase(
            id=draw(st.integers(min_value=1, max_value=10**20)),
            label=draw(st.none() | _tricky_text),
            loads={p: ComponentSet.of(draw(st.lists(_any_float, min_size=6, max_size=6))) for p in points},
        )
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    )
    xyz = st.tuples(_any_float, _any_float, _any_float)
    # Coordinates for the case points, as validate_delivery wants, or for any names.
    coords = st.fixed_dictionaries({p: xyz for p in points}) | st.dictionaries(_tricky_text, xyz, max_size=4)
    return LoadsDelivery(
        name=draw(_tricky_text),
        version=draw(st.integers(min_value=1, max_value=10**20)),
        units=draw(st.sampled_from([SI_UNITS, UnitSystem("klbf", "klbf·in")])),
        cases=cases,
        coordinate_system=draw(st.none() | _tricky_text),
        point_coordinates=draw(st.none() | coords),
    )


@st.composite
def plain_deliveries(draw):
    """A delivery with point coordinates as the plain dicts of its canonical
    JSON: keys in schema order, points sorted, every number a float."""
    points = sorted(draw(st.lists(_tricky_text, min_size=1, max_size=4, unique=True)))
    xyz = st.lists(_any_float, min_size=3, max_size=3)
    units = draw(st.sampled_from([SI_UNITS, UnitSystem("klbf", "klbf·in")]))
    plain = {
        "name": draw(_tricky_text),
        "version": draw(st.integers(min_value=1, max_value=10**20)),
        "units": {"force": units.force_unit, "moment": units.moment_unit},
    }
    if draw(st.booleans()):
        plain["coordinate_system"] = draw(_tricky_text)
    plain["point_coordinates"] = {p: draw(xyz) for p in points}
    plain["load_cases"] = []
    for case_id in draw(st.lists(st.integers(min_value=1, max_value=10**20), min_size=1, max_size=4, unique=True)):
        case = {"id": case_id}
        if draw(st.booleans()):
            case["label"] = draw(_tricky_text)
        case["point_loads"] = {
            p: {c.value: draw(_any_float) for c in COMPONENT_ORDER} for p in points
        }
        plain["load_cases"].append(case)
    return plain
