"""Seeded synthetic delivery for the ``large_json`` workload, and its oracle.

``make_inputs(seed, cases)`` builds a delivery with exactly ``cases`` load
cases over exactly ``len(POINTS)`` points (klbf / klbf·in, a coordinate
system label, coordinates for every point and a label on every case), the
node map for the renamed point set, and a previous envelope in SI units.
Everything is drawn from ``random.Random(seed)``, so equal seeds give
byte-identical files.

``oracle(files)`` is what the benchmark checks every pass against for any
seed. It recomputes, from the generated files and independently of
loadsmith, the envelope extremes (earliest case wins ties), the selected
case ids and the exceedance flags. The benchmark calls it once, outside
the timed set-up. Values go through the same per-value
multiplies in the same order as the pipeline (FX correction first, then one
unit-conversion ratio), so equal results are required, not close ones.
"""

from __future__ import annotations

import json
import random

COMPONENTS = ("fx", "fy", "fz", "mx", "my", "mz")
FORCES = ("fx", "fy", "fz")

# 20 interface points; two are renamed and one is excluded from the decks.
POINTS = tuple(
    sorted(
        ["bearing", "lpt", "lug_left", "lug_right", "nozzle", "plug"]
        + [f"mount_{i:02d}" for i in range(1, 15)]
    )
)
RENAMES = {"lug_left": "lug_port", "lug_right": "lug_starboard"}
EXCLUDE = frozenset({"bearing"})
FX_CORRECTION = 1.04
DEFAULT_SEED = 1
DEFAULT_CASES = 500
EXPECTED_CS = "engine_cs"
PHASES = ("takeoff", "climb", "cruise", "descent", "landing", "gust")

# Unit ratios from the exact definitions of the pound-force and the inch,
# formed the way a source/target ratio is formed for klbf -> N and
# klbf·in -> N·m.
LBF_TO_N = 0.45359237 * 9.80665
FORCE_RATIO = (LBF_TO_N * 1000.0) / 1.0
MOMENT_RATIO = (LBF_TO_N * 1000.0 * 0.0254) / 1.0


def renamed(point: str) -> str:
    return RENAMES.get(point, point)


def _dump(data) -> bytes:
    return (json.dumps(data, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def make_delivery(rng: random.Random, seed: int, cases: int) -> dict:
    """Delivery as plain data, in the canonical key and point order."""
    coords = {p: [rng.uniform(-2.0, 2.0) for _ in range(3)] for p in POINTS}
    load_cases = []
    for case_id in range(1, cases + 1):
        label = f"{rng.choice(PHASES)} {case_id}"
        loads = {p: {c: rng.uniform(-50.0, 50.0) for c in COMPONENTS} for p in POINTS}
        load_cases.append({"id": case_id, "label": label, "point_loads": loads})
    return {
        "name": f"Synthetic Engine Mount Loads seed {seed}",
        "version": 2,
        "units": {"force": "klbf", "moment": "klbf·in"},
        "coordinate_system": EXPECTED_CS,
        "point_coordinates": coords,
        "load_cases": load_cases,
    }


def envelope_oracle(delivery: dict) -> dict:
    """Extremes per (renamed point, component) after FX correction and SI conversion.

    Returns {point: {comp: [max, max_case, min, min_case]}}; strict
    comparisons keep the earliest case in delivery order on ties.
    """
    cells: dict = {}
    for point in POINTS:
        per_comp = {}
        for comp in COMPONENTS:
            scale = FX_CORRECTION if comp == "fx" else 1.0
            ratio = FORCE_RATIO if comp in FORCES else MOMENT_RATIO
            best = None
            for case in delivery["load_cases"]:
                value = case["point_loads"][point][comp] * scale * ratio
                if best is None:
                    best = [value, case["id"], value, case["id"]]
                    continue
                if value > best[0]:
                    best[0], best[1] = value, case["id"]
                if value < best[2]:
                    best[2], best[3] = value, case["id"]
            per_comp[comp.upper()] = best
        cells[renamed(point)] = per_comp
    return dict(sorted(cells.items()))


def scaled_bounds(delivery: dict) -> dict:
    """(max, min) per (renamed point, component) after FX correction and SI
    conversion, in the oracle's order; places the previous envelope.

    Multiplying by a positive constant preserves order, so these equal the
    oracle's extremes without its per-case loop.
    """
    bounds: dict = {}
    for point in POINTS:
        per_comp = {}
        for comp in COMPONENTS:
            scale = FX_CORRECTION if comp == "fx" else 1.0
            ratio = FORCE_RATIO if comp in FORCES else MOMENT_RATIO
            values = [case["point_loads"][point][comp] for case in delivery["load_cases"]]
            per_comp[comp.upper()] = (max(values) * scale * ratio, min(values) * scale * ratio)
        bounds[renamed(point)] = per_comp
    return dict(sorted(bounds.items()))


def make_previous(rng: random.Random, bounds: dict, cases: int) -> dict:
    """Previous envelope near the new one: each bound moves by up to ±5%."""
    out = {}
    for point, per_comp in bounds.items():
        out[point] = {}
        for comp, (new_max, new_min) in per_comp.items():
            old_max = new_max + rng.uniform(-0.05, 0.05) * abs(new_max)
            old_min = new_min + rng.uniform(-0.05, 0.05) * abs(new_min)
            if old_min > old_max:
                old_min, old_max = old_max, old_min
            out[point][comp] = {
                "max": old_max,
                "max_case": rng.randint(1, cases),
                "min": old_min,
                "min_case": rng.randint(1, cases),
            }
    return {
        "name": "Synthetic Engine Mount Loads (previous)",
        "version": 1,
        "units": {"force": "N", "moment": "N·m"},
        "extremes": out,
    }


def make_inputs(seed: int, cases: int) -> dict[str, bytes]:
    """Input files, name -> bytes."""
    rng = random.Random(seed)
    delivery = make_delivery(rng, seed, cases)
    previous = make_previous(rng, scaled_bounds(delivery), cases)
    nodes = {name: 3001 + i for i, name in enumerate(sorted(renamed(p) for p in POINTS))}
    return {
        "delivery.json": _dump(delivery),
        "node_map.json": _dump(nodes),
        "previous_extremes.json": _dump(previous),
    }


def oracle(files: dict[str, bytes]) -> dict:
    """Expected results for the input files that ``make_inputs`` wrote."""
    delivery = json.loads(files["delivery.json"])
    previous = json.loads(files["previous_extremes.json"])
    return expected_results(envelope_oracle(delivery), previous)


def expected_results(extremes: dict, previous: dict) -> dict:
    selected = set()
    flags = {}
    for point, per_comp in extremes.items():
        for comp, (new_max, max_case, new_min, min_case) in per_comp.items():
            selected.add(max_case)
            if new_min < 0.0:
                selected.add(min_case)
            old = previous["extremes"][point][comp]
            flags[f"{point}.{comp}"] = (new_max > old["max"], new_min < old["min"])
    return {
        "extremes": extremes,
        "selected": sorted(selected),
        "flags": flags,
        "new_exceeds_old": any(a or b for a, b in flags.values()),
    }
