"""Synthetic delivery generators for tests and evaluation scenarios.

``generate_fixture`` builds a delivery whose envelope downselection yields a
chosen set of case ids: designated cases receive dominating extremes while
every other case stays strictly inside the interior value band. With
``balanced=True`` the force components of every case additionally sum to
zero, by pairing points (v at one, -v at the other) and closing an odd
point count with a three-point group whose last entry is -(a + b).

The construction is verified before returning: the generator runs
envelope_select on its own output and refuses to hand back a fixture whose
selection differs from the requested ids.
"""

from __future__ import annotations

import random
from typing import Sequence

from loadsmith.analysis import envelope_select
from loadsmith.errors import LoadsmithError
from loadsmith.model import (
    COMPONENT_ORDER,
    Component,
    ComponentSet,
    LoadCase,
    LoadsDelivery,
    SI_UNITS,
    UnitSystem,
)

# Value bands. Interior cases live in (-INTERIOR, INTERIOR); designated
# extremes in (EXTREME_LO, EXTREME_HI) or its mirror, strictly outside.
INTERIOR = 50.0
EXTREME_LO, EXTREME_HI = 60.0, 100.0
# Three-point balance groups draw their free values from a half band so the
# closing entry -(a + b) stays inside the interior band.
TRIANGLE_INTERIOR = 25.0

FORCE_COMPONENTS = COMPONENT_ORDER[:3]
MOMENT_COMPONENTS = COMPONENT_ORDER[3:]


class FixtureError(LoadsmithError):
    def __init__(self, message: str):
        super().__init__(message, code="FIXTURE_INFEASIBLE")


def _neg(x: float) -> float:
    return -x + 0.0  # avoid emitting -0.0


class _Assigner:
    """Cyclic dealer of extreme slots over the designated cases.

    Guards against giving one case two conflicting slots in the same
    (component, point-group), which would require two different values at
    one cell.
    """

    def __init__(self, designated: list[int]):
        self.designated = designated
        self.counter = 0
        self.claims: set[tuple[int, Component, int]] = set()

    def take(self, comp: Component, group_id: int, forbid: int | None = None) -> int:
        n = len(self.designated)
        for _ in range(2 * n):
            case_id = self.designated[self.counter % n]
            self.counter += 1
            if case_id == forbid:
                continue
            if (case_id, comp, group_id) in self.claims:
                continue
            self.claims.add((case_id, comp, group_id))
            return case_id
        raise FixtureError(
            f"cannot place extreme slots for {len(self.designated)} critical cases; "
            "too few points/components for this configuration"
        )


def generate_fixture(
    seed: int,
    n_cases: int,
    points: Sequence[str],
    n_critical: int,
    *,
    critical_ids: Sequence[int] | None = None,
    units: UnitSystem = SI_UNITS,
    balanced: bool = False,
    coordinate_system: str | None = None,
    name: str = "synthetic delivery",
    version: int = 1,
) -> LoadsDelivery:
    """Build a pseudo-random delivery with exactly ``n_critical`` envelope cases.

    Args:
        seed: RNG seed; equal seeds give value-identical deliveries.
        n_cases: Number of load cases (ids 1..n_cases).
        points: Interface point names (order irrelevant; at least one).
        n_critical: Size of the envelope-selected case set.
        critical_ids: Explicit ids to designate; drawn from the RNG when
            omitted. Must have length ``n_critical``.
        units: Unit system stamped on the delivery (values are synthetic
            magnitudes in those units).
        balanced: Force components of every case sum to zero when set.
        coordinate_system: Optional coordinate-system label.
        name: Delivery name.
        version: Delivery version.

    Raises:
        FixtureError: When the requested selection cannot be constructed
            (e.g. more critical cases than extreme slots, or a balanced
            delivery with a single critical case among several).
    """
    if not points:
        raise FixtureError("points must be non-empty")
    if len(set(points)) != len(points):
        raise FixtureError("point names must be unique")
    if n_cases < 1:
        raise FixtureError("n_cases must be >= 1")
    if not 1 <= n_critical <= n_cases:
        raise FixtureError(f"n_critical must be in [1, {n_cases}], got {n_critical}")

    rng = random.Random(seed)
    ids = list(range(1, n_cases + 1))

    if critical_ids is None:
        designated = sorted(rng.sample(ids, n_critical))
    else:
        designated = sorted(critical_ids)
        if len(designated) != n_critical or len(set(designated)) != n_critical:
            raise FixtureError("critical_ids must be n_critical distinct ids")
        if not set(designated) <= set(ids):
            raise FixtureError(f"critical_ids must lie in 1..{n_cases}")

    sorted_points = sorted(points)
    values: dict[int, dict[str, dict[Component, float]]] = {
        cid: {p: {} for p in sorted_points} for cid in ids
    }

    if balanced and n_cases > 1 and len(sorted_points) < 2:
        raise FixtureError("balanced deliveries need at least two points")
    if balanced and n_cases > 1 and n_critical == 1:
        # The single case would have to hold both ends of a balance pair,
        # which one value per cell cannot do.
        raise FixtureError("balanced deliveries need n_critical >= 2 (or a single case)")

    positive_only = not balanced and n_critical == 1 and n_cases > 1

    # Interior draws for every case.
    if balanced:
        pairs, triangle = _split_groups(sorted_points)
        for cid in ids:
            for comp in FORCE_COMPONENTS:
                for p, q in pairs:
                    v = rng.uniform(-INTERIOR, INTERIOR)
                    values[cid][p][comp] = v
                    values[cid][q][comp] = _neg(v)
                if triangle:
                    a_pt, b_pt, c_pt = triangle
                    a = rng.uniform(-TRIANGLE_INTERIOR, TRIANGLE_INTERIOR)
                    b = rng.uniform(-TRIANGLE_INTERIOR, TRIANGLE_INTERIOR)
                    values[cid][a_pt][comp] = a
                    values[cid][b_pt][comp] = b
                    values[cid][c_pt][comp] = _neg(a + b)
            for comp in MOMENT_COMPONENTS:
                for p in sorted_points:
                    values[cid][p][comp] = rng.uniform(-INTERIOR, INTERIOR)
    else:
        lo, hi = (EXTREME_LO / 10, INTERIOR) if positive_only else (-INTERIOR, INTERIOR)
        for cid in ids:
            for comp in COMPONENT_ORDER:
                for p in sorted_points:
                    values[cid][p][comp] = rng.uniform(lo, hi)

    # Dominating extremes for the designated cases.
    if n_cases > 1:
        assigner = _Assigner(designated)
        if balanced:
            _assign_balanced_forces(rng, values, assigner, pairs, triangle)
            _assign_cell_extremes(rng, values, assigner, sorted_points, MOMENT_COMPONENTS,
                                  group_base=1000, positive_only=False)
        elif positive_only:
            single = designated[0]
            for comp in COMPONENT_ORDER:
                for p in sorted_points:
                    values[single][p][comp] = rng.uniform(EXTREME_LO, EXTREME_HI)
        else:
            _assign_cell_extremes(rng, values, assigner, sorted_points, COMPONENT_ORDER,
                                  group_base=0, positive_only=False)

    cases = tuple(
        LoadCase(
            id=cid,
            loads={
                p: ComponentSet(**{c.value: values[cid][p][c] for c in COMPONENT_ORDER})
                for p in sorted_points
            },
        )
        for cid in ids
    )
    delivery = LoadsDelivery(
        name=name,
        version=version,
        units=units,
        coordinate_system=coordinate_system,
        cases=cases,
    )

    got = set(envelope_select(delivery).selected_case_ids)
    if got != set(designated):
        raise FixtureError(
            f"fixture construction failed: selection {sorted(got)} != requested {designated}"
        )
    return delivery


def _split_groups(sorted_points: list[str]) -> tuple[list[tuple[str, str]], tuple[str, str, str] | None]:
    """Split points into balance pairs plus, for odd counts, one 3-group."""
    pts = list(sorted_points)
    triangle = None
    if len(pts) % 2 == 1:
        if len(pts) < 3:
            return [], None
        triangle = (pts[-3], pts[-2], pts[-1])
        pts = pts[:-3]
    pairs = [(pts[i], pts[i + 1]) for i in range(0, len(pts), 2)]
    return pairs, triangle


def _assign_cell_extremes(rng, values, assigner, points, comps, group_base, positive_only):
    """Give each (point, comp) cell a designated max owner and, unless
    positive_only, a distinct designated negative-min owner."""
    for ci, comp in enumerate(comps):
        for pi, point in enumerate(points):
            group = group_base + ci * len(points) + pi
            max_owner = assigner.take(comp, group)
            values[max_owner][point][comp] = rng.uniform(EXTREME_LO, EXTREME_HI)
            if not positive_only:
                min_owner = assigner.take(comp, group, forbid=max_owner)
                values[min_owner][point][comp] = rng.uniform(-EXTREME_HI, -EXTREME_LO)


def _assign_balanced_forces(rng, values, assigner, pairs, triangle):
    """Designated extreme placement for the paired/triangle force structure.

    A pair slot plants +v at one point and -v at its partner, so each max
    assignment also hands its owner the partner point's minimum. Triangle
    slots keep the closing entry strictly outside the interior band (below
    it for the two free points, via the U(10, 25) companion draw) so the
    third point's minimum is always designated-owned too.
    """
    n = len(assigner.designated)
    for gi, comp in enumerate(FORCE_COMPONENTS):
        for pi, (p, q) in enumerate(pairs):
            group = 2000 + gi * 100 + pi
            for high_point, low_point in ((p, q), (q, p)):
                owner = assigner.take(comp, group)
                v = rng.uniform(EXTREME_LO, EXTREME_HI)
                values[owner][high_point][comp] = v
                values[owner][low_point][comp] = _neg(v)
        if triangle:
            a_pt, b_pt, c_pt = triangle
            group = 3000 + gi
            if n >= 3:
                owner_a = assigner.take(comp, group)
                a = rng.uniform(EXTREME_LO, EXTREME_HI)
                b = rng.uniform(10.0, TRIANGLE_INTERIOR)
                _set_triangle(values[owner_a], comp, triangle, a, b)

                owner_b = assigner.take(comp, group)
                b2 = rng.uniform(EXTREME_LO, EXTREME_HI)
                a2 = rng.uniform(10.0, TRIANGLE_INTERIOR)
                _set_triangle(values[owner_b], comp, triangle, a2, b2)

                owner_c = assigner.take(comp, group)
                c = rng.uniform(EXTREME_LO, EXTREME_HI)
                values[owner_c][a_pt][comp] = _neg(c / 2.0)
                values[owner_c][b_pt][comp] = _neg(c / 2.0)
                values[owner_c][c_pt][comp] = c
            else:
                # Two critical cases: one owns both free-point maxima (its
                # closing entry is then far below the band), the other owns
                # the closing point's maximum.
                owner_ab = assigner.take(comp, group)
                a = rng.uniform(EXTREME_LO, EXTREME_HI)
                b = rng.uniform(EXTREME_LO, EXTREME_HI)
                _set_triangle(values[owner_ab], comp, triangle, a, b)

                owner_c = assigner.take(comp, group)
                c = rng.uniform(EXTREME_LO, EXTREME_HI)
                values[owner_c][a_pt][comp] = _neg(c / 2.0)
                values[owner_c][b_pt][comp] = _neg(c / 2.0)
                values[owner_c][c_pt][comp] = c


def _set_triangle(case_values, comp, triangle, a, b):
    a_pt, b_pt, c_pt = triangle
    case_values[a_pt][comp] = a
    case_values[b_pt][comp] = b
    case_values[c_pt][comp] = _neg(a + b)

