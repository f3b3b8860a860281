"""Seeded random benchmark instances at desk scale.

Each net's pins land in a narrow horizontal band, so nets sharing bands
produce parallel wires in shared corridors — routing congestion of the
kind that pressures mask assignment, rather than raw cell saturation.
The congestion knob in [0, 1] scales obstacle count and stretches each
net's pin spread, so higher congestion means strictly more obstacles and
longer shared corridors at the same seed.
"""

from __future__ import annotations

import random

from .layout import MAX_GRID_VERTICES, DesignRules, Layout, Net, Pin, Vertex

OBSTACLE_FRACTION = 0.05  # of all vertices, at congestion 1.0
BAND_HALF_HEIGHT = 1  # pins sit within +-1 track of their band center
PLACEMENT_RETRIES = 400


class InfeasiblePlacementError(RuntimeError):
    """Pins could not be placed after bounded retries."""


def generate_instance(
    seed: int,
    width: int,
    height: int,
    layers: int,
    num_nets: int,
    pins_per_net: int,
    congestion: float,
    rules: DesignRules | None = None,
) -> Layout:
    if min(width, height, layers, num_nets, pins_per_net) < 1:
        raise ValueError("all size parameters must be positive")
    if width * height * layers > MAX_GRID_VERTICES:
        raise ValueError(f"grid {width}x{height}x{layers} has more than {MAX_GRID_VERTICES} vertices")
    if not 0.0 <= congestion <= 1.0:
        raise ValueError(f"congestion must be in [0, 1], got {congestion}")
    rng = random.Random(seed)
    rules = rules if rules is not None else DesignRules()

    plane = width * height
    n_obstacles = round(congestion * OBSTACLE_FRACTION * plane * layers)
    # Vertex id i is (x, y, l) in layer-major, then row-major order.
    # random.sample picks the same indices from any population of the same
    # length, so sampling ids draws the same obstacles, in the same order,
    # as sampling a list of every vertex in that order would.
    obstacles = {
        (i % width, i // width % height, i // plane)
        for i in rng.sample(range(plane * layers), n_obstacles)
    }

    span = min(width, max(3, round(width * (0.4 + 0.5 * congestion))))
    used: set[Vertex] = set()
    nets = []
    for n in range(num_nets):
        band_center = rng.randrange(height)
        x_start = rng.randrange(max(1, width - span + 1))
        pins = []
        for _ in range(pins_per_net):
            for _ in range(PLACEMENT_RETRIES):
                y = band_center + rng.randint(-BAND_HALF_HEIGHT, BAND_HALF_HEIGHT)
                v = (
                    x_start + rng.randrange(span),
                    max(0, min(height - 1, y)),
                    rng.randrange(layers),
                )
                if v not in obstacles and v not in used:
                    break
            else:
                raise InfeasiblePlacementError(
                    f"no free pin position in a {span}-wide band after {PLACEMENT_RETRIES} tries"
                )
            used.add(v)
            pins.append(Pin([v]))
        nets.append(Net(id=n, name=f"net{n}", pins=pins))

    return Layout(
        width=width,
        height=height,
        layers=["H" if i % 2 == 0 else "V" for i in range(layers)],
        rules=rules,
        obstacles=obstacles,
        nets=nets,
    )

