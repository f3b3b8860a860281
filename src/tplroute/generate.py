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

from .layout import MAX_GRID_VERTICES, DesignRules, Layer, Layout, Net, Pin, Vertex

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

    layer_list = [Layer(i, "H" if i % 2 == 0 else "V") for i in range(layers)]
    all_vertices = [
        (x, y, l) for l in range(layers) for y in range(height) for x in range(width)
    ]
    n_obstacles = round(congestion * OBSTACLE_FRACTION * len(all_vertices))
    obstacles = set(rng.sample(all_vertices, n_obstacles))

    span = max(3, min(width, round(width * (0.4 + 0.5 * congestion))))
    used: set[Vertex] = set()
    nets = []
    for n in range(num_nets):
        band_center = rng.randrange(height)
        x_start = rng.randrange(max(1, width - span + 1))
        pins = []
        for _ in range(pins_per_net):
            v = _place_pin(
                rng, x_start, span, band_center, width, height, layers, obstacles, used
            )
            used.add(v)
            pins.append(Pin(net_id=n, covered_vertices=[v]))
        nets.append(Net(id=n, name=f"net{n}", pins=pins))

    return Layout(
        width=width,
        height=height,
        layers=layer_list,
        rules=rules,
        obstacles=obstacles,
        nets=nets,
    )


def _place_pin(
    rng: random.Random,
    x_start: int,
    span: int,
    band_center: int,
    width: int,
    height: int,
    layers: int,
    obstacles: set[Vertex],
    used: set[Vertex],
) -> Vertex:
    for _ in range(PLACEMENT_RETRIES):
        y = band_center + rng.randint(-BAND_HALF_HEIGHT, BAND_HALF_HEIGHT)
        v = (
            x_start + rng.randrange(span),
            max(0, min(height - 1, y)),
            rng.randrange(layers),
        )
        if v not in obstacles and v not in used:
            return v
    raise InfeasiblePlacementError(
        f"no free pin position in a {span}-wide band after {PLACEMENT_RETRIES} tries"
    )
