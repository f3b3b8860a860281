"""Seeded random benchmark instances at desk scale.

Each net's pins land in a narrow horizontal band, so nets sharing bands
produce parallel wires in shared corridors — routing congestion of the
kind that pressures mask assignment, rather than raw cell saturation.
The congestion knob in [0, 1] scales obstacle count and stretches each
net's pin spread, so higher congestion means strictly more obstacles and
longer shared corridors at the same seed.

A draw depends only on random.Random(seed).getrandbits. Each bounded
integer below n is taken by hand the way randrange takes it on CPython
3.10-3.13: getrandbits(n.bit_length()) again until the value is below n
(so a draw below 1 still spends a bit). That gives randrange's values
from the same stream without its wrapper calls, which cost about five
times the draw itself.

The k obstacle ids below n are drawn by the rule of random.sample's set
path, which takes each id that way and draws again while it is already
chosen (_sample_ids). That is sample(range(n), k) exactly for every k
the generator asks for, k = round(congestion * OBSTACLE_FRACTION * n)
with congestion at most 1. For n <= 21, k is at most 1, and sample's
other path (a pool list, taken while n is at most its setsize) draws its
one id below n by the same single rule. For k >= 2, n is at least 30,
past setsize: 21 up to k = 5, and below 20k - 10 above that, where
setsize is 21 + 4 ** ceil(log(3k, 4)) < 21 + 12k. So sample takes the
set path there.
"""

from __future__ import annotations

import random

from .layout import MAX_GRID_VERTICES, DesignRules, Layout, Net, Pin, Vertex, _is_int

OBSTACLE_FRACTION = 0.05  # of all vertices, at congestion 1.0
BAND_HALF_HEIGHT = 1  # pins sit within +-1 track of their band center
PLACEMENT_RETRIES = 400


class InfeasiblePlacementError(RuntimeError):
    """Pins could not be placed after bounded retries."""


def _sample_ids(getrandbits, n: int, k: int) -> dict[int, None]:
    """k distinct ids below n, keyed in the order random.sample(range(n), k) picks them.

    See the module docstring for the (n, k) this is exact for.
    """
    bits = n.bit_length()
    ids: dict[int, None] = {}
    for _ in range(k):
        while (j := getrandbits(bits)) >= n or j in ids:
            pass
        ids[j] = None
    return ids


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
    for name, value in (("width", width), ("height", height), ("layers", layers),
                        ("num_nets", num_nets), ("pins_per_net", pins_per_net)):
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if min(width, height, layers, num_nets, pins_per_net) < 1:
        raise ValueError("all size parameters must be positive")
    if width * height * layers > MAX_GRID_VERTICES:
        raise ValueError(f"grid {width}x{height}x{layers} has more than {MAX_GRID_VERTICES} vertices")
    if not 0.0 <= congestion <= 1.0:
        raise ValueError(f"congestion must be in [0, 1], got {congestion}")
    getrandbits = random.Random(seed).getrandbits
    rules = rules if rules is not None else DesignRules()

    plane = width * height
    n_obstacles = round(congestion * OBSTACLE_FRACTION * plane * layers)
    # Vertex id i is (x, y, l) in layer-major, then row-major order: the
    # ids are the indices random.sample would pick from a list of every
    # vertex in that order, so the obstacles are the ones it would pick.
    obstacles = {
        (i % width, i // width % height, i // plane)
        for i in _sample_ids(getrandbits, plane * layers, n_obstacles)
    }

    span = min(width, max(3, round(width * (0.4 + 0.5 * congestion))))
    starts = width - span + 1  # x_start values: the band fits the width
    rows = 2 * BAND_HALF_HEIGHT + 1
    # Bits per bounded draw; see the module docstring.
    height_bits, start_bits, row_bits = height.bit_length(), starts.bit_length(), rows.bit_length()
    span_bits, layer_bits = span.bit_length(), layers.bit_length()
    used: set[Vertex] = set()
    nets = []
    for n in range(num_nets):
        while (band_center := getrandbits(height_bits)) >= height:
            pass
        while (x_start := getrandbits(start_bits)) >= starts:
            pass
        pins = []
        for _ in range(pins_per_net):
            for _ in range(PLACEMENT_RETRIES):
                # Row, then column, then layer: the pinned draws depend on
                # this order of draws.
                while (row := getrandbits(row_bits)) >= rows:
                    pass
                y = band_center - BAND_HALF_HEIGHT + row
                y = 0 if y < 0 else height - 1 if y >= height else y
                while (dx := getrandbits(span_bits)) >= span:
                    pass
                while (l := getrandbits(layer_bits)) >= layers:
                    pass
                v = (x_start + dx, y, l)
                if v not in obstacles and v not in used:
                    break
            else:
                raise InfeasiblePlacementError(
                    f"no free pin position in a {span}-wide band after {PLACEMENT_RETRIES} tries"
                )
            used.add(v)
            pins.append(Pin([v]))
        nets.append(Net(n, f"net{n}", pins))

    return Layout(
        width=width,
        height=height,
        layers=["H" if i % 2 == 0 else "V" for i in range(layers)],
        rules=rules,
        obstacles=obstacles,
        nets=nets,
    )

