"""Seeded instance builders shared by the unit and acceptance tests."""

from __future__ import annotations

import random
from dataclasses import replace

from tplroute.color_state import COLOR_ORDER, Color
from tplroute.generate import generate_instance
from tplroute.grid import Grid
from tplroute.layout import DesignRules, Layer, Layout, Net, Pin


def empty_grid(width, height, layer_dirs=("H",), rules=None):
    layers = [Layer(i, d) for i, d in enumerate(layer_dirs)]
    layout = Layout(
        width=width, height=height, layers=layers,
        rules=rules or DesignRules(), nets=[],
    )
    return Grid.from_layout(layout)


def two_pin_net(src, dst, net_id=0):
    return Net(
        id=net_id, name=f"net{net_id}",
        pins=[Pin(net_id, [src]), Pin(net_id, [dst])],
    )


def passable(grid, v, net_id):
    """Usable by net_id: in bounds, no obstacle, no foreign commit or pin.

    The keep-out rule written against the raw grid data, the reference
    that Grid.keep_outs is checked against.
    """
    if not grid.in_bounds(v) or v in grid.obstacles:
        return False
    pin_owner = grid.pin_owners.get(v)
    if pin_owner is not None and pin_owner != net_id:
        return False
    owner = grid.committed.get(v)
    return owner is None or owner[0] == net_id


def register_pins(grid, net):
    for pin in net.pins:
        for v in pin.covered_vertices:
            grid.pin_owners[v] = net.id


def oracle_instance(seed):
    """2-pin net on a grid <= 6x6x2 with 0-3 committed foreign color blobs.

    Returns (grid, net, rules, src, dst), or None when the draw leaves no
    room for two separated pins.
    """
    rng = random.Random(seed)
    width = rng.randint(4, 6)
    height = rng.randint(4, 6)
    n_layers = rng.randint(1, 2)
    rules = DesignRules()
    grid = empty_grid(width, height, ("H", "V")[:n_layers], rules)

    for b in range(rng.randint(0, 3)):
        color = rng.choice(COLOR_ORDER)
        x, y, l = rng.randrange(width), rng.randrange(height), rng.randrange(n_layers)
        blob = [(x, y, l)]
        for _ in range(rng.randint(0, 2)):
            bx, by, bl = blob[-1]
            steps = [
                v
                for v in ((bx + 1, by, bl), (bx - 1, by, bl), (bx, by + 1, bl), (bx, by - 1, bl))
                if 0 <= v[0] < width and 0 <= v[1] < height
            ]
            if steps:
                blob.append(rng.choice(steps))
        try:
            grid.commit_route(900 + b, [(v, color) for v in blob])
        except Exception:
            pass

    free = [
        (x, y, l)
        for l in range(n_layers)
        for y in range(height)
        for x in range(width)
        if passable(grid, (x, y, l), 0)
    ]
    if len(free) < 2:
        return None
    src = rng.choice(free)
    far = [
        v for v in free
        if abs(v[0] - src[0]) + abs(v[1] - src[1]) + abs(v[2] - src[2]) >= 2
    ]
    if not far:
        return None
    dst = rng.choice(far)
    net = two_pin_net(src, dst)
    register_pins(grid, net)
    return grid, net, rules, src, dst


def congested_layout(seed):
    """One instance of the 12x12x2 congested comparison suite."""
    rng = random.Random(seed * 77 + 5)
    num_nets = rng.randint(6, 10)
    pins_per_net = rng.randint(3, 5)
    return generate_instance(
        seed=seed, width=12, height=12, layers=2,
        num_nets=num_nets, pins_per_net=pins_per_net, congestion=0.6,
    )


def pressure_instance(seed):
    """4-pin net with engineered color pressure at two branch corridors.

    A neutral trunk row and two descents whose flanks each exclude two
    masks; flanks stay a full d_color away from the trunk so only the
    branches are constrained. Returns (grid, net).
    """
    rng = random.Random(seed)
    rules = DesignRules()
    grid = empty_grid(11, 6, ("H",), rules)
    fid = 900
    pairs = [(2, 6), (2, 7), (3, 7), (3, 8), (2, 8), (4, 8)]
    bx1, bx2 = pairs[rng.randrange(len(pairs))]
    for bx in (bx1, bx2):
        allowed = rng.choice((Color.GREEN, Color.BLUE))
        others = [c for c in COLOR_ORDER if c != allowed]
        for y in (0, 1):
            grid.commit_route(fid, [((bx - 1, y, 0), others[y % 2])])
            fid += 1
            grid.commit_route(fid, [((bx + 1, y, 0), others[(y + 1) % 2])])
            fid += 1
    pin_vertices = [(0, 3, 0), (10, 3, 0), (bx1, 0, 0), (bx2, 0, 0)]
    net = Net(id=0, name="n0", pins=[Pin(0, [p]) for p in pin_vertices])
    register_pins(grid, net)
    return grid, net


def random_colored_grid(seed):
    """Grid <= 10x10x2 with randomly scattered committed colored vertices."""
    rng = random.Random(seed)
    width = rng.randint(5, 10)
    height = rng.randint(5, 10)
    n_layers = rng.randint(1, 2)
    rules = DesignRules(d_color=rng.randint(1, 3))
    grid = empty_grid(width, height, ("H", "V")[:n_layers], rules)
    n_nets = rng.randint(2, 6)
    cells = [
        (x, y, l)
        for l in range(n_layers)
        for y in range(height)
        for x in range(width)
    ]
    rng.shuffle(cells)
    take = rng.randint(5, min(40, len(cells)))
    committed = {v: (rng.randrange(n_nets), rng.choice(COLOR_ORDER)) for v in cells[:take]}
    return replace(grid, committed=committed), rules
