"""Seeded instance builders shared by the unit and acceptance tests."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from tplroute import router
from tplroute.baseline import run_baseline
from tplroute.color_state import COLOR_ORDER, Color
from tplroute.generate import generate_instance
from tplroute.grid import CollisionError, Grid
from tplroute.layout import DesignRules, Layout, Net, Pin
from tplroute.negotiation import route_all
from tplroute.oracle import usable
from tplroute.router import UnroutableError


def empty_grid(width, height, layer_dirs=("H",), rules=None, obstacles=()):
    layout = Layout(
        width=width, height=height, layers=list(layer_dirs),
        rules=rules or DesignRules(), obstacles=set(obstacles), nets=[],
    )
    return Grid.from_layout(layout)


def two_pin_net(src, dst, net_id=0):
    return Net(
        id=net_id, name=f"net{net_id}",
        pins=[Pin([src]), Pin([dst])],
    )


def register_pins(grid, net):
    """A copy of grid with net's pin vertices added to its pin owners."""
    pins = {v: net.id for pin in net.pins for v in pin.covered_vertices}
    return replace(grid, pin_owners={**grid.pin_owners, **pins})


def commit_or_refusal(grid, net_id, path):
    """Commit path to net_id, or check that commit_route refuses it and writes nothing.

    The first vertex the raw data rules out names the refusal: ValueError
    off the grid, CollisionError on an obstacle or on another net's pin or
    commit (oracle.usable). Returns whether the path was committed.
    """
    refusal = None
    for v, _ in path:
        if not grid.in_bounds(v):
            refusal = ValueError
        elif not usable(grid, v, net_id):
            refusal = CollisionError
        if refusal:
            break
    if refusal is None:
        grid.commit_route(net_id, path)
        return True
    before = dict(grid.committed), set(grid._owned.get(net_id, ())), grid.keep_outs(net_id)
    with pytest.raises(refusal):
        grid.commit_route(net_id, path)
    assert (dict(grid.committed), set(grid._owned.get(net_id, ())), grid.keep_outs(net_id)) == before
    return False


def watch_search(monkeypatch, on_pop=None, on_accept=None):
    """Patch the solution queue's seams so on_pop sees every label the
    search pops and on_accept every label a queue accepts, as it happens.

    A pop is a label the search takes from a cost bucket's sorted live
    labels (router._sorted_live) or, once that cost has equal-cost
    children, from router._drain; both hand out only live labels. An
    accept is a label passed to router._enqueue, which the search and
    SolutionQueue.insert call once per accepted label, after it has
    joined its vertex's labels.
    """
    if on_pop is not None:
        sorted_live, drain = router._sorted_live, router._drain

        class Popping(list):
            def __iter__(self):
                for label in list.__iter__(self):
                    on_pop(label)
                    yield label

        def watched_sorted_live(bucket, live):
            return Popping(sorted_live(bucket, live))

        def watched_drain(heap, ties, live):
            for label in drain(heap, ties, live):
                on_pop(label)
                yield label

        monkeypatch.setattr(router, "_sorted_live", watched_sorted_live)
        monkeypatch.setattr(router, "_drain", watched_drain)
    if on_accept is not None:
        enqueue = router._enqueue

        def watched_enqueue(waiting, label):
            enqueue(waiting, label)
            on_accept(label)

        monkeypatch.setattr(router, "_enqueue", watched_enqueue)


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
        if usable(grid, (x, y, l), 0)
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
    grid = register_pins(grid, net)
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
    net = Net(id=0, name="n0", pins=[Pin([p]) for p in pin_vertices])
    grid = register_pins(grid, net)
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


def routes_text(routes):
    lines = []
    for net_id in sorted(routes):
        t = routes[net_id]
        lines.append(f"net {net_id} cost {t.total_cost!r}")
        lines.append(f"  paths {t.paths!r}")
        lines.append(f"  colors {sorted((v, int(c)) for v, c in t.vertex_colors.items())!r}")
        lines.append(f"  states {sorted(t.vertex_states.items())!r}")
        lines.append(f"  stitches {t.stitches!r}")
    return lines


def grid_text(grid):
    return [
        f"committed {sorted((v, n, int(c)) for v, (n, c) in grid.committed.items())!r}",
        f"history {sorted((v, h) for v, h in zip(grid.move_table()[1], grid.history) if h)!r}",
    ]


def route_text(layout):
    """A canonical text form of route_all's outcome: routes, grid and iteration rows."""
    try:
        result = route_all(layout)
    except UnroutableError as exc:
        return f"UnroutableError {exc}"
    lines = routes_text(result.routes) + grid_text(result.grid)
    for i, it in enumerate(result.iterations):
        conflicts = [
            (c.vertex_a, c.vertex_b, c.net_a, c.net_b, int(c.color), c.distance)
            for c in it.conflicts
        ]
        lines.append(f"iter {i} {it.stitch_count} {it.nets_rerouted!r} {conflicts!r}")
    return "\n".join(lines)


def baseline_text(layout):
    """A canonical text form of run_baseline's outcome: routes, grid and decomposition."""
    try:
        result = run_baseline(layout)
    except UnroutableError as exc:
        return f"UnroutableError {exc}"
    d = result.decomposition
    lines = routes_text(result.routes) + grid_text(result.grid)
    lines.append(f"decomposition {[int(c) for c in d.node_colors]!r} "
                 f"{d.conflict_edge_count} {d.stitch_edge_count}")
    return "\n".join(lines)
