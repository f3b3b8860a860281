"""The router's exact facts do not depend on which way the grid is drawn.

Four maps send a layout to an equivalent one: the x-mirror, the y-mirror,
the transpose (x and y swap, and so do width and height and each layer's
H and V) and the layer flip (layer l becomes layers - 1 - l, the
direction list reversed; a via costs the same both ways). Guide boxes
are mapped with their corners. Under each map, on generated draws:

- the conflicts of the mapped committed grid are the mapped conflicts;
- every net's foreign_counts agree at every mapped vertex;
- each net routed alone on its otherwise empty grid costs the same.

Only facts that ties cannot move are compared. The nets have two pins,
so a route is one connection (the last pin's bounded search) and its
cost is the least one; the default rules are integer-valued, so costs
compare exactly. Whole routes, masks and stitches are not compared: ties
break by vertex id, which a map reorders. The committed grids are each
arm's final grid, so both carry conflicts at d_color 3.
"""

import pytest

from tplroute.baseline import run_baseline
from tplroute.generate import InfeasiblePlacementError, generate_instance
from tplroute.grid import Grid
from tplroute.layout import DesignRules, Layout, Net, Pin
from tplroute.negotiation import detect_conflicts, route_all
from tplroute.router import UnroutableError, route_net

FLIP = {"H": "V", "V": "H"}


def x_mirror(layout):
    w = layout.width
    return (lambda v: (w - 1 - v[0], v[1], v[2])), layout.width, layout.height, list(layout.layers)


def y_mirror(layout):
    h = layout.height
    return (lambda v: (v[0], h - 1 - v[1], v[2])), layout.width, layout.height, list(layout.layers)


def transpose(layout):
    return (lambda v: (v[1], v[0], v[2])), layout.height, layout.width, [FLIP[d] for d in layout.layers]


def layer_flip(layout):
    top = layout.num_layers - 1
    return (lambda v: (v[0], v[1], top - v[2])), layout.width, layout.height, list(reversed(layout.layers))


MAPS = [x_mirror, y_mirror, transpose, layer_flip]


def map_box(f, box):
    l, x0, y0, x1, y1 = box
    (ax, ay, ml), (bx, by, _) = f((x0, y0, l)), f((x1, y1, l))
    return (ml, min(ax, bx), min(ay, by), max(ax, bx), max(ay, by))


def map_layout(layout, f, width, height, layers):
    nets = [
        Net(n.id, n.name, [Pin([f(v) for v in p.covered_vertices]) for p in n.pins],
            n.guide and [map_box(f, box) for box in n.guide])
        for n in layout.nets
    ]
    return Layout(width, height, layers, layout.rules, {f(v) for v in layout.obstacles}, nets)


def add_guides(layout):
    """Give each net one box per layer: its pins' bounding box grown by a track, cut to the grid."""
    for net in layout.nets:
        xs, ys, _ = zip(*(v for pin in net.pins for v in pin.covered_vertices))
        box = (max(min(xs) - 1, 0), max(min(ys) - 1, 0), min(max(xs) + 1, layout.width - 1),
               min(max(ys) + 1, layout.height - 1))
        net.guide = [(l, *box) for l in range(layout.num_layers)]


def conflict_set(conflicts, f=lambda v: v):
    """Each conflict as its two (vertex, net) ends, unordered, with its color and distance."""
    return {
        (frozenset({(f(c.vertex_a), c.net_a), (f(c.vertex_b), c.net_b)}), c.color, c.distance) for c in conflicts
    }


def draws():
    """Generated two-pin draws, 12x9 with one to three layers, d_color 1 to 3 (mostly 3), half of them guided."""
    for seed in range(18):
        try:
            layout = generate_instance(
                seed=seed, width=12, height=9, layers=1 + seed % 3, num_nets=12, pins_per_net=2,
                congestion=0.4, rules=DesignRules(d_color=(1, 2, 3, 3)[seed // 2 % 4]),
            )
        except InfeasiblePlacementError:
            continue
        if seed % 2:
            add_guides(layout)
        grids = []
        for arm in (route_all, run_baseline):
            try:
                grids.append(arm(layout).grid)
            except UnroutableError:
                pass
        yield layout, grids


DRAWS = list(draws())


def test_the_draws_reach_what_they_check():
    grids = [(layout, grid) for layout, arm_grids in DRAWS for grid in arm_grids]
    assert len(DRAWS) == 18 and len(grids) >= 20
    assert sum(len(detect_conflicts(grid, layout.rules)) for layout, grid in grids) >= 10
    assert {layout.num_layers for layout, _ in DRAWS} == {1, 2, 3}
    assert sum(bool(layout.nets[0].guide) for layout, _ in DRAWS) == 9


@pytest.mark.parametrize("mapping", MAPS, ids=lambda m: m.__name__)
def test_conflicts_and_counts_follow_the_map(mapping):
    for layout, grids in DRAWS:
        f, width, height, layers = mapping(layout)
        pin_owners = Grid.from_layout(map_layout(layout, f, width, height, layers)).pin_owners
        for grid in grids:
            committed = {f(v): entry for v, entry in grid.committed.items()}
            obstacles = frozenset(map(f, grid.obstacles))
            mapped = Grid(width, height, tuple(layers), layout.rules, obstacles, committed, pin_owners=pin_owners)
            expected = conflict_set(detect_conflicts(grid, layout.rules), f)
            assert conflict_set(detect_conflicts(mapped, layout.rules)) == expected
            _, vertices = grid.move_table()
            for net in layout.nets:
                counts, mapped_counts = grid.foreign_counts(net.id), mapped.foreign_counts(net.id)
                for vid, v in enumerate(vertices):
                    w = mapped.vid(f(v))
                    assert [c[vid] for c in counts] == [c[w] for c in mapped_counts], (net.id, v)


@pytest.mark.parametrize("mapping", MAPS, ids=lambda m: m.__name__)
def test_a_net_alone_costs_the_same(mapping):
    for layout, _ in DRAWS:
        mapped_layout = map_layout(layout, *mapping(layout))
        for net, mapped_net in zip(layout.nets, mapped_layout.nets):
            assert alone_cost(mapped_net, mapped_layout) == alone_cost(net, layout), net.id


def alone_cost(net, layout):
    """The net's total_cost routed on the layout's grid with nothing committed, or None if it is walled in."""
    try:
        return route_net(net, Grid.from_layout(layout)).total_cost
    except UnroutableError:
        return None


def test_most_nets_route_alone():
    costs = [alone_cost(net, layout) for layout, _ in DRAWS for net in layout.nets]
    assert len(costs) == 216 and costs.count(None) < 20
