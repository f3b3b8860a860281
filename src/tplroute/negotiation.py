"""Outer routing loop: route everything, find conflicts, rip up and retry.

A conflict is a pair of same-color vertices from different nets on one
layer closer than d_color tracks. Each iteration bumps the history cost
of every conflicting vertex and reroutes only the offending nets, until
the layout is clean or the iteration cap is hit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .color_state import Color
from .grid import Grid
from .layout import DesignRules, Layout, Net, Vertex, require_valid
from .router import RouteTree, UnroutableError, route_net

MAX_RESCUES_PER_NET = 8


@dataclass(frozen=True)
class Conflict:
    vertex_a: Vertex
    vertex_b: Vertex
    net_a: int
    net_b: int
    color: Color
    distance: int


@dataclass
class IterationReport:
    conflicts: list[Conflict]
    stitch_count: int
    nets_rerouted: list[int]


@dataclass
class RoutingResult:
    grid: Grid
    routes: dict[int, RouteTree]  # by net id
    iterations: list[IterationReport]  # iteration i's report at index i

    @property
    def final_conflicts(self) -> list[Conflict]:
        return self.iterations[-1].conflicts if self.iterations else []


def detect_conflicts(grid: Grid, rules: DesignRules) -> list[Conflict]:
    """Every cross-net same-layer same-color pair below d_color, once each.

    The pairs of Grid.close_pairs at rules.d_color whose two colors are
    equal, sorted by their vertices, in a new list. The grid keeps the
    last scan with its clamped d_color until its next commit or rip-up,
    so asking again of an unchanged grid, as score does after route_all,
    copies the list and does not walk the grid.
    """
    d_color = grid._clamp(rules.d_color)
    last = grid._last_scan
    if last is None or last[0] != d_color:
        last = keep_scan(grid, d_color, grid.close_pairs(d_color))
    return list(last[1])


def keep_scan(grid: Grid, d_color: int, pairs) -> tuple[int, list[Conflict]]:
    """Keep the conflicts among pairs in the grid's last-scan slot, and return the slot.

    pairs are (a, b, distance, committed[a], committed[b]) as
    Grid.close_pairs yields them at the clamped d_color; the conflicts
    are those whose two colors are equal, sorted by their vertices.
    """
    found = [
        Conflict(a, b, net_a, net_b, color_a, distance)
        for a, b, distance, (net_a, color_a), (net_b, color_b) in pairs
        if color_a == color_b
    ]
    found.sort(key=lambda c: (c.vertex_a, c.vertex_b))
    grid._last_scan = (d_color, found)
    return grid._last_scan


def net_order_key(net: Net) -> tuple[int, int, int]:
    """Batch routing order: pin count, bounding-box half-perimeter, id."""
    xs = [v[0] for pin in net.pins for v in pin.covered_vertices]
    ys = [v[1] for pin in net.pins for v in pin.covered_vertices]
    hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys)) if xs else 0
    return (len(net.pins), hpwl, net.id)


def route_batch(
    grid: Grid,
    nets: list[Net],
    routes: dict[int, RouteTree],
    all_nets: list[Net],
) -> list[int]:
    """Route nets in order, committing each tree.

    A net still committed from an earlier pass is ripped up only when its
    turn comes, so every reroute sees all other nets in place. When a net
    gets walled in by already-committed wires, the wall's history cost is
    escalated, the blocking nets are ripped up, the stuck net routes
    first, and the victims are rerouted after it (at most
    MAX_RESCUES_PER_NET rescues per net). Raises once a net stays
    unroutable with nothing left to rip.
    """
    by_id = {n.id: n for n in all_nets}
    pending = deque(nets)
    rescues: dict[int, int] = {}
    touched: set[int] = set()
    while pending:
        net = pending.popleft()
        grid.rip_up(net.id)
        routes.pop(net.id, None)
        try:
            tree = route_net(net, grid)
        except UnroutableError as exc:
            used = rescues.get(net.id, 0)
            blockers = sorted({b for b in exc.wall.values() if b in by_id})
            if used >= MAX_RESCUES_PER_NET or not blockers:
                raise
            rescues[net.id] = used + 1
            for v in sorted(exc.wall):
                grid.add_history(v, grid.rules.history_increment)
            for b in blockers:
                grid.rip_up(b)
                routes.pop(b, None)
            # A blocker still pending is ripped up but keeps its one place.
            queued = {n.id for n in pending}
            pending.extendleft(reversed([net] + [by_id[b] for b in blockers if b not in queued]))
            continue
        routes[net.id] = tree
        grid.commit_route(net.id, sorted(tree.vertex_colors.items()))
        touched.add(net.id)
    return sorted(touched)


def route_all(layout: Layout) -> RoutingResult:
    """Route every net with conflict-driven rip-up and reroute.

    Returns the final grid, route trees, and one report per iteration.
    Remaining conflicts at the iteration cap are data, not an error;
    a genuinely unroutable net does raise.
    """
    require_valid(layout)
    grid = Grid.from_layout(layout)
    ordered = sorted(layout.nets, key=net_order_key)
    routes: dict[int, RouteTree] = {}
    iterations: list[IterationReport] = []
    to_route = list(ordered)

    for iteration in range(layout.rules.max_iterations):
        try:
            routed_now = route_batch(grid, to_route, routes, ordered)
        except UnroutableError as exc:
            exc.iteration = iteration
            raise
        conflicts = detect_conflicts(grid, layout.rules)
        stitch_count = sum(len(t.stitches) for t in routes.values())
        iterations.append(IterationReport(conflicts, stitch_count, routed_now))
        if not conflicts or iteration + 1 >= layout.rules.max_iterations:
            break

        offenders: set[int] = set()
        hot_vertices: set[Vertex] = set()
        for c in conflicts:
            offenders |= {c.net_a, c.net_b}
            hot_vertices |= {c.vertex_a, c.vertex_b}
        for v in sorted(hot_vertices):
            grid.add_history(v, layout.rules.history_increment)
        # Offenders are ripped one at a time as route_batch reaches them,
        # so each reroute sees every other net's committed colors.
        to_route = [net for net in ordered if net.id in offenders]

    return RoutingResult(grid=grid, routes=routes, iterations=iterations)

