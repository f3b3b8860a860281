"""Route-then-decompose comparison arm.

Routes every net with color and stitch costs zeroed, carves the committed
wires into maximal straight same-layer segments, builds the conflict
graph between close segments of different nets, and 3-colors it: exactly
for components of up to 12 segments, greedily (descending conflict
degree) above that. Stitch freedom exists only at segment boundaries,
i.e. bends and junctions.

The grid's close pairs are walked once per run. build_conflict_graph
keeps the pairs it read its conflict edges from, and run_baseline,
after the recolors, hands them with their final colors to the grid's
last-scan slot (negotiation.keep_scan), then empties the graph's list.
A recolor changes a vertex's mask, never its net, so the pairs are
still the grid's, and score copies that scan rather than walking the
grid again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain

from .color_state import COLOR_ORDER, Color
from .grid import Grid
from .layout import DesignRules, Layout, Vertex, require_valid
from .negotiation import keep_scan, net_order_key, route_batch
from .router import RouteTree, recount_stitches

EXACT_COMPONENT_LIMIT = 12


@dataclass
class Segment:
    net_id: int
    vertices: list[Vertex]


@dataclass
class ConflictGraph:
    # A segment's index is its position here; its layer is its vertices'.
    segments: list[Segment]
    # Index pairs (i < j): different nets within d_color on one layer.
    conflict_edges: list[tuple[int, int]]
    # Index pairs (i < j): same net, grid-adjacent on one layer.
    stitch_edges: list[tuple[int, int]]
    # The vertex pairs (a, b, distance) of Grid.close_pairs the conflict
    # edges were read from; empty in a graph built by hand, and emptied
    # by run_baseline once the grid's last-scan slot holds them.
    close_pairs: list[tuple[Vertex, Vertex, int]] = field(default_factory=list)


@dataclass
class Decomposition:
    node_colors: list[Color]
    conflict_edge_count: int
    stitch_edge_count: int


@dataclass
class BaselineResult:
    grid: Grid
    routes: dict[int, RouteTree]
    graph: ConflictGraph
    decomposition: Decomposition


def route_colorless(layout: Layout) -> tuple[Grid, dict[int, RouteTree]]:
    """One routing pass with gamma = stitch_cost = 0 (masks ignored)."""
    require_valid(layout)
    grid = Grid.from_layout(layout)
    grid.rules = replace(layout.rules, gamma=0.0, stitch_cost=0.0)
    routes: dict[int, RouteTree] = {}
    ordered = sorted(layout.nets, key=net_order_key)
    route_batch(grid, ordered, routes, ordered)
    grid.rules = layout.rules
    return grid, routes


def build_conflict_graph(grid: Grid, rules: DesignRules) -> ConflictGraph:
    """Segments and their edges, read from the committed vertices.

    Two segments conflict when some vertex pair of different nets lies
    within d_color on one layer: the segments of a pair of
    Grid.close_pairs at rules.d_color. They share a stitch edge when some
    same-net pair is grid-adjacent on one layer, found by a step right and
    above from every vertex. Each edge list is sorted and holds each
    (i, j) pair once. Segment indices are read from a per-vertex-id array
    (see _extract_segments).
    """
    segments, seg_at = _extract_segments(grid)
    width, height = grid.width, grid.height
    pairs = [(a, b, distance) for a, b, distance, _, _ in grid.close_pairs(rules.d_color)]
    conflicts: set[tuple[int, int]] = set()
    for (ax, ay, l), (bx, by, _), _ in pairs:
        base = l * height
        i, j = seg_at[(base + ay) * width + ax], seg_at[(base + by) * width + bx]
        conflicts.add((i, j) if i < j else (j, i))
    seg_net = [seg.net_id for seg in segments]
    stitches: set[tuple[int, int]] = set()
    for i, seg in enumerate(segments):
        net_id = seg.net_id
        for x, y, l in seg.vertices:
            vid = (l * height + y) * width + x
            right = seg_at[vid + 1] if x + 1 < width else -1
            above = seg_at[vid + width] if y + 1 < height else -1
            for j in (right, above):
                if j >= 0 and j != i and seg_net[j] == net_id:
                    stitches.add((i, j) if i < j else (j, i))
    return ConflictGraph(segments, sorted(conflicts), sorted(stitches), pairs)


def decompose(graph: ConflictGraph) -> Decomposition:
    """3-color the segment graph, minimizing conflicts first, stitches second.

    Components small enough for exhaustive search are solved exactly; the
    rest fall back to greedy coloring in descending conflict-degree order
    (ties by node index). Route geometry is untouched.
    """
    n = len(graph.segments)
    colors = [Color.RED] * n
    adj = _adjacency(n, graph.conflict_edges)
    stitch_adj = _adjacency(n, graph.stitch_edges)

    for component in _components(n, adj, stitch_adj):
        if len(component) <= EXACT_COMPONENT_LIMIT:
            assignment = exact_color_component(component, adj, stitch_adj)
        else:
            assignment = greedy_color_component(component, adj)
        for node, color in assignment.items():
            colors[node] = color

    conflict_count = sum(1 for i, j in graph.conflict_edges if colors[i] == colors[j])
    stitch_count = sum(1 for i, j in graph.stitch_edges if colors[i] != colors[j])
    return Decomposition(colors, conflict_count, stitch_count)


def greedy_color_component(component: list[int], adj: list[set[int]]) -> dict[int, Color]:
    """Descending-degree greedy; exhausted nodes take the least-used neighbor color."""
    order = sorted(component, key=lambda n: (-len(adj[n]), n))
    chosen: dict[int, Color] = {}
    for node in order:
        neighbor_colors = [chosen[n] for n in sorted(adj[node]) if n in chosen]
        free = [c for c in COLOR_ORDER if c not in neighbor_colors]
        if free:
            chosen[node] = free[0]
        else:
            counts = {c: neighbor_colors.count(c) for c in COLOR_ORDER}
            chosen[node] = min(COLOR_ORDER, key=lambda c: (counts[c], -int(c)))
    return chosen


def exact_color_component(
    component: list[int], adj: list[set[int]], stitch_adj: list[set[int]]
) -> dict[int, Color]:
    """Exhaustive lexicographic minimum of (conflicts, stitches).

    Nodes are colored in sorted order, each trying COLOR_ORDER in turn, so
    of the assignments tied at the minimum the lexicographically least one
    is found first and kept. Edges to nodes outside component are ignored.

    The walk opens colors in COLOR_ORDER only: a node takes a color an
    earlier node took, or the first one none took. Every assignment has
    such a canonical form, its colors relabeled in order of first
    appearance, and relabeling keeps both counts (they only ask whether
    two colors are equal). At the first node where the two differ, the
    assignment opens a color past the next unused one, so the canonical
    form is lexicographically smaller. The least assignment at the
    minimum is therefore canonical, and the walk, which skips up to five
    of every six assignments, returns it.
    """
    if len(component) == 1:
        return {component[0]: COLOR_ORDER[0]}
    nodes = sorted(component)
    pos = {n: i for i, n in enumerate(nodes)}
    # Per position, the earlier positions it shares a conflict or stitch edge with.
    earlier_conflicts: list[list[int]] = []
    earlier_stitches: list[list[int]] = []
    for i, node in enumerate(nodes):
        earlier_conflicts.append([pos[n] for n in adj[node] if n in pos and pos[n] < i])
        earlier_stitches.append([pos[n] for n in stitch_adj[node] if n in pos and pos[n] < i])
    # One int per cost: a conflict outweighs every stitch the component has.
    weight = sum(map(len, earlier_stitches)) + 1
    best_cost, best = math.inf, ()
    assignment: list[int] = [0] * len(nodes)  # COLOR_ORDER indices

    def walk(i: int, cost: int, opened: int) -> None:
        nonlocal best_cost, best
        if i == len(nodes):
            best_cost, best = cost, tuple(assignment)
            return
        # Per mask, what taking it adds: weight for each earlier conflict
        # neighbour on it, one for each earlier stitch neighbour on another.
        add = [len(earlier_stitches[i])] * 3
        for j in earlier_conflicts[i]:
            add[assignment[j]] += weight
        for j in earlier_stitches[i]:
            add[assignment[j]] -= 1
        # Colors 0..opened-1 are taken; the next one may open. A child that
        # cannot beat the best found is not walked.
        for ci in range(opened + 1 if opened < 3 else 3):
            if cost + add[ci] < best_cost:
                assignment[i] = ci
                walk(i + 1, cost + add[ci], opened + (ci == opened))

    walk(0, 0, 0)
    # walk's closure cell holds walk itself; emptying it breaks that cycle,
    # so reference counting frees the closure without the cyclic GC.
    del walk
    return {n: COLOR_ORDER[ci] for n, ci in zip(nodes, best)}


def run_baseline(layout: Layout) -> BaselineResult:
    """Colorless routing, decomposition, and recolored route trees."""
    grid, routes = route_colorless(layout)
    graph = build_conflict_graph(grid, layout.rules)
    decomposition = decompose(graph)
    committed = grid.committed
    # Each segment re-commits only the vertices whose mask changes, so a
    # segment already on its mask writes nothing.
    for segment, color in zip(graph.segments, decomposition.node_colors):
        changed = [(v, color) for v in segment.vertices if committed[v][1] != color]
        if changed:
            grid.commit_route(segment.net_id, changed)
    # The recolors kept every pair's vertices, so the pairs the graph was
    # read from, with their final colors, are the grid's conflict scan.
    keep_scan(
        grid,
        grid._clamp(layout.rules.d_color),
        [(a, b, distance, committed[a], committed[b]) for a, b, distance in graph.close_pairs],
    )
    graph.close_pairs = []
    # A tree's vertices are its net's commits, so it has a stitch only when
    # one of the net's stitch edges joins two masks.
    colors = decomposition.node_colors
    stitched = {graph.segments[i].net_id for i, j in graph.stitch_edges if colors[i] != colors[j]}
    recolored: dict[int, RouteTree] = {}
    for net_id, tree in routes.items():
        vertex_colors = {v: committed[v][1] for v in tree.vertex_colors}
        stitches = recount_stitches(vertex_colors) if net_id in stitched else []
        recolored[net_id] = RouteTree(tree.paths, vertex_colors, stitches, tree.vertex_states, tree.total_cost)
    return BaselineResult(grid, recolored, graph, decomposition)


def _adjacency(count: int, edges: list[tuple[int, int]]) -> list[set[int]]:
    """Per node of 0..count-1, its neighbors along edges."""
    adj: list[set[int]] = [set() for _ in range(count)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _components(
    count: int, adj: list[set[int]], stitch_adj: list[set[int]]
) -> list[list[int]]:
    """Connected components over conflict and stitch edges combined.

    Each component is sorted, and they come in the order of their least
    nodes, so the walk's order within a component does not show.
    """
    seen: set[int] = set()
    out = []
    for start in range(count):
        if start in seen:
            continue
        component = []
        stack = [start]
        seen.add(start)
        while stack:
            node = stack.pop()
            component.append(node)
            for n in chain(adj[node], stitch_adj[node]):
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        out.append(sorted(component))
    return out


def _extract_segments(grid: Grid) -> tuple[list[Segment], list[int]]:
    """Partition committed vertices into maximal straight same-layer runs.

    Runs along the layer's preferred axis are taken first (length >= 2);
    leftovers become runs along the other axis, singles included.
    Segments are ordered by net id, then by first vertex. Also returns,
    per vertex id, the index of the segment holding it (-1 for none).
    """
    width, height = grid.width, grid.height
    _, vertex_at = grid.move_table()
    size = len(vertex_at)
    horizontal_at = [d == "H" for d in grid.layer_dirs]
    net_at: list[int | None] = [None] * size
    entries = []
    for (x, y, l), (net_id, _) in grid.committed.items():
        vid = (l * height + y) * width + x
        net_at[vid] = net_id
        entries.append((net_id, x, y, l, vid, horizontal_at[l]))

    # A run is (net_id, x, y, layer, along_x, length), from its first vertex.
    # A vertex taken into a run is cleared from net_at.
    runs: list[tuple[int, int, int, int, bool, int]] = []
    for preferred in (True, False):
        for net_id, x, y, l, vid, horizontal in entries:
            if net_at[vid] is None:
                continue
            along_x = horizontal == preferred
            pos, limit, step = (x, width, 1) if along_x else (y, height, width)
            if pos and net_at[vid - step] == net_id:
                continue  # not the first vertex of its run
            length = 1
            while pos + length < limit and net_at[vid + length * step] == net_id:
                length += 1
            if preferred and length < 2:
                continue
            runs.append((net_id, x, y, l, along_x, length))
            net_at[vid : vid + length * step : step] = [None] * length
    runs.sort()

    segments: list[Segment] = []
    seg_at = [-1] * size
    for index, (net_id, x, y, l, along_x, length) in enumerate(runs):
        vid, step = (l * height + y) * width + x, 1 if along_x else width
        cells = slice(vid, vid + length * step, step)
        seg_at[cells] = [index] * length
        segments.append(Segment(net_id, list(vertex_at[cells])))
    return segments, seg_at
