"""Route-then-decompose comparison arm.

Routes every net with color and stitch costs zeroed, carves the committed
wires into maximal straight same-layer segments, builds the conflict
graph between close segments of different nets, and 3-colors it: exactly
for components of up to 12 segments, greedily (descending conflict
degree) above that. Stitch freedom exists only at segment boundaries,
i.e. bends and junctions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .color_state import COLOR_ORDER, Color
from .grid import Grid, half_stencil
from .layout import DesignRules, Layout, Vertex, require_valid
from .negotiation import net_order_key, route_batch
from .router import RouteTree, recount_stitches

EXACT_COMPONENT_LIMIT = 12


@dataclass
class Segment:
    index: int
    net_id: int
    layer: int
    vertices: list[Vertex]


@dataclass
class ConflictGraph:
    segments: list[Segment]
    # Index pairs (i < j): different nets within d_color on one layer.
    conflict_edges: list[tuple[int, int]]
    # Index pairs (i < j): same net, grid-adjacent on one layer.
    stitch_edges: list[tuple[int, int]]


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
    """Segments and their edges, found by walking each committed vertex's stencil.

    Two segments conflict when some vertex pair of different nets lies
    within d_color on one layer, and share a stitch edge when some
    same-net pair is grid-adjacent on one layer. Each edge list is sorted
    and holds each (i, j) pair once.
    """
    segments = _extract_segments(grid)
    segment_of = {v: seg.index for seg in segments for v in seg.vertices}
    committed = grid.committed
    half = half_stencil(grid.clamp_d_color(rules.d_color))
    conflicts: set[tuple[int, int]] = set()
    stitches: set[tuple[int, int]] = set()
    for v, i in segment_of.items():
        net_id = committed[v][0]
        x, y, l = v
        for dx, dy in half:
            w = (x + dx, y + dy, l)
            j = segment_of.get(w)
            if j is not None and committed[w][0] != net_id:
                conflicts.add((i, j) if i < j else (j, i))
        for w in ((x + 1, y, l), (x, y + 1, l)):
            j = segment_of.get(w)
            if j is not None and j != i and committed[w][0] == net_id:
                stitches.add((i, j) if i < j else (j, i))
    return ConflictGraph(segments, sorted(conflicts), sorted(stitches))


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
    """
    nodes = sorted(component)
    pos = {n: i for i, n in enumerate(nodes)}
    # Per position, the earlier positions it shares a conflict or stitch edge with.
    earlier_conflicts: list[list[int]] = []
    earlier_stitches: list[list[int]] = []
    for i, node in enumerate(nodes):
        earlier_conflicts.append([pos[n] for n in adj[node] if n in pos and pos[n] < i])
        earlier_stitches.append([pos[n] for n in stitch_adj[node] if n in pos and pos[n] < i])
    best: tuple[int, int, tuple[int, ...]] | None = None
    assignment: list[int] = [0] * len(nodes)  # COLOR_ORDER indices

    def walk(i: int, conflicts: int, stitches: int) -> None:
        nonlocal best
        if best is not None and (conflicts, stitches) >= best[:2]:
            return
        if i == len(nodes):
            best = (conflicts, stitches, tuple(assignment))
            return
        # Earlier neighbours per mask: a conflict for each on the same one,
        # a stitch for each stitch neighbour on another.
        same = [0, 0, 0]
        for j in earlier_conflicts[i]:
            same[assignment[j]] += 1
        joined = [0, 0, 0]
        for j in earlier_stitches[i]:
            joined[assignment[j]] += 1
        stitch_total = len(earlier_stitches[i])
        for ci in range(3):
            assignment[i] = ci
            walk(i + 1, conflicts + same[ci], stitches + stitch_total - joined[ci])

    walk(0, 0, 0)
    assert best is not None
    return {n: COLOR_ORDER[best[2][i]] for i, n in enumerate(nodes)}


def run_baseline(layout: Layout) -> BaselineResult:
    """Colorless routing, decomposition, and recolored route trees."""
    grid, routes = route_colorless(layout)
    graph = build_conflict_graph(grid, layout.rules)
    decomposition = decompose(graph)
    for segment, color in zip(graph.segments, decomposition.node_colors):
        for v in segment.vertices:
            grid.recolor_vertex(v, color)
    recolored: dict[int, RouteTree] = {}
    for net_id, tree in routes.items():
        vertex_colors = {v: grid.committed[v][1] for v in tree.vertex_colors}
        recolored[net_id] = replace(
            tree,
            vertex_colors=vertex_colors,
            stitches=recount_stitches(vertex_colors),
        )
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
    """Connected components over conflict and stitch edges combined."""
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
            for n in sorted(adj[node] | stitch_adj[node]):
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        out.append(sorted(component))
    return out


def _extract_segments(grid: Grid) -> list[Segment]:
    """Partition committed vertices into maximal straight same-layer runs.

    Runs along the layer's preferred axis are taken first (length >= 2);
    leftovers become runs along the other axis, singles included.
    """
    by_net_layer: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for (x, y, l), (net_id, _) in grid.committed.items():
        by_net_layer.setdefault((net_id, l), set()).add((x, y))

    raw: list[tuple[int, int, list[Vertex]]] = []
    for (net_id, layer) in sorted(by_net_layer):
        points = by_net_layer[(net_id, layer)]
        horizontal = grid.layer_dirs[layer] == "H"
        taken: set[tuple[int, int]] = set()
        for run in _axis_runs(points, along_x=horizontal):
            if len(run) >= 2:
                taken.update(run)
                raw.append((net_id, layer, [(x, y, layer) for x, y in run]))
        rest = points - taken
        for run in _axis_runs(rest, along_x=not horizontal):
            raw.append((net_id, layer, [(x, y, layer) for x, y in run]))

    raw.sort(key=lambda item: (item[0], min(item[2])))
    return [
        Segment(index=i, net_id=net_id, layer=layer, vertices=sorted(vertices))
        for i, (net_id, layer, vertices) in enumerate(raw)
    ]


def _axis_runs(points: set[tuple[int, int]], along_x: bool) -> list[list[tuple[int, int]]]:
    groups: dict[int, list[int]] = {}
    for x, y in points:
        key, pos = (y, x) if along_x else (x, y)
        groups.setdefault(key, []).append(pos)
    runs = []
    for key in sorted(groups):
        positions = sorted(groups[key])
        start = prev = positions[0]
        for p in positions[1:]:
            if p == prev + 1:
                prev = p
                continue
            runs.append(_run_points(key, start, prev, along_x))
            start = prev = p
        runs.append(_run_points(key, start, prev, along_x))
    return runs


def _run_points(key: int, start: int, end: int, along_x: bool) -> list[tuple[int, int]]:
    if along_x:
        return [(p, key) for p in range(start, end + 1)]
    return [(key, p) for p in range(start, end + 1)]
