import gc
import itertools
import random

import pytest

from instances import congested_layout, empty_grid
from tplroute import baseline
from tplroute.baseline import (
    EXACT_COMPONENT_LIMIT,
    ConflictGraph,
    Segment,
    build_conflict_graph,
    decompose,
    exact_color_component,
    greedy_color_component,
    route_colorless,
    run_baseline,
)
from tplroute.color_state import COLOR_ORDER, Color
from tplroute.generate import generate_instance
from tplroute.grid import Grid
from tplroute.layout import DesignRules
from tplroute.negotiation import detect_conflicts, route_all
from tplroute.router import UnroutableError


def seg(net_id, vertices):
    return Segment(net_id, sorted(vertices))


def test_triangle_three_colors_no_conflict():
    graph = ConflictGraph(
        segments=[seg(1, [(0, 0, 0)]), seg(2, [(1, 0, 0)]), seg(3, [(0, 1, 0)])],
        conflict_edges=[(0, 1), (0, 2), (1, 2)],
        stitch_edges=[],
    )
    result = decompose(graph)
    assert result.conflict_edge_count == 0
    assert len(set(result.node_colors)) == 3


def test_k4_forces_a_conflict():
    graph = ConflictGraph(
        segments=[seg(i + 1, [(i, 0, 0)]) for i in range(4)],
        conflict_edges=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        stitch_edges=[],
    )
    result = decompose(graph)
    assert result.conflict_edge_count >= 1


def test_same_net_segments_forced_apart_stitch():
    # S0, S1: same net, adjacent. Foreign triangle {X, Y, Z} takes three
    # distinct colors; S0 conflicts with {X, Y} and S1 with {X, Z}, forcing
    # S0 = color(Z) != color(Y) = S1, so the clean coloring needs one stitch.
    graph = ConflictGraph(
        segments=[
            seg(1, [(0, 0, 0)]),  # S0
            seg(1, [(1, 0, 0)]),  # S1
            seg(2, [(0, 1, 0)]),  # X
            seg(3, [(0, 2, 0)]),  # Y
            seg(4, [(1, 1, 0)]),  # Z
        ],
        conflict_edges=[(0, 2), (0, 3), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)],
        stitch_edges=[(0, 1)],
    )
    result = decompose(graph)
    assert result.conflict_edge_count == 0
    assert result.node_colors[0] != result.node_colors[1]
    assert result.stitch_edge_count == 1


def test_parallel_wires_distance_rules():
    rules = DesignRules(d_color=2)
    grid = empty_grid(8, 8, ("H",), rules)
    for x in range(2, 6):
        grid.commit_route(1, [((x, 1, 0), Color.RED)])
        grid.commit_route(2, [((x, 5, 0), Color.RED)])
    graph = build_conflict_graph(grid, rules)
    assert graph.conflict_edges == []  # distance 4 >= d_color

    grid2 = empty_grid(8, 8, ("H",), rules)
    for x in range(2, 6):
        grid2.commit_route(1, [((x, 1, 0), Color.RED)])
        grid2.commit_route(2, [((x, 2, 0), Color.RED)])
    graph2 = build_conflict_graph(grid2, rules)
    assert len(graph2.conflict_edges) >= 1


def test_single_net_has_no_conflict_edges():
    rules = DesignRules(d_color=2)
    grid = empty_grid(8, 8, ("H",), rules)
    for x in range(2, 6):
        grid.commit_route(1, [((x, 1, 0), Color.RED)])
        grid.commit_route(1, [((x, 2, 0), Color.RED)])
    graph = build_conflict_graph(grid, rules)
    assert graph.conflict_edges == []
    assert len(graph.stitch_edges) >= 1


def test_segments_partition_committed_vertices():
    layout = congested_layout(1)
    grid, routes = route_colorless(layout)
    graph = build_conflict_graph(grid, layout.rules)
    seen = {}
    for i, s in enumerate(graph.segments):
        for v in s.vertices:
            assert v not in seen, f"{v} in two segments"
            seen[v] = i
    assert set(seen) == set(grid.committed)


def test_colorless_pass_never_builds_conflict_counts(monkeypatch):
    # gamma is 0 in the colorless pass, so the search reads zero counts
    # and the grid never builds, copies or spreads its per-mask counts.
    def refuse(grid, net_id):
        raise AssertionError("foreign_counts read during the colorless pass")

    monkeypatch.setattr(Grid, "foreign_counts", refuse)
    layout = congested_layout(1)
    grid, routes = route_colorless(layout)
    assert len(routes) == len(layout.nets)
    assert grid._counts is None


def test_greedy_never_beats_exact():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 9)
        nodes = list(range(n))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.45
        ]
        adj = [set() for _ in range(n)]
        for i, j in edges:
            adj[i].add(j)
            adj[j].add(i)
        stitch_adj = [set() for _ in range(n)]
        exact = exact_color_component(nodes, adj, stitch_adj)
        greedy = greedy_color_component(nodes, adj)
        count = lambda coloring: sum(1 for i, j in edges if coloring[i] == coloring[j])
        assert count(greedy) >= count(exact)


def test_exact_coloring_matches_brute_force():
    # Up to 8 nodes, drawn from 0..11 so some edges leave the node list:
    # only edges inside it count. The exact colorer returns the least
    # assignment, in sorted-node order, by (conflicts, stitches, masks).
    rng = random.Random(11)
    for _ in range(40):
        nodes = sorted(rng.sample(range(12), rng.randint(1, 8)))
        pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
        conflict_edges = [p for p in pairs if rng.random() < 0.3]
        stitch_edges = [p for p in pairs if p not in conflict_edges and rng.random() < 0.2]
        adj, stitch_adj = [set() for _ in range(12)], [set() for _ in range(12)]
        for edges, into in ((conflict_edges, adj), (stitch_edges, stitch_adj)):
            for i, j in edges:
                into[i].add(j)
                into[j].add(i)
        pos = {n: k for k, n in enumerate(nodes)}
        inner_conflicts, inner_stitches = (
            [(pos[i], pos[j]) for i, j in edges if i in pos and j in pos]
            for edges in (conflict_edges, stitch_edges)
        )
        conflicts = lambda a: sum(1 for i, j in inner_conflicts if a[i] == a[j])
        stitches = lambda a: sum(1 for i, j in inner_stitches if a[i] != a[j])
        brute = min(
            itertools.product(range(3), repeat=len(nodes)),
            key=lambda a: (conflicts(a), stitches(a), a),
        )
        exact = exact_color_component(nodes, adj, stitch_adj)
        assert tuple(COLOR_ORDER.index(exact[n]) for n in nodes) == brute


def test_decompose_preserves_geometry():
    layout = congested_layout(3)
    grid, routes = route_colorless(layout)
    paths_before = {nid: tree.paths for nid, tree in routes.items()}
    result = run_baseline(layout)
    for nid, tree in result.routes.items():
        assert tree.paths == paths_before[nid]
        assert set(tree.vertex_colors) == set(routes[nid].vertex_colors)


def test_baseline_conflicts_agree_with_detector():
    layout = congested_layout(3)
    result = run_baseline(layout)
    # graph-level same-color conflict edges imply detector pairs and vice versa:
    # compare pair-level counts computed both ways on the recolored grid
    detected = detect_conflicts(result.grid, layout.rules)
    seg_of = {}
    for i, s in enumerate(result.graph.segments):
        for v in s.vertices:
            seg_of[v] = i
    edge_pairs = set()
    for c in detected:
        i, j = sorted((seg_of[c.vertex_a], seg_of[c.vertex_b]))
        edge_pairs.add((i, j))
    colors = result.decomposition.node_colors
    same_color_edges = {
        (i, j) for i, j in result.graph.conflict_edges if colors[i] == colors[j]
    }
    assert edge_pairs == same_color_edges


def _pairwise_edges(segments, d_color):
    """Conflict and stitch edges from every segment pair's minimum distance."""
    conflicts, stitches = [], []
    for i, a in enumerate(segments):
        for j in range(i + 1, len(segments)):
            b = segments[j]
            if a.vertices[0][2] != b.vertices[0][2]:
                continue
            gap = min(
                abs(ax - bx) + abs(ay - by)
                for ax, ay, _ in a.vertices
                for bx, by, _ in b.vertices
            )
            if a.net_id != b.net_id:
                if gap < d_color:
                    conflicts.append((i, j))
            elif gap == 1:
                stitches.append((i, j))
    return conflicts, stitches


def test_stencil_walk_edges_equal_pairwise_scan():
    for seed in range(4):
        layout = congested_layout(seed)
        grid, _ = route_colorless(layout)
        for d_color in (1, 2, 3, 4, 10**6):
            graph = build_conflict_graph(grid, DesignRules(d_color=d_color))
            conflicts, stitches = _pairwise_edges(graph.segments, d_color)
            assert graph.conflict_edges == conflicts, (seed, d_color)
            assert graph.stitch_edges == stitches, (seed, d_color)


@pytest.mark.parametrize("extra, colorer", [(0, "exact_color_component"), (1, "greedy_color_component")])
def test_exact_colorer_takes_components_up_to_the_limit(monkeypatch, extra, colorer):
    # One component: a path of segments whose nets alternate.
    n = EXACT_COMPONENT_LIMIT + extra
    graph = ConflictGraph(
        [seg(i % 2, [(i, 0, 0)]) for i in range(n)], [(i, i + 1) for i in range(n - 1)], []
    )
    calls = []
    for name in ("exact_color_component", "greedy_color_component"):
        def spy(component, *rest, name=name, real=getattr(baseline, name)):
            calls.append((name, len(component)))
            return real(component, *rest)

        monkeypatch.setattr(baseline, name, spy)
    decomposition = decompose(graph)
    assert calls == [(colorer, n)]
    assert decomposition.conflict_edge_count == 0


# Both arms on each draw: a completed one, the CLI's unroutable one, and a
# completed one with 20 nets.
GC_DRAWS = [
    dict(seed=1, width=24, height=24, layers=2, num_nets=8, pins_per_net=4, congestion=0.5),
    dict(seed=2, width=12, height=12, layers=2, num_nets=8, pins_per_net=4, congestion=0.6),
    dict(seed=1, width=20, height=20, layers=2, num_nets=20, pins_per_net=3, congestion=0.5),
]


@pytest.mark.parametrize("arm", [route_all, run_baseline])
def test_runs_leave_no_cyclic_garbage(arm):
    # Reference counting frees all a run builds, so the cyclic GC finds
    # nothing. While the exact colorer's recursive closure was a cycle,
    # run_baseline left 298 objects on the first draw.
    outcomes = []
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for params in GC_DRAWS:
            layout = generate_instance(**params)
            try:
                arm(layout)
                outcomes.append("routed")
            except UnroutableError:
                outcomes.append("unroutable")
            assert gc.collect() == 0, params
    finally:
        if enabled:
            gc.enable()
    assert outcomes == ["routed", "unroutable", "routed"]
