import gc
import itertools
import random
import sys
from dataclasses import replace

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
from tplroute.metrics import score
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


def unrestricted_walk(component, adj, stitch_adj):
    """The exact colorer's walk as it was before it opened colors in order.

    Every node tries all three masks, and a call whose (conflicts,
    stitches) cannot beat the best found returns at once. Returns the
    assignment (COLOR_ORDER indices in sorted-node order) and how many
    calls went past that test with a canonical prefix, one that opens
    colors in COLOR_ORDER only.
    """
    nodes = sorted(component)
    pos = {n: i for i, n in enumerate(nodes)}
    earlier_conflicts = [[pos[n] for n in adj[node] if n in pos and pos[n] < i] for i, node in enumerate(nodes)]
    earlier_stitches = [[pos[n] for n in stitch_adj[node] if n in pos and pos[n] < i] for i, node in enumerate(nodes)]
    best = None
    canonical_calls = 0
    assignment = [0] * len(nodes)

    def walk(i, conflicts, stitches):
        nonlocal best, canonical_calls
        if best is not None and (conflicts, stitches) >= best[:2]:
            return
        if all(assignment[k] <= max(assignment[:k], default=-1) + 1 for k in range(i)):
            canonical_calls += 1
        if i == len(nodes):
            best = (conflicts, stitches, tuple(assignment))
            return
        same = [0, 0, 0]
        for j in earlier_conflicts[i]:
            same[assignment[j]] += 1
        joined = [0, 0, 0]
        for j in earlier_stitches[i]:
            joined[assignment[j]] += 1
        for ci in range(3):
            assignment[i] = ci
            walk(i + 1, conflicts + same[ci], stitches + len(earlier_stitches[i]) - joined[ci])

    walk(0, 0, 0)
    return best[2], canonical_calls


def count_walk_calls(fn, *args):
    """fn's result, and how many times baseline's nested walk was called during it."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "walk" and frame.f_code.co_filename == baseline.__file__:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return result, calls


def test_canonical_walk_matches_the_unrestricted_walk():
    # Stitch-heavy components of 1 to EXACT_COMPONENT_LIMIT nodes, drawn
    # from a few more so some edges leave the component. The colorer
    # returns the unrestricted walk's assignment, and walks exactly its
    # canonical calls: a walk that opened a color a node early would also
    # walk non-canonical ones, and one that opened it late would miss
    # some. A component of one node is colored without a walk.
    rng = random.Random(33)
    sizes = [1, 1, 2, 3] + [rng.randint(1, EXACT_COMPONENT_LIMIT) for _ in range(56)]
    for n in sizes:
        count = n + rng.randint(0, 3)
        nodes = sorted(rng.sample(range(count), n))
        adj, stitch_adj = [set() for _ in range(count)], [set() for _ in range(count)]
        p_conflict, p_stitch = rng.choice([(0.15, 0.5), (0.3, 0.4), (0.5, 0.3)])
        for i in range(count):
            for j in range(i + 1, count):
                r = rng.random()
                into = adj if r < p_conflict else stitch_adj if r < p_conflict + p_stitch else None
                if into is not None:
                    into[i].add(j)
                    into[j].add(i)
        expected, canonical_calls = unrestricted_walk(nodes, adj, stitch_adj)
        exact, calls = count_walk_calls(exact_color_component, nodes, adj, stitch_adj)
        assert tuple(COLOR_ORDER.index(exact[v]) for v in nodes) == expected, nodes
        assert calls == (0 if n == 1 else canonical_calls), nodes


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


@pytest.mark.parametrize("d_color", [1, 2, 3, 10**6])
def test_baseline_keeps_the_scan_of_its_final_grid(monkeypatch, d_color):
    # run_baseline hands the pairs its conflict graph was read from, with
    # their final colors, to the grid's last-scan slot: the kept list is a
    # fresh scan of a copy, sorted, at the clamped d_color, and score
    # copies it without walking the grid.
    walks = []
    close_pairs = Grid.close_pairs
    monkeypatch.setattr(Grid, "close_pairs", lambda grid, d: walks.append(d) or close_pairs(grid, d))
    kept_total = 0
    for seed in range(4):
        layout = generate_instance(
            seed=seed, width=10, height=10, layers=2, num_nets=8, pins_per_net=3,
            congestion=0.6, rules=DesignRules(d_color=d_color),
        )
        result = run_baseline(layout)
        grid = result.grid
        kept_d_color, kept = grid._last_scan
        assert kept_d_color == grid._clamp(d_color)
        assert kept == sorted(kept, key=lambda c: (c.vertex_a, c.vertex_b))
        walks.clear()
        report = score(grid, result.routes, layout.rules)
        assert walks == []
        assert report.conflict_list == kept and report.conflict_list is not kept
        assert kept == detect_conflicts(replace(grid), layout.rules)
        kept_total += len(kept)
    # Conflicts the decomposition could not remove are left at d_color 3 and above.
    assert (kept_total > 0) == (d_color >= 3)


def test_finished_baseline_holds_no_close_pairs():
    # Once the grid's last-scan slot holds the close pairs, the result's
    # graph drops its own list; score still reads the same conflicts as
    # a fresh walk of the final grid.
    layout = generate_instance(
        seed=1, width=10, height=10, layers=2, num_nets=8, pins_per_net=3,
        congestion=0.6, rules=DesignRules(d_color=10**6),
    )
    grid, _ = route_colorless(layout)
    assert build_conflict_graph(grid, layout.rules).close_pairs
    result = run_baseline(layout)
    assert result.graph.close_pairs == []
    report = score(result.grid, result.routes, layout.rules)
    result.grid._last_scan = None
    assert score(result.grid, result.routes, layout.rules) == report
