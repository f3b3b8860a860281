from dataclasses import replace
from pathlib import Path

import pytest

from instances import congested_layout, empty_grid
from tplroute.baseline import run_baseline
from tplroute.color_state import Color
from tplroute.layout import DesignRules, Layer, Layout, Net, Pin, load_layout
from tplroute.negotiation import detect_conflicts, net_order_key, route_all
from tplroute.router import UnroutableError

DEMO_2NET = Path(__file__).resolve().parent.parent / "data" / "demo_2net.json"


def test_detect_different_colors_no_conflict():
    rules = DesignRules(d_color=2)
    grid = empty_grid(5, 5, ("H",), rules)
    grid.commit_route(1, [((1, 1, 0), Color.RED)])
    grid.commit_route(2, [((2, 1, 0), Color.GREEN)])
    assert detect_conflicts(grid, rules) == []


def test_detect_same_color_close_pair():
    rules = DesignRules(d_color=2)
    grid = empty_grid(5, 5, ("H",), rules)
    grid.commit_route(1, [((1, 1, 0), Color.RED)])
    grid.commit_route(2, [((2, 1, 0), Color.RED)])
    found = detect_conflicts(grid, rules)
    assert len(found) == 1
    c = found[0]
    assert (c.vertex_a, c.vertex_b) == ((1, 1, 0), (2, 1, 0))
    assert {c.net_a, c.net_b} == {1, 2}
    assert c.color == Color.RED and c.distance == 1


def test_detect_same_net_never_conflicts():
    rules = DesignRules(d_color=2)
    grid = empty_grid(5, 5, ("H",), rules)
    grid.commit_route(1, [((1, 1, 0), Color.RED), ((2, 1, 0), Color.RED)])
    assert detect_conflicts(grid, rules) == []


def test_detect_cross_layer_never_conflicts():
    rules = DesignRules(d_color=2)
    grid = empty_grid(5, 5, ("H", "V"), rules)
    grid.commit_route(1, [((1, 1, 0), Color.RED)])
    grid.commit_route(2, [((1, 1, 1), Color.RED)])
    assert detect_conflicts(grid, rules) == []


def test_each_pair_reported_once():
    rules = DesignRules(d_color=3)
    grid = empty_grid(6, 6, ("H",), rules)
    grid.commit_route(1, [((1, 1, 0), Color.BLUE)])
    grid.commit_route(2, [((3, 1, 0), Color.BLUE)])
    found = detect_conflicts(grid, rules)
    assert len(found) == 1
    assert found[0].distance == 2


def test_net_order_key():
    small = Net(id=5, name="s", pins=[Pin(5, [(0, 0, 0)]), Pin(5, [(1, 0, 0)])])
    wide = Net(id=1, name="w", pins=[Pin(1, [(0, 0, 0)]), Pin(1, [(7, 7, 0)])])
    many = Net(id=0, name="m", pins=[Pin(0, [(0, 0, 0)]), Pin(0, [(1, 0, 0)]), Pin(0, [(2, 0, 0)])])
    ordered = sorted([many, wide, small], key=net_order_key)
    assert [n.id for n in ordered] == [5, 1, 0]


def test_conflict_free_instance_single_iteration():
    layout = Layout(
        width=8, height=8, layers=[Layer(0, "H"), Layer(1, "V")],
        rules=DesignRules(),
        nets=[
            Net(id=0, name="a", pins=[Pin(0, [(0, 0, 0)]), Pin(0, [(7, 0, 0)])]),
            Net(id=1, name="b", pins=[Pin(1, [(0, 7, 0)]), Pin(1, [(7, 7, 0)])]),
        ],
    )
    result = route_all(layout)
    assert len(result.iterations) == 1
    assert result.iterations[0].conflicts == []
    assert sorted(result.routes) == [0, 1]


def test_contention_resolves_within_iterations():
    layout = congested_layout(2)
    result = route_all(layout)
    first = len(result.iterations[0].conflicts)
    final = len(result.iterations[-1].conflicts)
    assert final <= first
    assert result.iterations[-1].index < layout.rules.max_iterations


def test_max_iterations_one_returns_conflicts_without_error():
    # gamma = 0 blinds the router to colors, so parallel nets all pick RED
    rules = DesignRules(gamma=0.0, max_iterations=1)
    layout = Layout(
        width=6, height=4, layers=[Layer(0, "H")],
        rules=rules,
        nets=[
            Net(id=0, name="a", pins=[Pin(0, [(0, 1, 0)]), Pin(0, [(5, 1, 0)])]),
            Net(id=1, name="b", pins=[Pin(1, [(0, 2, 0)]), Pin(1, [(5, 2, 0)])]),
        ],
    )
    result = route_all(layout)
    assert len(result.iterations) == 1
    assert len(result.iterations[0].conflicts) > 0


def test_reroutes_touch_only_offenders():
    layout = congested_layout(2)
    result = route_all(layout)
    for report in result.iterations[1:]:
        previous_offenders = set()
        for c in result.iterations[report.index - 1].conflicts:
            previous_offenders |= {c.net_a, c.net_b}
        assert set(report.nets_rerouted) <= previous_offenders


def test_history_only_grows():
    layout = congested_layout(2)
    result = route_all(layout)
    assert all(v >= 0 for v in result.grid.history)
    if len(result.iterations) > 1:
        assert any(result.grid.history)  # escalation left a trace


def test_routes_commit_matches_grid():
    layout = congested_layout(4)
    result = route_all(layout)
    committed_by_net = {}
    for v, (net_id, color) in result.grid.committed.items():
        committed_by_net.setdefault(net_id, {})[v] = color
    for net_id, tree in result.routes.items():
        assert committed_by_net.get(net_id, {}) == tree.vertex_colors


def test_unroutable_run_keeps_blockers():
    # Two nets must both cross the single gap at (2, 1): each rescue hands
    # the gap to the other net until the rescue budget runs out.
    layout = Layout(
        width=5, height=3, layers=[Layer(0, "H")], rules=DesignRules(),
        obstacles={(2, 0, 0), (2, 2, 0)},
        nets=[
            Net(0, "a", [Pin(0, [(0, 0, 0)]), Pin(0, [(4, 0, 0)])]),
            Net(1, "b", [Pin(1, [(0, 2, 0)]), Pin(1, [(4, 2, 0)])]),
        ],
    )
    with pytest.raises(UnroutableError) as exc_info:
        route_all(layout)
    exc = exc_info.value
    assert str(exc) == f"iteration 0: net {exc.net_id}: pins [1] unreachable"
    assert exc.net_id == 1
    assert exc.remaining_pins == [1]
    assert exc.blocked_nets == {1 - exc.net_id}
    assert exc.blocked_vertices, "the re-raise must keep the wall's vertices"


def test_d_color_past_the_grid_span_changes_nothing():
    # No two vertices of an 8x8 layer lie 15 apart, so any larger d_color
    # gives the same routes; its stencils are built at 15, not at 10**6.
    layout = load_layout(DEMO_2NET)
    runs = {}
    for d_color in (15, 10**6):
        layout.rules = replace(layout.rules, d_color=d_color)
        ours, base = route_all(layout), run_baseline(layout)
        runs[d_color] = (
            ours.routes, ours.iterations, ours.grid.committed,
            base.routes, base.graph, base.decomposition, base.grid.committed,
        )
    assert runs[10**6] == runs[15]
