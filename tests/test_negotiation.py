from dataclasses import replace
from pathlib import Path

import copy
import pickle

import pytest

from instances import congested_layout, empty_grid
from tplroute import negotiation
from tplroute.baseline import run_baseline
from tplroute.color_state import Color
from tplroute.generate import generate_instance
from tplroute.grid import Grid
from tplroute.layout import DesignRules, Layout, Net, Pin, load_layout
from tplroute.negotiation import detect_conflicts, net_order_key, route_all, route_batch
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
    small = Net(id=5, name="s", pins=[Pin([(0, 0, 0)]), Pin([(1, 0, 0)])])
    wide = Net(id=1, name="w", pins=[Pin([(0, 0, 0)]), Pin([(7, 7, 0)])])
    many = Net(id=0, name="m", pins=[Pin([(0, 0, 0)]), Pin([(1, 0, 0)]), Pin([(2, 0, 0)])])
    ordered = sorted([many, wide, small], key=net_order_key)
    assert [n.id for n in ordered] == [5, 1, 0]


def test_conflict_free_instance_single_iteration():
    layout = Layout(
        width=8, height=8, layers=["H", "V"],
        rules=DesignRules(),
        nets=[
            Net(id=0, name="a", pins=[Pin([(0, 0, 0)]), Pin([(7, 0, 0)])]),
            Net(id=1, name="b", pins=[Pin([(0, 7, 0)]), Pin([(7, 7, 0)])]),
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
    assert len(result.iterations) <= layout.rules.max_iterations


def test_max_iterations_one_returns_conflicts_without_error():
    # gamma = 0 blinds the router to colors, so parallel nets all pick RED
    rules = DesignRules(gamma=0.0, max_iterations=1)
    layout = Layout(
        width=6, height=4, layers=["H"],
        rules=rules,
        nets=[
            Net(id=0, name="a", pins=[Pin([(0, 1, 0)]), Pin([(5, 1, 0)])]),
            Net(id=1, name="b", pins=[Pin([(0, 2, 0)]), Pin([(5, 2, 0)])]),
        ],
    )
    result = route_all(layout)
    assert len(result.iterations) == 1
    assert len(result.iterations[0].conflicts) > 0


def test_reroutes_touch_only_offenders():
    layout = congested_layout(2)
    result = route_all(layout)
    for previous, report in zip(result.iterations, result.iterations[1:]):
        previous_offenders = set()
        for c in previous.conflicts:
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


def two_net_layout(obstacles):
    """Net 0 from (0, 0) to (4, 0) and net 1 from (0, 2) to (4, 2) on one 5x3 layer."""
    return Layout(
        width=5, height=3, layers=["H"], rules=DesignRules(), obstacles=obstacles,
        nets=[
            Net(0, "a", [Pin([(0, 0, 0)]), Pin([(4, 0, 0)])]),
            Net(1, "b", [Pin([(0, 2, 0)]), Pin([(4, 2, 0)])]),
        ],
    )


def test_unroutable_run_keeps_blockers():
    # Two nets must both cross the single gap at (2, 1): each rescue hands
    # the gap to the other net until the rescue budget runs out.
    with pytest.raises(UnroutableError) as exc_info:
        route_all(two_net_layout({(2, 0, 0), (2, 2, 0)}))
    exc = exc_info.value
    assert str(exc) == f"iteration 0: net {exc.net_id}: pins [1] unreachable"
    assert exc.net_id == 1
    assert exc.remaining_pins == [1]
    assert exc.iteration == 0
    assert exc.wall and set(exc.wall.values()) == {1 - exc.net_id}, "the re-raise must keep the wall"



def test_unroutable_error_survives_pickle_and_copy():
    # Both arms fail on this draw with an empty wall, the router's error
    # with its iteration set; the single-gap layout fails with a wall.
    draw = generate_instance(
        seed=2, width=12, height=12, layers=2, num_nets=8, pins_per_net=4, congestion=0.6
    )
    gap = two_net_layout({(2, 0, 0), (2, 2, 0)})
    errors = []
    for run, layout in ((route_all, draw), (run_baseline, draw), (route_all, gap)):
        with pytest.raises(UnroutableError) as exc_info:
            run(layout)
        errors.append(exc_info.value)
    assert [str(exc) for exc in errors[:2]] == [
        "iteration 0: net 3: pins [2] unreachable",
        "net 3: pins [2] unreachable",
    ]
    assert errors[2].wall
    for exc in errors:
        facts = (str(exc), exc.net_id, exc.remaining_pins, exc.wall, exc.iteration)
        for round_trip in (lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy):
            again = round_trip(exc)
            assert type(again) is UnroutableError
            assert (str(again), again.net_id, again.remaining_pins, again.wall, again.iteration) == facts


def test_rescue_rips_a_pending_blocker_without_queueing_it_twice(monkeypatch):
    # Net 1 is committed along row 1 and still waits its turn in the batch.
    # It walls net 0 into the corner under it, so net 0's rescue rips net 1
    # up and routes net 0 again first; net 1 then routes once, in the place
    # it already held in the queue.
    layout = two_net_layout({(2, 0, 0)})
    grid = Grid.from_layout(layout)
    grid.commit_route(1, [((x, 1, 0), Color.RED) for x in range(5)])
    seen = []
    route_net = negotiation.route_net

    def noting_route_net(net, grid):
        seen.append(net.id)
        return route_net(net, grid)

    monkeypatch.setattr(negotiation, "route_net", noting_route_net)
    routes = {}
    assert route_batch(grid, layout.nets, routes, layout.nets) == [0, 1]
    assert seen == [0, 0, 1]
    assert sorted(routes) == [0, 1]


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
