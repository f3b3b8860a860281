from dataclasses import replace

import pytest

from instances import empty_grid, random_colored_grid
from tplroute import oracle
from tplroute.color_state import Color
from tplroute.layout import DesignRules
from tplroute.negotiation import detect_conflicts


def test_straight_corridor_minimum():
    rules = DesignRules()
    grid = empty_grid(3, 1, ("H",), rules)
    res = oracle.optimal_colored_path(grid, {(0, 0, 0)}, {(2, 0, 0)}, rules, net_id=0)
    assert res.best_cost == 2.0 * rules.alpha
    assert res.best_path == [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    assert res.best_coloring == [Color.RED] * 3  # tie-broken to RED


def test_flanked_corridor_avoids_red():
    rules = DesignRules()
    grid = empty_grid(5, 3, ("H",), rules)
    for x in range(5):
        grid.commit_route(900, [((x, 0, 0), Color.RED)])
        grid.commit_route(901, [((x, 2, 0), Color.RED)])
    res = oracle.optimal_colored_path(grid, {(0, 1, 0)}, {(4, 1, 0)}, rules, net_id=0)
    # conflict-free coloring exists, so no gamma terms in the optimum
    assert res.best_cost == 4.0 * rules.alpha
    assert all(c != Color.RED for c in res.best_coloring)


def test_two_zone_corridor_pays_one_stitch():
    rules = DesignRules()
    grid = empty_grid(6, 3, ("H",), rules)
    for x in (0, 1, 2):
        grid.commit_route(900, [((x, 0, 0), Color.GREEN)])
        grid.commit_route(901, [((x, 2, 0), Color.BLUE)])
    for x in (3, 4, 5):
        grid.commit_route(902, [((x, 0, 0), Color.RED)])
        grid.commit_route(903, [((x, 2, 0), Color.RED)])
    res = oracle.optimal_colored_path(grid, {(0, 1, 0)}, {(5, 1, 0)}, rules, net_id=0)
    assert res.best_cost == 5.0 * rules.alpha + rules.beta * rules.stitch_cost
    assert res.best_coloring[0] == Color.RED
    assert res.best_coloring[-1] != Color.RED
    assert sum(1 for a, b in zip(res.best_coloring, res.best_coloring[1:]) if a != b) == 1


def test_path_cap_error():
    rules = DesignRules()
    grid = empty_grid(5, 1, ("H",), rules, obstacles={(2, 0, 0)})
    with pytest.raises(oracle.PathCapError):
        oracle.optimal_colored_path(grid, {(0, 0, 0)}, {(4, 0, 0)}, rules, net_id=0)


def test_cap_restricts_detours():
    rules = DesignRules()
    grid = empty_grid(9, 1, ("H",), rules)
    with pytest.raises(oracle.PathCapError):
        oracle.optimal_colored_path(
            grid, {(0, 0, 0)}, {(8, 0, 0)}, rules, max_vertices=8, net_id=0
        )


def test_deterministic_result():
    rules = DesignRules()
    grid = empty_grid(4, 4, ("H", "V"), rules)
    grid.commit_route(900, [((1, 1, 0), Color.GREEN)])
    runs = [
        oracle.optimal_colored_path(grid, {(0, 0, 0)}, {(3, 3, 1)}, rules, net_id=0)
        for _ in range(2)
    ]
    assert runs[0].best_cost == runs[1].best_cost
    assert runs[0].best_path == runs[1].best_path
    assert runs[0].best_coloring == runs[1].best_coloring


def test_all_pairs_size_cap():
    rules = DesignRules()
    grid = empty_grid(11, 4, ("H",), rules)
    with pytest.raises(oracle.GridTooLargeError):
        oracle.all_pairs_conflicts(grid, rules)


def test_all_pairs_examples():
    rules = DesignRules(d_color=2)
    grid = empty_grid(6, 6, ("H",), rules)
    assert oracle.all_pairs_conflicts(grid, rules) == []
    grid.commit_route(1, [((1, 1, 0), Color.RED)])
    grid.commit_route(2, [((2, 1, 0), Color.GREEN)])
    assert oracle.all_pairs_conflicts(grid, rules) == []
    grid.rip_up(2)
    grid.commit_route(2, [((2, 1, 0), Color.RED)])
    found = oracle.all_pairs_conflicts(grid, rules)
    assert len(found) == 1
    assert found[0].distance == 1
    # same net never self-conflicts
    grid.rip_up(2)
    grid.commit_route(1, [((2, 1, 0), Color.RED)])
    assert oracle.all_pairs_conflicts(grid, rules) == []


def test_all_pairs_matches_detector_spot_checks():
    for seed in range(10):
        grid, drawn = random_colored_grid(seed)
        # The drawn d_color, and two past the clamp (width + height - 1).
        for d_color in (drawn.d_color, grid.width + grid.height, 10**6):
            rules = replace(drawn, d_color=d_color)
            naive = {(c.vertex_a, c.vertex_b, c.color) for c in oracle.all_pairs_conflicts(grid, rules)}
            fast = {(c.vertex_a, c.vertex_b, c.color) for c in detect_conflicts(grid, rules)}
            assert naive == fast, (seed, d_color)
