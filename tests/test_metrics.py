from dataclasses import replace

import pytest

from instances import empty_grid, register_pins, two_pin_net
from tplroute.baseline import run_baseline
from tplroute.color_state import Color
from tplroute.generate import generate_instance
from tplroute.grid import Grid
from tplroute.layout import DesignRules
from tplroute.metrics import ScoreReport, compare, report_to_dict, score
from tplroute.negotiation import detect_conflicts, route_all
from tplroute.router import RouteTree, route_net


def make_tree(path, color):
    return RouteTree(
        paths=[path],
        vertex_colors={v: color for v in path},
        stitches=[],
        vertex_states={v: 0b111 for v in path},
        total_cost=0.0,
    )


def test_empty_layout_scores_zero():
    grid = empty_grid(4, 4, ("H",))
    report = score(grid, {}, grid.rules)
    assert report.conflicts == 0
    assert report.stitches == 0
    assert report.weighted_cost == 0.0
    assert report.per_net == []


def test_single_clean_net_costs_alpha_times_length():
    rules = DesignRules(alpha=1.5)
    grid = empty_grid(6, 1, ("H",), rules)
    path = [(x, 0, 0) for x in range(6)]
    tree = make_tree(path, Color.RED)
    grid.commit_route(0, sorted(tree.vertex_colors.items()))
    report = score(grid, {0: tree}, rules)
    assert report.conflicts == 0 and report.stitches == 0
    assert report.weighted_cost == pytest.approx(rules.alpha * (len(path) - 1))


def test_wirelength_priced_by_the_rules_passed_in():
    # One preferred step, one wrong-way step and one via, scored under rules
    # other than the grid's: every term comes from the rules argument.
    grid = empty_grid(3, 3, ("H", "V"))
    tree = make_tree([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)], Color.RED)
    grid.commit_route(0, sorted(tree.vertex_colors.items()))
    rules = DesignRules(alpha=2.0, via_cost=100.0, wrong_way_cost=50.0)
    report = score(grid, {0: tree}, rules)
    assert report.per_net[0].trad == 1.0 + (1.0 + 50.0) + (1.0 + 100.0)
    assert report.weighted_cost == 2.0 * 153.0


def test_clean_solution_dominates_forced_conflicts():
    rules = DesignRules(d_color=2)
    # tight: two parallel same-color wires one track apart
    tight = empty_grid(6, 6, ("H",), rules)
    t0 = make_tree([(x, 2, 0) for x in range(6)], Color.RED)
    t1 = make_tree([(x, 3, 0) for x in range(6)], Color.RED)
    for net_id, t in enumerate((t0, t1)):
        tight.commit_route(net_id, sorted(t.vertex_colors.items()))
    tight_report = score(tight, {0: t0, 1: t1}, rules)

    clean = empty_grid(6, 6, ("H",), rules)
    c0 = make_tree([(x, 2, 0) for x in range(6)], Color.RED)
    c1 = make_tree([(x, 3, 0) for x in range(6)], Color.GREEN)
    for net_id, t in enumerate((c0, c1)):
        clean.commit_route(net_id, sorted(t.vertex_colors.items()))
    clean_report = score(clean, {0: c0, 1: c1}, rules)

    assert clean_report.conflicts < tight_report.conflicts
    assert clean_report.stitches <= tight_report.stitches
    assert clean_report.weighted_cost < tight_report.weighted_cost


def test_weighted_cost_recomposable_from_breakdown():
    grid = empty_grid(8, 8, ("H", "V"))
    net = two_pin_net((0, 0, 0), (7, 6, 1))
    grid = register_pins(grid, net)
    tree = route_net(net, grid)
    grid.commit_route(0, sorted(tree.vertex_colors.items()))
    report = score(grid, {0: tree}, grid.rules)
    rules = grid.rules
    recomposed = (
        rules.alpha * sum(n.trad for n in report.per_net)
        + rules.beta * rules.stitch_cost * sum(n.stitches for n in report.per_net)
        + rules.gamma * sum(n.conflicts for n in report.per_net)
    )
    assert report.weighted_cost == pytest.approx(recomposed, rel=1e-9)


def test_score_is_pure():
    grid = empty_grid(6, 6, ("H",))
    net = two_pin_net((0, 0, 0), (5, 5, 0))
    grid = register_pins(grid, net)
    tree = route_net(net, grid)
    grid.commit_route(0, sorted(tree.vertex_colors.items()))
    a = score(grid, {0: tree}, grid.rules)
    b = score(grid, {0: tree}, grid.rules)
    assert report_to_dict(a) == report_to_dict(b)


def test_score_reads_the_scan_the_run_left(monkeypatch):
    # route_all's last detect_conflicts is kept by the grid it returns, and
    # run_baseline keeps the pairs its conflict graph was read from, with
    # their final colors, so score walks no pair after either arm. Seed 6
    # ends with two conflicts after all ten iterations.
    layout = generate_instance(
        seed=6, width=10, height=10, layers=2, num_nets=6, pins_per_net=3,
        congestion=0.5, rules=DesignRules(d_color=3),
    )
    walks = []
    close_pairs = Grid.close_pairs

    def counting(grid, d_color):
        walks.append(d_color)
        return close_pairs(grid, d_color)

    monkeypatch.setattr(Grid, "close_pairs", counting)
    result = route_all(layout)
    assert len(result.final_conflicts) == 2
    walks.clear()
    report = score(result.grid, result.routes, layout.rules)
    assert walks == [] and report.conflict_list == result.final_conflicts
    assert report.conflict_list is not result.final_conflicts
    base = run_baseline(layout)
    walks.clear()
    report = score(base.grid, base.routes, layout.rules)
    assert walks == [] and report.conflicts > 0
    assert report.conflict_list == detect_conflicts(replace(base.grid), layout.rules)


def fake_report(conflicts, stitches=0, weighted=0.0):
    return ScoreReport(conflicts=conflicts, stitches=stitches, weighted_cost=weighted, per_net=[])


def test_compare_percentages():
    rows = compare(fake_report(100), fake_report(20))
    by_metric = {r["metric"]: r for r in rows}
    assert by_metric["conflicts"]["improvement"] == pytest.approx(80.0)


def test_compare_zero_baseline_marker():
    rows = compare(fake_report(0), fake_report(0))
    assert all(r["improvement"] == "zero" for r in rows)


def test_compare_identical_reports():
    rows = compare(fake_report(4, 5, 6.0), fake_report(4, 5, 6.0))
    assert all(r["improvement"] == pytest.approx(0.0) for r in rows)


def test_wall_time_nulled_by_default():
    rep = fake_report(1)
    rep.wall_time_ms = 123.4
    assert report_to_dict(rep)["wall_time_ms"] is None
    assert report_to_dict(rep, include_wall_time=True)["wall_time_ms"] == 123.4
