"""The grid's maintained conflict counts against brute-force scans.

Random sequences of the committed map's two writers (commit, rip-up,
and commit's recolor of a vertex by its owner), dataclasses.replace and
swapping the rules to another d_color, interleaved with count reads,
which build the per-mask counts part-way so later writes must keep them
in step, and with conflict scans, which the grid keeps until its next
write: after every operation a scan equals one of a fresh copy. A toggle
scans, then has an owner recolor one vertex of a close cross-net pair
so that the pair's conflict starts or ends. A commit that lands off the grid,
on an obstacle or on another net's pin or commit must be refused with
nothing written. Afterwards every net's counts, times gamma, equal
oracle.conflict_costs (a scan of the committed entries) at every vertex,
each net's vertex set equals a scan too, and so do its keep-outs
(oracle.usable). The same holds on the final grid of either arm, the
baseline's included, whose recolors pass through commit_route.
"""

import copy
import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instances import commit_or_refusal, congested_layout, empty_grid
from tplroute import oracle
from tplroute.baseline import run_baseline
from tplroute.color_state import COLOR_ORDER
from tplroute.generate import generate_instance
from tplroute.grid import Direction
from tplroute.layout import DesignRules
from tplroute.negotiation import detect_conflicts, route_all
from tplroute.router import route_net

W, H, L = 5, 4, 2
NETS = range(4)

OBSTACLES = {(0, 3, 0), (4, 1, 1)}
PINS = {(3, 0, 0): 1, (1, 2, 1): 2}

# About one write in ten lands one track off the grid, on an obstacle or
# on a pin; commit_route refuses the first two and another net's pin.
ON_GRID = st.tuples(st.integers(0, W - 1), st.integers(0, H - 1), st.integers(0, L - 1))
ODD = st.sampled_from(sorted(OBSTACLES | PINS.keys()) + [(W, 1, 0), (0, -1, 1)])
written = st.integers(0, 9).flatmap(lambda k: ODD if k == 0 else ON_GRID)
nets = st.sampled_from(NETS)
colors = st.sampled_from(COLOR_ORDER)


def _geometry_grid(rules):
    """A W x H x 2 grid with OBSTACLES and PINS."""
    return replace(empty_grid(W, H, ("H", "V"), rules, obstacles=OBSTACLES), pin_owners=PINS)


COMMIT = st.tuples(st.just("commit"), nets, st.lists(st.tuples(written, colors), max_size=5))
TOGGLE = st.tuples(st.just("toggle"), st.integers(0, 99))
OPS = st.one_of(
    COMMIT,
    st.tuples(st.just("rip_up"), nets),
    st.tuples(st.just("recolor"), st.integers(0, 99), colors),
    st.tuples(st.just("replace"), st.booleans()),
    st.tuples(st.just("d_color"), st.integers(1, 3)),
    st.tuples(st.just("read"), nets),
    st.tuples(st.just("detect"), st.sampled_from([1, 2, 3, 10**6])),
    TOGGLE,
)
# The kept-scan test draws longer sequences: half toggles, a quarter
# on-grid commits and a quarter any op, so that about half of them reach
# close cross-net pairs and have their owners recolor them while a scan
# is kept.
PLACE = st.tuples(st.just("commit"), nets, st.lists(st.tuples(ON_GRID, colors), min_size=1, max_size=5))
SCAN_OPS = st.integers(0, 3).flatmap(lambda k: OPS if k == 0 else PLACE if k == 1 else TOGGLE)


def apply(grid, op):
    kind, *args = op
    committed = grid.committed
    if kind == "commit":
        commit_or_refusal(grid, *args)
    elif kind == "rip_up":
        grid.rip_up(*args)
    elif kind == "recolor":
        # The owner recolors one of the committed vertices, picked by index.
        i, color = args
        if committed:
            v = sorted(committed)[i % len(committed)]
            grid.commit_route(committed[v][0], [(v, color)])
    elif kind == "replace":
        # Passed in or not, the map is copied: the two grids never share it.
        new = replace(grid, committed=committed) if args[0] else replace(grid)
        assert new.committed == committed and new.committed is not committed
        grid = new
    elif kind == "d_color":
        grid.rules = replace(grid.rules, d_color=args[0])
    elif kind == "read":
        grid.foreign_counts(*args)
    elif kind == "detect":
        # Keeps a scan in the grid's slot, at a d_color the rules may not hold.
        detect_conflicts(grid, replace(grid.rules, d_color=args[0]))
    elif kind == "toggle":
        # Keeps a scan at the rules' d_color, then the owner of a close
        # pair's first vertex, picked by index, gives it the other vertex's
        # color, or the next one if the two already match.
        detect_conflicts(grid, grid.rules)
        pairs = sorted(grid.close_pairs(grid.rules.d_color), key=lambda pair: pair[:2])
        if pairs:
            a, _, _, (net_a, color_a), (_, color_b) = pairs[args[0] % len(pairs)]
            color = color_b if color_a != color_b else COLOR_ORDER[(COLOR_ORDER.index(color_a) + 1) % 3]
            grid.commit_route(net_a, [(a, color)])
    return grid


def assert_indexes_match(grid, net_ids=(*NETS, 99)):
    _, vertices = grid.move_table()
    for net_id in net_ids:
        assert grid._owned.get(net_id, set()) == {v for v, (n, _) in grid.committed.items() if n == net_id}
        assert grid.keep_outs(net_id) == [math.inf if oracle.usable(grid, v, net_id) else -math.inf for v in vertices]
    gamma = grid.rules.gamma
    for net_id in net_ids:
        counts = grid.foreign_counts(net_id)
        for vid, v in enumerate(vertices):
            got = tuple(gamma * c[vid] for c in counts)
            assert got == oracle.conflict_costs(grid, grid.rules, v, net_id), (v, net_id)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.lists(OPS, max_size=25))
def test_indexes_follow_every_mutation(d_color, ops):
    grid = _geometry_grid(DesignRules(d_color=d_color, gamma=3.0))
    for op in ops:
        grid = apply(grid, op)
    assert_indexes_match(grid)


def assert_scan_is_fresh(grid):
    # A grid made by dataclasses.replace starts with no scan kept.
    assert detect_conflicts(grid, grid.rules) == detect_conflicts(replace(grid), grid.rules)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3), st.lists(SCAN_OPS, min_size=10, max_size=40))
def test_kept_scan_follows_every_mutation(d_color, ops):
    # Every check keeps a scan at the rules' d_color, so the next write
    # must clear it; a detect op keeps one at some other d_color.
    grid = _geometry_grid(DesignRules(d_color=d_color, gamma=3.0))
    for op in ops:
        grid = apply(grid, op)
        assert_scan_is_fresh(grid)


def test_kept_scan_is_cleared_by_each_writer():
    # Red commits of nets 1 and 2, two tracks apart, conflict at d_color 3
    # and not at 2. A same-net recolor ends the conflict, a recolor back
    # restores it, the d_color swaps drop and restore it, a rip-up ends it.
    grid = _geometry_grid(DesignRules(d_color=3))
    red, green = COLOR_ORDER[0], COLOR_ORDER[1]
    grid.commit_route(1, [((1, 1, 0), red)])
    grid.commit_route(2, [((3, 1, 0), red)])
    steps = [
        lambda g: None,
        lambda g: g.commit_route(2, [((3, 1, 0), green)]),
        lambda g: g.commit_route(2, [((3, 1, 0), red)]),
        lambda g: setattr(g, "rules", replace(g.rules, d_color=2)),
        lambda g: setattr(g, "rules", replace(g.rules, d_color=3)),
        lambda g: g.rip_up(1),
    ]
    seen = []
    for step in steps:
        step(grid)
        assert_scan_is_fresh(grid)
        seen.append(len(detect_conflicts(grid, grid.rules)))
    assert seen == [1, 0, 1, 0, 1, 0]
    grid.commit_route(1, [((1, 1, 0), red)])
    found = detect_conflicts(grid, grid.rules)
    found.clear()  # each call hands out its own list
    assert len(detect_conflicts(grid, grid.rules)) == 1


def test_copies_rebuild_the_indexes():
    # Counts, vertex sets and the keep-out template, with net 1's commits
    # on its own pin, which stays a keep-out for the others after rip-up.
    grid = _geometry_grid(DesignRules(d_color=3))
    grid.commit_route(1, [((1, 1, 0), COLOR_ORDER[0]), ((2, 1, 0), COLOR_ORDER[1]), ((3, 0, 0), COLOR_ORDER[1])])
    grid.commit_route(2, [((3, 2, 1), COLOR_ORDER[2])])
    grid.foreign_counts(0)  # build the counts
    for clone in (copy.deepcopy(grid), pickle.loads(pickle.dumps(grid)), replace(grid)):
        assert clone.committed == grid.committed
        assert clone.obstacles == grid.obstacles and clone.pin_owners == grid.pin_owners
        assert_indexes_match(clone)
        clone.rip_up(1)
        assert_indexes_match(clone)
    assert {v for v, (n, _) in grid.committed.items() if n == 1} == {(1, 1, 0), (2, 1, 0), (3, 0, 0)}
    assert_indexes_match(grid)


def _arm_draws():
    """Three 12x12x2 congested draws and three 8x8x2 generated ones, at d_color 1, 2 and 3."""
    for seed, d_color in ((0, 1), (1, 2), (2, 3)):
        layout = congested_layout(seed)
        yield replace(layout, rules=replace(layout.rules, d_color=d_color))
    for seed, d_color in ((5, 1), (6, 2), (7, 3)):
        yield generate_instance(
            seed=seed, width=8, height=8, layers=2, num_nets=5, pins_per_net=3,
            congestion=0.5, rules=DesignRules(d_color=d_color),
        )


@pytest.mark.parametrize("arm", [route_all, run_baseline], ids=["route_all", "run_baseline"])
def test_both_arms_leave_coherent_indexes(arm):
    # route_all's searches build the counts and its writes keep them in step;
    # the baseline's colorless searches never read them, so they are first
    # built here, after its recolors. Either way they match the scans, as do
    # each net's vertex set and keep-outs.
    for layout in _arm_draws():
        assert_indexes_match(arm(layout).grid, [net.id for net in layout.nets] + [99])


def test_replace_keeps_its_own_history():
    # A grid made by dataclasses.replace copies the history list, as it
    # copies committed: history added on either grid stays on that grid.
    grid = empty_grid(4, 4, ("H",))
    grid.add_history((2, 2, 0), 3.0)
    clone = replace(grid, obstacles={(0, 0, 0)})
    assert clone.history == grid.history and clone.history is not grid.history
    clone.add_history((1, 1, 0), 10.0)
    grid.add_history((3, 3, 0), 5.0)
    assert clone.history[clone.vid((1, 1, 0))] == 10.0 and clone.history[clone.vid((3, 3, 0))] == 0.0
    assert grid.history[grid.vid((1, 1, 0))] == 0.0 and grid.history[grid.vid((2, 2, 0))] == 3.0


def test_off_grid_reads_raise():
    # Edges leaving the grid: past each side of a layer, and above the top or
    # below the bottom layer. The last three start off the grid and would
    # land on it: a layer index of -1 or L must not wrap or overrun.
    grid = empty_grid(W, H, ("H", "V"))
    grid.commit_route(1, [((0, 0, 0), COLOR_ORDER[0])])
    edges = [
        ((0, 0, 0), Direction.B), ((W - 1, 0, 0), Direction.F), ((0, H - 1, 0), Direction.R),
        ((0, 0, 1), Direction.B), ((0, 0, 1), Direction.U), ((0, 0, 0), Direction.D),
        ((0, 0, -1), Direction.U), ((0, 0, L), Direction.D), ((-1, 0, 0), Direction.F),
    ]
    for v, direction in edges:
        with pytest.raises(ValueError):
            grid.color_cost(v, direction, COLOR_ORDER[0], 0)


def test_rip_up_leaves_other_nets():
    grid = empty_grid(W, H, ("H",))
    grid.commit_route(1, [((0, 0, 0), COLOR_ORDER[0]), ((1, 0, 0), COLOR_ORDER[0])])
    grid.commit_route(2, [((3, 0, 0), COLOR_ORDER[1])])
    grid.rip_up(1)
    assert grid.committed == {(3, 0, 0): (2, COLOR_ORDER[1])}
    assert grid._owned.get(1, set()) == set()


def test_route_net_ignores_the_nets_own_commits():
    # route_batch rips a net up before routing it; a caller that does not
    # must get the same tree, since only foreign commits cost anything.
    layout = generate_instance(
        seed=4, width=10, height=10, layers=2, num_nets=5, pins_per_net=3,
        congestion=0.5, rules=DesignRules(d_color=3),
    )
    grid = route_all(layout).grid
    for net in layout.nets:
        saved = {v: entry for v, entry in grid.committed.items() if entry[0] == net.id}
        assert saved
        with_own = route_net(net, grid)
        grid.rip_up(net.id)
        assert route_net(net, grid) == with_own
        grid.commit_route(net.id, [(v, c) for v, (_, c) in sorted(saved.items())])
