"""The grid's maintained conflict counts against brute-force scans.

Random sequences of the committed map's three writers (commit, rip-up,
recolor), dataclasses.replace and swapping the rules to another d_color,
interleaved with count reads, which build the per-mask counts part-way
so later writes must keep them in step. A commit that lands off the grid,
on an obstacle or on another net's pin or commit must be refused with
nothing written. Afterwards every net's counts, times gamma, equal
oracle.conflict_costs (a scan of the committed entries) at every vertex,
each net's vertex set equals a scan too, and so do its keep-outs
(oracle.usable).
"""

import copy
import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instances import commit_or_refusal, empty_grid
from tplroute import oracle
from tplroute.color_state import COLOR_ORDER
from tplroute.generate import generate_instance
from tplroute.grid import Direction
from tplroute.layout import DesignRules
from tplroute.negotiation import route_all
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

PROBES = [(x, y, l) for l in range(L) for y in range(H) for x in range(W)]


def _geometry_grid(rules):
    """A W x H x 2 grid with OBSTACLES and PINS."""
    return replace(empty_grid(W, H, ("H", "V"), rules, obstacles=OBSTACLES), pin_owners=PINS)


OPS = st.one_of(
    st.tuples(st.just("commit"), nets, st.lists(st.tuples(written, colors), max_size=5)),
    st.tuples(st.just("rip_up"), nets),
    st.tuples(st.just("recolor"), written, colors),
    st.tuples(st.just("replace"), st.booleans()),
    st.tuples(st.just("d_color"), st.integers(1, 3)),
    st.tuples(st.just("read"), nets),
)


def apply(grid, op):
    kind, *args = op
    committed = grid.committed
    if kind == "commit":
        commit_or_refusal(grid, *args)
    elif kind == "rip_up":
        grid.rip_up(*args)
    elif kind == "recolor":
        if args[0] in committed:
            grid.recolor_vertex(*args)
    elif kind == "replace":
        # Passed in or not, the map is copied: the two grids never share it.
        new = replace(grid, committed=committed) if args[0] else replace(grid)
        assert new.committed == committed and new.committed is not committed
        grid = new
    elif kind == "d_color":
        grid.rules = replace(grid.rules, d_color=args[0])
    elif kind == "read":
        grid.foreign_counts(*args)
    return grid


def assert_indexes_match(grid):
    for net_id in [*NETS, 99]:
        assert grid.net_vertices(net_id) == {v for v, (n, _) in grid.committed.items() if n == net_id}
        assert grid.keep_outs(net_id) == [math.inf if oracle.usable(grid, v, net_id) else -math.inf for v in PROBES]
    gamma = grid.rules.gamma
    for net_id in [*NETS, 99]:
        counts = grid.foreign_counts(net_id)
        for v in PROBES:
            got = tuple(gamma * c[grid.vid(v)] for c in counts)
            assert got == oracle.conflict_costs(grid, grid.rules, v, net_id), (v, net_id)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.lists(OPS, max_size=25))
def test_indexes_follow_every_mutation(d_color, ops):
    grid = _geometry_grid(DesignRules(d_color=d_color, gamma=3.0))
    for op in ops:
        grid = apply(grid, op)
    assert_indexes_match(grid)


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
    assert grid.net_vertices(1) == {(1, 1, 0), (2, 1, 0), (3, 0, 0)}
    assert_indexes_match(grid)


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
    assert grid.net_vertices(1) == set()


def test_route_net_ignores_the_nets_own_commits():
    # route_batch rips a net up before routing it; a caller that does not
    # must get the same tree, since only foreign commits cost anything.
    layout = generate_instance(
        seed=4, width=10, height=10, layers=2, num_nets=5, pins_per_net=3,
        congestion=0.5, rules=DesignRules(d_color=3),
    )
    grid = route_all(layout).grid
    for net in layout.nets:
        assert grid.net_vertices(net.id)
        with_own = route_net(net, grid)
        saved = {v: grid.committed[v] for v in grid.net_vertices(net.id)}
        grid.rip_up(net.id)
        assert route_net(net, grid) == with_own
        grid.commit_route(net.id, [(v, c) for v, (_, c) in sorted(saved.items())])
