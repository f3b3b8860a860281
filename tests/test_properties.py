"""Property tests of both arms' invariants over small generated instances.

Every run of route_all or run_baseline either routes or raises
UnroutableError. A routed run commits exactly its route trees, with no
vertex in two nets, on an obstacle or on another net's pin; each tree's
stitches are the recount of its colors; every net's foreign conflict
counts on the final grid, times gamma, equal oracle.conflict_costs (a
scan of the committed map) at every vertex (for the baseline that covers
the recolorings made after routing built the counts). route_all's
reported final conflicts are a fresh scan of the final grid. Two runs of
the same instance give the same result, or the same error.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tplroute import oracle
from tplroute.baseline import run_baseline
from tplroute.generate import InfeasiblePlacementError, generate_instance
from tplroute.layout import DesignRules
from tplroute.negotiation import detect_conflicts, route_all
from tplroute.router import UnroutableError, recount_stitches

draws = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=100_000),
        "width": st.integers(min_value=3, max_value=10),
        "height": st.integers(min_value=3, max_value=10),
        "layers": st.integers(min_value=1, max_value=2),
        "num_nets": st.integers(min_value=1, max_value=6),
        "pins_per_net": st.integers(min_value=2, max_value=4),
        "congestion": st.sampled_from([0.0, 0.3, 0.6, 1.0]),
        "d_color": st.integers(min_value=1, max_value=3),
    }
)


def draw_layout(params):
    shape = {k: v for k, v in params.items() if k != "d_color"}
    return generate_instance(**shape, rules=DesignRules(d_color=params["d_color"]))


def unroutable(exc):
    return (
        "unroutable",
        str(exc),
        exc.net_id,
        exc.remaining_pins,
        sorted(exc.wall.items()),
    )


def check_routed(layout, routes, grid):
    """The invariants a routed run of either arm holds on its trees and grid."""
    owners = {v: net.id for net in layout.nets for pin in net.pins for v in pin.covered_vertices}
    from_trees = {}
    for net_id, tree in routes.items():
        for v, color in tree.vertex_colors.items():
            assert v not in from_trees, f"{v} is in nets {from_trees[v][0]} and {net_id}"
            assert layout.in_bounds(v) and v not in layout.obstacles
            assert owners.get(v, net_id) == net_id, f"net {net_id} runs over a pin of net {owners[v]}"
            from_trees[v] = (net_id, color)
        assert tree.stitches == recount_stitches(tree.vertex_colors)
    assert grid.committed == from_trees
    _, vertices = grid.move_table()
    for net in layout.nets:
        counts = grid.foreign_counts(net.id)
        for vid, v in enumerate(vertices):
            got = tuple(grid.rules.gamma * c[vid] for c in counts)
            assert got == oracle.conflict_costs(grid, grid.rules, v, net.id), (net.id, v)


def trees(routes):
    return sorted(
        (
            net_id,
            tree.paths,
            sorted(tree.vertex_colors.items()),
            tree.stitches,
            sorted(tree.vertex_states.items()),
            tree.total_cost,
        )
        for net_id, tree in routes.items()
    )


def routed_outcome(params):
    """route_all on a fresh draw, its invariants checked, as comparable data."""
    layout = draw_layout(params)
    try:
        result = route_all(layout)
    except UnroutableError as exc:
        return unroutable(exc)
    check_routed(layout, result.routes, result.grid)
    assert result.final_conflicts == detect_conflicts(result.grid, layout.rules)
    return (
        "routed",
        trees(result.routes),
        [(i, it.conflicts, it.stitch_count, it.nets_rerouted) for i, it in enumerate(result.iterations)],
        sorted(result.grid.committed.items()),
        list(result.grid.history),
    )


def baseline_outcome(params):
    """run_baseline on a fresh draw, its invariants checked, as comparable data."""
    layout = draw_layout(params)
    try:
        result = run_baseline(layout)
    except UnroutableError as exc:
        return unroutable(exc)
    check_routed(layout, result.routes, result.grid)
    return (
        "routed",
        trees(result.routes),
        sorted(result.grid.committed.items()),
        result.graph.conflict_edges,
        result.graph.stitch_edges,
        result.decomposition.node_colors,
        list(result.grid.history),
    )


@settings(max_examples=25, deadline=None)
@given(draws)
def test_route_all_invariants_and_determinism(params):
    try:
        first = routed_outcome(params)
    except InfeasiblePlacementError:
        return  # the generator found no free pin spot; nothing to route
    assert routed_outcome(params) == first


@settings(max_examples=25, deadline=None)
@given(draws)
def test_baseline_invariants_and_determinism(params):
    try:
        first = baseline_outcome(params)
    except InfeasiblePlacementError:
        return  # the generator found no free pin spot; nothing to route
    assert baseline_outcome(params) == first
