"""The bound on a net's last connection drops labels, never a route.

router._last_pin_bound arms color_state_search while one pin of the net
is left: a popped label with cost + h over U, the least cost of a label
at that pin, is not relaxed. Patching the helper to return None gives the
unbounded search, as the tests below do.
"""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from instances import baseline_text, grid_text, route_text, routes_text, watch_search
from tplroute import oracle, router
from tplroute.generate import InfeasiblePlacementError, generate_instance
from tplroute.grid import Grid
from tplroute.layout import DesignRules
from tplroute.negotiation import net_order_key
from tplroute.router import SearchExhaustedError, SolutionQueue, UnroutableError, route_net

LAST_PIN_BOUND = router._last_pin_bound


def router_h(bound, alpha, vertex):
    """The search's h(vertex), from the gaps _last_pin_bound returns."""
    _, (gap_x, gap_y, gap_l), _ = bound
    x, y, l = vertex
    return alpha * (gap_x[x] + gap_y[y] + gap_l[l])


def drawn_layout(seed, layers, rules, guided, spread_pins):
    """A generated 8x8 draw, with guide boxes and two-layer last pins when asked.

    A spread pin also covers the vertex above or below its own and that
    vertex's +x neighbour, where they are free, so its box spans two
    layers and two columns.
    """
    try:
        layout = generate_instance(
            seed=seed, width=8, height=8, layers=layers, num_nets=5, pins_per_net=3,
            congestion=0.5, rules=rules,
        )
    except InfeasiblePlacementError:
        return None
    if guided:
        for net in layout.nets:
            xs = [v[0] for p in net.pins for v in p.covered_vertices]
            ys = [v[1] for p in net.pins for v in p.covered_vertices]
            net.guide = [(0, min(xs), min(ys), max(xs), max(ys))]
    if spread_pins and layers > 1:
        taken = set(layout.obstacles) | {v for net in layout.nets for p in net.pins for v in p.covered_vertices}
        for net in layout.nets:
            pin = net.pins[-1]
            x, y, l = pin.covered_vertices[0]
            other = l + 1 if l + 1 < layers else l - 1
            for v in ((x, y, other), (x + 1, y, other)):
                if layout.in_bounds(v) and v not in taken:
                    pin.covered_vertices.append(v)
                    taken.add(v)
    return layout


def two_pin_text(layout):
    """Every net routed alone in net order in two-pin mode and committed, as text."""
    grid = Grid.from_layout(layout)
    routes, lines = {}, []
    for net in sorted(layout.nets, key=net_order_key):
        try:
            routes[net.id] = tree = route_net(net, grid, two_pin_mode=True)
        except UnroutableError as exc:
            lines.append(f"UnroutableError {exc}")
            continue
        grid.commit_route(net.id, sorted(tree.vertex_colors.items()))
    return "\n".join(routes_text(routes) + grid_text(grid) + lines)


def searches_of(run, layout, bounded):
    """run(layout) and, per search, its bound, its returned label, its pops and its accepts.

    The bound is the one _last_pin_bound gives at the search's start,
    recorded whether or not the search is allowed to use it. Accepts are
    the labels the search itself accepts, not the sources and re-seeds
    inserted between searches.
    """
    searches, running = [], []
    search = router.color_state_search

    def fields(queue, label):
        cost, vid, dir_key, _, state, prev = label
        return cost, queue.vertices[vid], int(dir_key), state, None if prev is None else queue.vertices[prev[1]]

    def recording_search(queue):
        record = {"bound": LAST_PIN_BOUND(queue), "queue": queue, "pops": [], "accepts": [], "found": None}
        searches.append(record)
        running.append(record)
        try:
            found = search(queue)
        finally:
            running.clear()
        record["found"] = fields(queue, found)
        return found

    def watch(key):
        def on_event(label):
            for record in running:
                record[key].append(fields(record["queue"], label))

        return on_event

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(router, "color_state_search", recording_search)
        if not bounded:
            mp.setattr(router, "_last_pin_bound", lambda queue: None)
        watch_search(mp, on_pop=watch("pops"), on_accept=watch("accepts"))
        text = run(layout)
    return text, searches


def within(record, key):
    """The search's pops or accepts with cost + h at most its returned cost (all, when unbounded or exhausted)."""
    bound, found = record["bound"], record["found"]
    if bound is None or found is None:
        return record[key]
    alpha = record["queue"].rules.alpha
    return [label for label in record[key] if label[0] + router_h(bound, alpha, label[1]) <= found[0]]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    layers=st.integers(1, 3),
    d_color=st.integers(1, 3),
    alpha=st.sampled_from([0.0, 1e-300, 0.1, 1 / 3, 1.0, 2.5]),
    via_cost=st.sampled_from([0.0, 0.7, 4.0]),
    wrong_way_cost=st.sampled_from([0.0, 0.3, 2.0]),
    stitch_cost=st.sampled_from([0.0, 1.5, 5.0]),
    gamma=st.sampled_from([0.0, 0.25, 50.0]),
    guided=st.booleans(),
    spread_pins=st.booleans(),
    two_pin_mode=st.booleans(),
)
def test_bound_keeps_routes_and_the_pops_that_matter(
    seed, layers, d_color, alpha, via_cost, wrong_way_cost, stitch_cost, gamma, guided, spread_pins, two_pin_mode
):
    # Route trees, iteration rows and committed grids equal the unbounded
    # run's. In every search, the pops and the accepted labels with cost + h
    # at most the returned cost equal the unbounded run's in content and
    # order, and the same label is returned. An unbounded rival the bounded
    # search never made has cost + h over U, so it costs more than such a
    # label at its vertex and cannot have dominated it.
    rules = DesignRules(
        d_color=d_color, alpha=alpha, via_cost=via_cost, wrong_way_cost=wrong_way_cost,
        stitch_cost=stitch_cost, gamma=gamma,
    )
    assume(drawn_layout(seed, layers, rules, guided, spread_pins) is not None)
    runs = (two_pin_text,) if two_pin_mode else (route_text, baseline_text)
    for run in runs:
        got = searches_of(run, drawn_layout(seed, layers, rules, guided, spread_pins), bounded=True)
        want = searches_of(run, drawn_layout(seed, layers, rules, guided, spread_pins), bounded=False)
        assert got[0] == want[0]
        assert len(got[1]) == len(want[1])
        for bounded, unbounded in zip(got[1], want[1]):
            assert bounded["found"] == unbounded["found"]
            assert bounded["bound"] == unbounded["bound"]
            assert within(bounded, "pops") == within(unbounded, "pops")
            assert within(bounded, "accepts") == within(unbounded, "accepts")
            if bounded["bound"] is None:
                assert bounded["pops"] == unbounded["pops"]
                assert bounded["accepts"] == unbounded["accepts"]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    layers=st.integers(1, 3),
    via_cost=st.sampled_from([0.0, 0.7, 4.0]),
    alpha=st.sampled_from([1e-300, 0.1, 1 / 3, 1.0, 2.5]),
    spread_pins=st.booleans(),
)
def test_router_h_is_the_oracle_bound_into_the_pin_box(seed, layers, via_cost, alpha, spread_pins):
    # h never exceeds alpha times oracle.remaining_lb to the pin's vertices,
    # and equals it for a one-vertex pin. The bound is armed only for the
    # last pin and a normal alpha, and U is the least cost of a live label
    # there.
    rules = DesignRules(alpha=alpha, via_cost=via_cost)
    layout = drawn_layout(seed, layers, rules, False, spread_pins)
    assume(layout is not None)
    grid = Grid.from_layout(layout)
    net = layout.nets[0]
    queue = SolutionQueue(grid, net)
    assert LAST_PIN_BOUND(queue) is None  # two pins left
    queue.connected.add(1)
    for cost, state in router._seed_labels(queue, net.pins[0].covered_vertices[0]):
        queue.source(net.pins[0].covered_vertices[0], cost, state)
    try:
        router.color_state_search(queue)
    except SearchExhaustedError:
        pass
    bound = LAST_PIN_BOUND(queue)
    targets = net.pins[2].covered_vertices
    assert bound[0] == {grid.vid(v) for v in targets}
    held = [label[0] for v in targets for label in queue.live[grid.vid(v)] or ()]
    assert bound[2] == min(held, default=float("inf"))
    for vertex in queue.vertices:
        h, lb = router_h(bound, alpha, vertex), alpha * oracle.remaining_lb(rules, vertex, targets)
        assert h <= lb
        if len(targets) == 1:
            assert h == lb
    queue.rules = replace(rules, alpha=0.0)
    assert LAST_PIN_BOUND(queue) is None  # h is 0 at alpha 0
    queue.rules = replace(rules, alpha=5e-324)
    assert LAST_PIN_BOUND(queue) is None  # a subnormal alpha rounds absolutely


def test_bound_drops_accepted_labels_on_a_desk_draw(monkeypatch):
    # On desk's first draw the bounded router arm accepts fewer labels and
    # pops fewer than the unbounded one, and routes the same.
    def count(bounded):
        layout = generate_instance(seed=0, width=12, height=12, layers=2, num_nets=8, pins_per_net=4, congestion=0.6)
        pops, accepts = [], []
        with pytest.MonkeyPatch.context() as mp:
            if not bounded:
                mp.setattr(router, "_last_pin_bound", lambda queue: None)
            watch_search(mp, on_pop=pops.append, on_accept=accepts.append)
            text = route_text(layout)
        return text, len(pops), len(accepts)

    bounded, unbounded = count(True), count(False)
    assert bounded[0] == unbounded[0]
    assert bounded[1] < unbounded[1] and bounded[2] < unbounded[2]
