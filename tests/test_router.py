import heapq
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instances import (
    commit_or_refusal,
    empty_grid,
    oracle_instance,
    pressure_instance,
    register_pins,
    two_pin_net,
    watch_search,
)
from tplroute import oracle, router
from tplroute.baseline import run_baseline
from tplroute.color_state import COLOR_ORDER, Color, cardinality, pick_final
from tplroute.grid import VIA_DIRECTIONS, CollisionError, Direction, Grid
from tplroute.generate import InfeasiblePlacementError, generate_instance
from tplroute.layout import DesignRules, Layout, Net, Pin, layout_from_dict, layout_to_dict
from tplroute.negotiation import net_order_key, route_all
from tplroute.router import (
    SearchExhaustedError,
    SolutionQueue,
    UnroutableError,
    _TreeBuilder,
    backtrace,
    color_state_search,
    recount_stitches,
    route_net,
)


def independent_stitch_recount(vertex_colors):
    """O(n^2) literal recount, separate from the router's implementation."""
    vs = sorted(vertex_colors)
    count = []
    for i, a in enumerate(vs):
        for b in vs[i + 1 :]:
            if a[2] == b[2] and abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1:
                if vertex_colors[a] != vertex_colors[b]:
                    count.append(tuple(sorted((a, b))))
    return sorted(count)


def test_single_pin_net_empty_tree():
    grid = empty_grid(4, 4, ("H",))
    net = Net(id=0, name="n", pins=[Pin([(1, 1, 0)])])
    tree = route_net(net, grid)
    assert tree.paths == []
    assert tree.vertex_colors == {}
    assert tree.stitches == []
    assert tree.total_cost == 0.0


def test_net_without_pins_rejected():
    with pytest.raises(ValueError, match="net 0 has no pins"):
        route_net(Net(id=0, name="n", pins=[]), empty_grid(4, 4, ("H",)))


def test_straight_two_pin_route():
    grid = empty_grid(5, 1, ("H",))
    net = two_pin_net((0, 0, 0), (4, 0, 0))
    grid = register_pins(grid, net)
    tree = route_net(net, grid)
    assert tree.paths == [[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)]]
    assert tree.total_cost == 4.0 * grid.rules.alpha
    assert len(set(tree.vertex_colors.values())) == 1
    assert tree.stitches == []


def test_multi_vertex_pin_covers():
    # start from whichever cover vertex wins; stop at any vertex of the target cover
    grid = empty_grid(7, 3, ("H",))
    net = Net(id=0, name="n", pins=[
        Pin([(0, 0, 0), (0, 2, 0)]),
        Pin([(6, 0, 0), (6, 1, 0), (6, 2, 0)]),
    ])
    grid = register_pins(grid, net)
    tree = route_net(net, grid)
    path = tree.paths[0]
    assert path[0] in {(0, 0, 0), (0, 2, 0)}
    assert path[-1] in {(6, 0, 0), (6, 1, 0), (6, 2, 0)}
    assert tree.total_cost == pytest.approx(6.0)


def test_three_pin_second_path_starts_on_tree():
    grid = empty_grid(7, 5, ("H",))
    net = Net(id=0, name="n", pins=[
        Pin([(0, 2, 0)]), Pin([(6, 2, 0)]), Pin([(3, 4, 0)]),
    ])
    grid = register_pins(grid, net)
    tree = route_net(net, grid)
    assert len(tree.paths) == 2
    assert tree.paths[1][0] in set(tree.paths[0])
    assert tree.paths[1][0] != (0, 2, 0)


def test_conflict_zone_excludes_red_from_states():
    rules = DesignRules()
    grid = empty_grid(7, 3, ("H",), rules)
    for x in range(2, 5):
        grid.commit_route(900, [((x, 0, 0), Color.RED)])
    net = two_pin_net((0, 1, 0), (6, 1, 0))
    grid = register_pins(grid, net)
    tree = route_net(net, grid)
    for v, state in tree.vertex_states.items():
        if v[1] == 1 and 2 <= v[0] <= 4 and v != (0, 1, 0):
            assert not state & Color.RED, f"RED allowed at {v} inside the conflict zone"
    assert all(c != Color.RED for v, c in tree.vertex_colors.items() if 2 <= v[0] <= 4 and v[1] == 1)


def test_forced_stitch_corridor_matches_oracle():
    rules = DesignRules()
    grid = empty_grid(7, 3, ("H",), rules)
    for x in (0, 1, 2):
        grid.commit_route(900, [((x, 0, 0), Color.RED)])
        grid.commit_route(901, [((x, 2, 0), Color.RED)])
    for x in (4, 5, 6):
        grid.commit_route(902, [((x, 0, 0), Color.GREEN)])
        grid.commit_route(903, [((x, 2, 0), Color.BLUE)])
    net = two_pin_net((0, 1, 0), (6, 1, 0))
    grid = register_pins(grid, net)
    tree = route_net(net, grid)
    assert len(tree.stitches) == 1
    best = oracle.optimal_colored_path(grid, {(0, 1, 0)}, {(6, 1, 0)}, rules, net_id=0)
    assert tree.total_cost == pytest.approx(best.best_cost, rel=1e-12)
    # 6 unit moves plus one stitch, no conflict paid
    assert tree.total_cost == pytest.approx(6.0 + rules.beta * rules.stitch_cost)


class TestBacktraceSegSets:
    """Drive backtrace over synthetic label chains."""

    def _run_chain(self, states):
        grid = empty_grid(len(states), 1, ("H",))
        net = two_pin_net((0, 0, 0), (len(states) - 1, 0, 0))
        queue = SolutionQueue(grid, net)
        label = None
        for i, state in enumerate(states):
            arrival = -1 if label is None else Direction.F
            label = (float(i), grid.vid((i, 0, 0)), arrival, i, state, label)
        tree = _TreeBuilder()
        path = [queue.vertices[vid] for vid in backtrace(queue, label, tree)]
        live = [s for s in tree.segsets if s.members]
        return path, tree, live, queue.vertices

    def test_overlapping_states_narrow_to_single_segset(self):
        # prefix 110, suffix 011: one segSet narrowed to 010, no stitch
        path, tree, segs, _ = self._run_chain([0b111, 0b110, 0b110, 0b011, 0b011])
        assert len(segs) == 1
        assert segs[0].state == 0b010
        assert path == [(i, 0, 0) for i in range(5)]

    def test_disjoint_states_split_segsets(self):
        # prefix 100, suffix 011: two segSets, stitch at the boundary
        _, tree, segs, _ = self._run_chain([0b111, 0b100, 0b100, 0b011, 0b011])
        assert len(segs) == 2
        states = sorted(s.state for s in segs)
        assert states == [0b011, 0b100]

    def test_uniform_states_single_verset(self):
        _, tree, segs, vertices = self._run_chain([0b111, 0b111, 0b111])
        assert len(segs) == 1
        # one verSet: every member carries the same traced state
        assert sorted(vertices[vid] for vid in segs[0].members) == [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        assert {tree.vertex_states[vid] for vid in segs[0].members} == {0b111}
        assert segs[0].state == 0b111

    def test_reseeded_nodes_pushed_at_zero_cost(self):
        # the terminal source already holds its 0-label; the walked chain
        # (b, c) is re-inserted at cost 0 for the next search
        grid = empty_grid(3, 1, ("H",))
        net = two_pin_net((0, 0, 0), (2, 0, 0))
        queue = SolutionQueue(grid, net)
        assert queue.source((0, 0, 0), 0.0, 0b111)
        (a,) = queue.labels[grid.vid((0, 0, 0))]
        b = (1.0, grid.vid((1, 0, 0)), Direction.F, 100, 0b111, a)
        c = (2.0, grid.vid((2, 0, 0)), Direction.F, 101, 0b111, b)
        backtrace(queue, c, _TreeBuilder())
        reseeded = {
            queue.vertices[vid]
            for bucket in queue.labels.values()
            for cost, vid, arrival, _, _, prev in bucket
            if cost == 0.0 and arrival == -1 and prev is None
        }
        assert reseeded == {(0, 0, 0), (1, 0, 0), (2, 0, 0)}

    def test_path_to_an_earlier_pin_connects_a_later_pin_it_crosses(self):
        # Pin 1 sits at the path's end and pin 2 on its way: backtrace marks
        # every pin the traced vertex ids cover, not only the one reached.
        grid = empty_grid(5, 1, ("H",))
        net = Net(id=0, name="n", pins=[Pin([(0, 0, 0)]), Pin([(4, 0, 0)]), Pin([(2, 0, 0)])])
        grid = register_pins(grid, net)
        queue = SolutionQueue(grid, net)
        label = None
        for x in range(5):
            label = (float(x), grid.vid((x, 0, 0)), Direction.F if label else -1, 100 + x, 0b111, label)
        assert queue.connected == {0}
        backtrace(queue, label, _TreeBuilder())
        assert queue.connected == {0, 1, 2}


COST, STATE = 0, 4  # fields of a label tuple


def record_pops(monkeypatch, field):
    """Collect one field of every label the search pops."""
    seen = []
    watch_search(monkeypatch, on_pop=lambda label: seen.append(label[field]))
    return seen


def test_queue_monotone_pops(monkeypatch):
    pops = record_pops(monkeypatch, COST)
    grid = empty_grid(6, 6, ("H", "V"))
    net = two_pin_net((0, 0, 0), (5, 5, 1))
    grid = register_pins(grid, net)
    route_net(net, grid)
    assert pops
    # re-seeded zero-cost sources arrive between searches; within a run
    # costs never decrease except at those restarts
    drops = [i for i in range(1, len(pops)) if pops[i] < pops[i - 1]]
    assert all(pops[i] == 0.0 for i in drops)


def test_queue_never_holds_dead_states(monkeypatch):
    collected = record_pops(monkeypatch, STATE)
    grid = empty_grid(5, 5, ("H",))
    net = two_pin_net((0, 0, 0), (4, 4, 0))
    grid = register_pins(grid, net)
    route_net(net, grid)
    assert collected
    assert all(s != 0 for s in collected)


def assert_live_is_membership(queue, accepted, pruned):
    """No pruned label is in its vertex's live list, and every accepted unpruned one is."""
    assert not hasattr(queue, "dead")
    for label in accepted:
        held = queue.live[label[1]]
        assert any(ex is label for ex in held) == (label[3] not in pruned), label


def _reference_insert(buckets, pruned, label):
    """Two-pass Pareto insert: reject if dominated, else prune and append.

    The seq of every label pruned goes into pruned.
    """
    cost, vid, _, _, state, _ = label
    bucket = buckets.setdefault(vid, [])
    if any(ex[0] <= cost and ex[4] & state == state for ex in bucket):
        return False
    pruned.update(ex[3] for ex in bucket if cost <= ex[0] and state & ex[4] == ex[4])
    bucket[:] = [ex for ex in bucket if ex[3] not in pruned]
    bucket.append(label)
    return True


LABEL_DRAWS = st.tuples(
    st.sampled_from([(0, 0, 0), (1, 0, 0), (2, 1, 0)]),
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
    st.integers(1, 0b111),
    st.sampled_from([-1, Direction.F, Direction.B, Direction.U]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(LABEL_DRAWS, max_size=40))
def test_insert_matches_two_pass_reference(inserts):
    grid = empty_grid(3, 2, ("H",))
    queue = SolutionQueue(grid, two_pin_net((0, 0, 0), (2, 1, 0)))
    reference, pruned, accepted = {}, set(), []
    for seq, (vertex, cost, state, arrival) in enumerate(inserts):
        label = (cost, grid.vid(vertex), arrival, seq, state, None)
        if queue.insert(label):
            accepted.append(label)
            assert _reference_insert(reference, pruned, label)
        else:
            assert not _reference_insert(reference, pruned, label)
        assert queue.labels == {k: bucket for k, bucket in reference.items() if bucket}
        assert_live_is_membership(queue, accepted, pruned)
        for k in range(grid.width * grid.height):
            full = [ex[0] for ex in reference.get(k, []) if ex[4] == 0b111]
            assert queue.settled[k] == min(full, default=float("inf"))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(LABEL_DRAWS, st.just("pop")), max_size=60))
def test_pop_skips_pruned_and_never_repeats(ops):
    # Interleaved inserts and pops, then a drain: every pop hands out the
    # least label, in heap order, among the accepted labels neither pruned
    # nor popped yet, and the drain ends once none is left.
    grid = empty_grid(3, 2, ("H",))
    queue = SolutionQueue(grid, two_pin_net((0, 0, 0), (2, 1, 0)))
    accepted, popped, reference, pruned = [], set(), {}, set()
    for seq, op in enumerate(ops + ["pop"] * (len(ops) + 1)):
        if op != "pop":
            vertex, cost, state, arrival = op
            label = (cost, grid.vid(vertex), arrival, seq, state, None)
            verdict = queue.insert(label)
            assert verdict == _reference_insert(reference, pruned, label)
            if verdict:
                accepted.append(label)
            continue
        assert_live_is_membership(queue, accepted, pruned)
        waiting = [ex for ex in accepted if ex[3] not in pruned and ex[3] not in popped]
        label = queue.pop()
        if not waiting:
            assert label is None
            continue
        assert label[3] not in pruned, "popped a pruned label"
        assert label[3] not in popped, "popped a label twice"
        assert label is min(waiting)
        popped.add(label[3])
    assert queue.pop() is None


def _search_instance(seed):
    """A <= 6x6x2 grid with obstacles, foreign pins and commits, history,
    an own commit and a guide, and a two-pin net on it."""
    rng = random.Random(seed)
    width, height, layers = rng.randint(2, 6), rng.randint(2, 6), rng.randint(1, 2)
    rules = DesignRules(d_color=rng.randint(1, 3), via_cost=rng.choice([0.0, 4.0]))
    grid = empty_grid(width, height, ("H", "V")[:layers], rules)
    cells = [(x, y, l) for l in range(layers) for y in range(height) for x in range(width)]
    rng.shuffle(cells)
    src, dst, *rest = cells
    net = two_pin_net(src, dst)
    if rng.random() < 0.3:
        net.guide = [(0, 0, 0, width // 2, height // 2)]
    obstacles, pin_owners, history, commits = set(), {}, [], []
    for k, v in enumerate(rest[: len(rest) // 2]):
        kind = rng.randrange(6)
        if kind == 0:
            obstacles.add(v)
        elif kind == 1:
            pin_owners[v] = 5
        elif kind == 2:
            history.append((v, rng.choice([0.5, 10.0])))
        else:
            commits.append((0 if kind == 3 else 6 + k % 2, [(v, rng.choice(COLOR_ORDER))]))
    grid = register_pins(replace(grid, obstacles=obstacles, pin_owners=pin_owners), net)
    for v, amount in history:
        grid.add_history(v, amount)
    for net_id, path in commits:
        grid.commit_route(net_id, path)
    return grid, net


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_search_accept_matches_two_pass_reference(seed):
    # The search accepts labels itself, in one pass over the target's
    # bucket. Replayed in push order through the two-pass reference, every
    # label it pushed is accepted, and the final label lists, live
    # membership and settled costs agree, with settled at -inf on every
    # keep-out. The search is run to exhaustion, one returned pin label at
    # a time, unbounded and then bounded (see _search_to_exhaustion).
    grid, net = _search_instance(seed)
    for bounded in (False, True):
        queue, pushed, _ = _search_to_exhaustion(grid, net, bounded=bounded)
        reference, pruned = {}, set()
        for label in pushed:
            assert _reference_insert(reference, pruned, label)
        assert queue.labels == {k: bucket for k, bucket in reference.items() if bucket}
        assert_live_is_membership(queue, pushed, pruned)
        keep_outs = grid.keep_outs(net.id)
        for k, keep_out in enumerate(keep_outs):
            full = [ex[0] for ex in reference.get(k, []) if ex[4] == 0b111]
            assert queue.settled[k] == (keep_out if keep_out == -math.inf else min(full, default=math.inf))
        assert not any(keep_outs[k] == -math.inf for k in reference)


def _search_to_exhaustion(grid, net, source_state=None, bounded=False):
    """Seed the net's first pin and search until the queue empties.

    The pin is seeded by _seed_labels, or with one cost-0 label of
    source_state when one is given. Unbounded (_last_pin_bound patched to
    None), the search relaxes every label the grid admits. Bounded, the
    first returned label stays live at the last pin, as nothing traces
    it, so from then on U is its cost and most pops are not relaxed.
    Returns the queue, every label pushed in push order, and every popped
    label the search expanded (those it returned cover a pin and are not
    expanded), each with the least cost of a live label at the last pin
    when it was popped.
    """
    queue = SolutionQueue(grid, net)
    src = net.pins[0].covered_vertices[0]
    last = [grid.vid(v) for v in net.pins[-1].covered_vertices]
    pushed, popped, returned = [], [], set()

    def record_pop(label):
        u = min((ex[0] for i in last for ex in queue.live[i] or ()), default=math.inf)
        popped.append((label, u))

    with pytest.MonkeyPatch.context() as mp:
        if not bounded:
            mp.setattr(router, "_last_pin_bound", lambda queue: None)
        watch_search(mp, on_pop=record_pop, on_accept=pushed.append)
        if source_state is None:
            seeds = router._seed_labels(queue, src)
        else:
            seeds = [(0.0, source_state)]
        for cost, state in seeds:
            queue.source(src, cost, state)
        while True:
            try:
                returned.add(color_state_search(queue)[3])
            except SearchExhaustedError:
                break
    return queue, pushed, [(label, u) for label, u in popped if label[3] not in returned]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([0.0, 0.5, 1.0, 7.0]),
    st.sampled_from([0.0, 50.0]),
    st.sampled_from([0.0, 5.0]),
    st.sampled_from([None, 0b111, 0b001, 0b010, 0b100]),
)
def test_search_skips_match_two_pass_reference_under_drawn_rules(
    seed, alpha, gamma, stitch_cost, source_state
):
    # The search skips a move when its target is settled at no more than
    # the pop's cost plus alpha, drops a priced child settled at no more
    # than its own cost, reads zero counts when gamma is 0, and relaxes
    # colorless when gamma is 0 and it holds only 111 labels.
    # Replayed in push order through the two-pass reference, every pushed
    # label is accepted and the final label lists, live membership and
    # settled costs agree, a one-mask source included. Every pushed child
    # is the oracle's child of its predecessor, and no skip loses one: the
    # oracle's child of every expanded move is dominated by a live label at
    # its target when the search ends. All of this holds unbounded and
    # bounded (see _search_to_exhaustion); bounded, at a non-zero alpha, a
    # node whose cost plus alpha times oracle.remaining_lb to the pin
    # exceeds U (with the margin), the least cost of a label at the pin
    # when it popped, is not relaxed: it makes no children.
    grid, net = _search_instance(seed)
    grid.rules = rules = replace(grid.rules, alpha=alpha, gamma=gamma, stitch_cost=stitch_cost)
    stitch = rules.beta * rules.stitch_cost
    pin = net.pins[1].covered_vertices
    for bounded in (False, True):
        queue, pushed, expanded = _search_to_exhaustion(grid, net, source_state, bounded)
        # The queue stays colorless exactly when gamma is 0 and every source
        # is 111: the colorless relaxation then makes only 111 children, and
        # the colored one never runs.
        assert queue.colorless == (not gamma and all(label[4] == 0b111 for label in pushed if label[5] is None))

        reference, pruned = {}, set()
        for label in pushed:
            assert _reference_insert(reference, pruned, label)
        assert queue.labels == {k: bucket for k, bucket in reference.items() if bucket}
        assert_live_is_membership(queue, pushed, pruned)
        for k, keep_out in enumerate(grid.keep_outs(net.id)):
            full = [ex[0] for ex in reference.get(k, []) if ex[4] == 0b111]
            assert queue.settled[k] == (keep_out if keep_out == -math.inf else min(full, default=math.inf))

        def oracle_child(node, t):
            vertex = queue.vertices[node[1]]
            conflict = oracle.conflict_costs(grid, rules, t, net.id)
            terms = [
                conflict[k] + (stitch if t[2] == vertex[2] and not node[4] & c else 0.0)
                for k, c in enumerate(COLOR_ORDER)
            ]
            best = min(terms)
            cost = node[0] + rules.alpha * oracle.move_cost(grid, rules, vertex, t, net.guide) + best
            return cost, sum(int(c) for c, term in zip(COLOR_ORDER, terms) if term == best)

        parents = set()
        for label in pushed:
            if label[5] is not None:
                assert (label[0], label[4]) == oracle_child(label[5], queue.vertices[label[1]])
                parents.add(id(label[5]))
        for node, u in expanded:
            vertex = queue.vertices[node[1]]
            h = alpha * oracle.remaining_lb(rules, vertex, pin)
            if bounded and alpha and node[0] + h > u * router._MARGIN:
                assert id(node) not in parents, node
                continue
            for t in oracle.neighbors(grid, vertex):
                if oracle.usable(grid, t, net.id):
                    cost, state = oracle_child(node, t)
                    assert any(
                        ex[0] <= cost and ex[4] & state == state for ex in queue.labels[grid.vid(t)]
                    ), (node, t)
    if gamma == 0:
        assert queue.counts is router._zero_counts(len(queue.vertices))  # shared zero counts, not the grid's
        assert grid._counts is None  # the grid never built its counts


@pytest.mark.parametrize(
    "rules, two_pin_mode",
    [(DesignRules(), False), (DesignRules(gamma=0.0), False), (DesignRules(gamma=0.0), True)],
)
def test_colorless_flag_is_exact_after_every_search(monkeypatch, rules, two_pin_mode):
    # A queue is colorless only at gamma 0, and only while every live label
    # holds all three masks: after every search of every net of desk-shaped
    # draws, routed in net_order_key order and committed. Two-pin mode
    # re-seeds one-mask labels, which must clear the flag.
    search = router.color_state_search
    colorless_searches = 0

    def checked_search(queue):
        nonlocal colorless_searches
        try:
            return search(queue)
        finally:
            if queue.colorless:
                assert not queue.rules.gamma
                assert all(label[4] == 0b111 for bucket in queue.labels.values() for label in bucket)
                colorless_searches += 1

    monkeypatch.setattr(router, "color_state_search", checked_search)
    for seed in range(30):
        layout = generate_instance(
            seed=seed, width=12, height=12, layers=2, num_nets=8, pins_per_net=4,
            congestion=0.6, rules=rules,
        )
        grid = Grid.from_layout(layout)
        for net in sorted(layout.nets, key=net_order_key):
            try:
                tree = route_net(net, grid, two_pin_mode=two_pin_mode)
            except UnroutableError:
                continue
            grid.commit_route(net.id, sorted(tree.vertex_colors.items()))
    # At gamma 0 the first search of every net runs colorless.
    assert (colorless_searches > 0) == (not rules.gamma)


@pytest.mark.parametrize("stitch_cost", [0.0, 5.0])
def test_zero_gamma_zero_counts_match_real_counts(monkeypatch, stitch_cost):
    # With gamma 0 the queue reads shared zero counts and never asks the
    # grid for its own, and it stays colorless, since every seed and
    # re-seed is 111, so the search relaxes colorless. Routing each net
    # with the grid's real foreign counts patched in and colorless
    # cleared, so the search relaxes colored, gives the same tree, or the
    # same failure, and pushes the same labels in the same order.
    init = SolutionQueue.__init__
    pushed = []
    watch_search(monkeypatch, on_accept=lambda label: pushed.append(label))
    real_counts_seen = 0
    for seed in range(40):
        outcomes = []
        for patched in (False, True):
            grid, net = _search_instance(seed)
            grid.rules = replace(grid.rules, gamma=0.0, stitch_cost=stitch_cost)
            pushed = []

            def init_with_real_counts(queue, grid, net):
                init(queue, grid, net)
                queue.counts = grid.foreign_counts(net.id)
                queue.colorless = False

            monkeypatch.setattr(SolutionQueue, "__init__", init_with_real_counts if patched else init)
            try:
                result = route_net(net, grid)
            except UnroutableError as exc:
                result = (str(exc), exc.remaining_pins, sorted(exc.wall.items()))
            if patched:
                real_counts_seen += any(any(c) for c in grid.foreign_counts(net.id))
            else:
                assert grid._counts is None  # nothing built, nothing spread
            # Each pushed label, its predecessor named by seq.
            outcomes.append((result, [(*label[:5], label[5] and label[5][3]) for label in pushed]))
        assert outcomes[0] == outcomes[1], seed
    assert real_counts_seen >= 10


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([0.0, 1e-300, 0.5, 1.0, 7.0]),
    st.sampled_from([0.0, 50.0]),
    st.booleans(),
)
def test_pops_follow_heap_order(seed, alpha, gamma, freeze):
    # Replayed against one reference heap of the same label tuples, with
    # each accepted label pushed and the labels the two-pass reference
    # prunes skipped, every pop is the least live label at that moment.
    # alpha 0 and 1e-300 make children that cost what their parent does,
    # and freeze re-seeds the traced path with one mask per segSet, as
    # two-pin mode does. The net's pins are connected, then the search
    # runs on until the queue is empty.
    grid, net = _search_instance(seed)
    grid.rules = replace(grid.rules, alpha=alpha, gamma=gamma)
    queue = SolutionQueue(grid, net)
    src = net.pins[0].covered_vertices[0]
    events, tree, searches = [], _TreeBuilder(), 0
    with pytest.MonkeyPatch.context() as mp:
        watch_search(
            mp,
            on_pop=lambda label: events.append((True, label)),
            on_accept=lambda label: events.append((False, label)),
        )
        for cost, state in router._seed_labels(queue, src):
            queue.source(src, cost, state)
        while True:
            searches += 1
            try:
                dst = color_state_search(queue)
            except SearchExhaustedError:
                break
            tree.paths.append(backtrace(queue, dst, tree, freeze=freeze))

    heap, reference, pruned = [], {}, set()
    for popped, label in events:
        if popped:
            while heap[0][3] in pruned:
                heapq.heappop(heap)
            assert heapq.heappop(heap) is label
        else:
            assert _reference_insert(reference, pruned, label)
            heapq.heappush(heap, label)
    assert all(label[3] in pruned for label in heap)  # exhausted
    assert queue.pop() is None
    assert searches == len(tree.paths) + 1


def test_equal_cost_labels_are_sorted_or_heaped_once(monkeypatch):
    # With alpha 0 most children cost what their parent does. Each label
    # enters one bucket sort (router._sorted_live) per time it is queued
    # or put back after a search returns mid-bucket, or, as an
    # equal-cost child, the heap of the cost being popped. So the labels
    # entering sorts and heaps number at most the accepted labels plus
    # those put back; re-sorting a bucket's rest for each tie breaks this.
    layout = generate_instance(
        seed=3, width=16, height=16, layers=2, num_nets=6, pins_per_net=4, congestion=0.5,
        rules=DesignRules(alpha=0.0),
    )
    init, put_back = SolutionQueue.__init__, SolutionQueue._put_back
    sorted_live, enqueue = router._sorted_live, router._enqueue
    current, work = [], {"sorted": 0, "ties": 0, "accepted": 0, "put_back": 0}

    def counting_init(queue, *args):
        init(queue, *args)
        current[:] = [queue]

    def counting_sorted_live(bucket, live):
        work["sorted"] += len(bucket)
        return sorted_live(bucket, live)

    def counting_enqueue(waiting, label):
        enqueue(waiting, label)
        work["accepted"] += 1
        if waiting is not current[0].buckets.get(label[0]):
            work["ties"] += 1  # joined the cost being popped, not a bucket

    def counting_put_back(queue, cost, rest):
        work["put_back"] += len(rest)
        put_back(queue, cost, rest)

    monkeypatch.setattr(SolutionQueue, "__init__", counting_init)
    monkeypatch.setattr(router, "_sorted_live", counting_sorted_live)
    monkeypatch.setattr(SolutionQueue, "_put_back", counting_put_back)
    monkeypatch.setattr(router, "_enqueue", counting_enqueue)
    route_all(layout)
    run_baseline(layout)
    assert work["ties"] > 100 and work["put_back"] > 0
    assert work["sorted"] + work["ties"] <= work["accepted"] + work["put_back"], work


def test_source_returns_insert_verdict():
    grid = empty_grid(3, 2, ("H",))
    queue = SolutionQueue(grid, two_pin_net((0, 0, 0), (2, 1, 0)))
    verdicts = []
    insert = queue.insert

    def recording_insert(label):
        verdicts.append(insert(label))
        return verdicts[-1]

    queue.insert = recording_insert
    v, vid = (1, 0, 0), grid.vid((1, 0, 0))
    assert queue.source(v, 1.0, 0b001) is True
    (first,) = queue.labels[vid]
    assert queue.source(v, 1.0, 0b001) is False  # exact tie: the incumbent stays
    assert queue.source(v, 0.0, 0b111) is True  # prunes the first source
    (label,) = queue.labels[vid]
    assert_live_is_membership(queue, [first, label], {first[3]})
    buckets = {k: list(bucket) for k, bucket in queue.labels.items()}
    settled = list(queue.settled)
    assert queue.source(v, 0.5, 0b011) is False  # a dominated re-seed
    assert queue.labels == buckets and queue.settled == settled
    assert verdicts == [True, False, True, False]
    assert (label[0], label[1], label[2], label[4], label[5]) == (0.0, vid, -1, 0b111, None)
    assert queue.pop() is label and queue.pop() is None


def test_pruned_label_is_told_from_its_twin_by_seq(monkeypatch):
    # At alpha 0 a pruned source and the live source that pruned it share
    # (cost, vid, dir_key) and are both still queued at cost 0. Liveness is
    # membership in the vertex's list, so the two tuples differ only from
    # seq on: the bucket sort and the equal-cost heap drop the pruned one,
    # and the search never pops it.
    grid = empty_grid(3, 1, ("H",), DesignRules(alpha=0.0))
    net = two_pin_net((0, 0, 0), (2, 0, 0))
    grid = register_pins(grid, net)
    queue = SolutionQueue(grid, net)
    vid = grid.vid((1, 0, 0))
    assert queue.source((1, 0, 0), 0.0, 0b001)
    (pruned,) = queue.live[vid]
    assert queue.source((1, 0, 0), 0.0, 0b111)
    (twin,) = queue.live[vid]
    assert pruned[:3] == twin[:3] and pruned[3] != twin[3]
    assert pruned not in queue.live[vid] and twin in queue.live[vid]
    assert queue.buckets[0.0] == [pruned, twin]
    assert router._sorted_live([twin, pruned], queue.live) == [twin]
    assert list(router._drain([pruned, twin], [], queue.live)) == [twin]

    popped = []
    watch_search(monkeypatch, on_pop=popped.append)
    dst = color_state_search(queue)
    assert popped[0] is twin and pruned not in popped
    assert dst[1] == grid.vid((2, 0, 0)) and dst[0] == 0.0 and dst[5] is twin


def test_unroutable_reports_remaining_pins():
    grid = empty_grid(5, 1, ("H",), obstacles={(2, 0, 0)})
    net = two_pin_net((0, 0, 0), (4, 0, 0))
    grid = register_pins(grid, net)
    with pytest.raises(UnroutableError) as exc_info:
        route_net(net, grid)
    assert exc_info.value.remaining_pins == [1]


def test_blocked_start_pin_fails_like_any_wall():
    # Net 1 may not commit onto the start pin, but it holds the start pin's
    # only neighbour: the search exhausts at once and the wall walk from the
    # far pin names net 1 and that vertex.
    grid = empty_grid(3, 1, ("H",))
    net = two_pin_net((0, 0, 0), (2, 0, 0))
    grid = register_pins(grid, net)
    with pytest.raises(CollisionError, match="pin of net 0"):
        grid.commit_route(1, [((0, 0, 0), Color.RED)])
    grid.commit_route(1, [((1, 0, 0), Color.RED)])
    with pytest.raises(UnroutableError) as exc_info:
        route_net(net, grid)
    exc = exc_info.value
    assert str(exc) == "net 0: pins [1] unreachable"
    assert exc.remaining_pins == [1]
    assert exc.wall == {(1, 0, 0): 1}


def test_queue_refuses_an_off_grid_pin():
    # (3, 0, 0) would alias (0, 1, 0) by the vid formula.
    grid = empty_grid(3, 2, ("H",))
    for v in ((3, 0, 0), (-1, 0, 0), (0, 2, 0), (0, 0, 1)):
        net = two_pin_net((0, 0, 0), v)
        with pytest.raises(ValueError, match=r"net 0 pin 1 vertex .* is off the grid"):
            SolutionQueue(grid, net)
        with pytest.raises(ValueError, match="off the grid"):
            route_net(net, grid)


def test_one_pin_net_refuses_an_off_grid_pin_too():
    # A one-pin net takes the same path as any other, so its pin is checked.
    grid = empty_grid(4, 4, ("H",))
    with pytest.raises(ValueError, match=r"net 0 pin 0 vertex \(9, 9, 0\) is off the grid"):
        route_net(Net(0, "n", [Pin([(9, 9, 0)])]), grid)


def _reference_wall_blockers(queue, grid, net, remaining):
    """The rescue wall by the oracle.neighbors walk over vertex tuples, vertex to owner."""

    def region_wall(region):
        wall = {}
        for v in region:
            for t in oracle.neighbors(grid, v):
                owner = grid.committed.get(t)
                if owner is not None and owner[0] != net.id:
                    wall[t] = owner[0]
        return wall

    stack = [v for idx in remaining for v in net.pins[idx].covered_vertices if oracle.usable(grid, v, net.id)]
    pocket = set(stack)
    while stack:
        v = stack.pop()
        for t in oracle.neighbors(grid, v):
            if t not in pocket and oracle.usable(grid, t, net.id):
                pocket.add(t)
                stack.append(t)
    pocket_side = region_wall(pocket)
    search_side = region_wall(queue.vertices[vid] for vid in queue.labels)
    shared = pocket_side.keys() & search_side.keys()
    return {v: pocket_side[v] for v in shared} if shared else pocket_side | search_side


def test_wall_blockers_match_neighbors_walk(monkeypatch):
    # Every rescue of the seeded rescue draw (both arms) and of the
    # two-net single-gap layout names the same wall, vertex to owner, as
    # the reference. The wall walk reads the grid and the net through the
    # queue only, so each queue's grid and net are noted when it is built,
    # for the reference walk.
    wall_blockers, init = router._wall_blockers, SolutionQueue.__init__
    calls, built_with = [], {}

    def noting_init(queue, grid, net):
        init(queue, grid, net)
        built_with[id(queue)] = grid, net

    def checked(queue, net_id, remaining):
        got = wall_blockers(queue, net_id, remaining)
        grid, net = built_with[id(queue)]
        assert net.id == net_id
        assert got == _reference_wall_blockers(queue, grid, net, remaining)
        calls.append(got)
        return got

    monkeypatch.setattr(SolutionQueue, "__init__", noting_init)
    monkeypatch.setattr(router, "_wall_blockers", checked)
    gap = Layout(
        width=5, height=3, layers=["H"], rules=DesignRules(),
        obstacles={(2, 0, 0), (2, 2, 0)},
        nets=[
            Net(0, "a", [Pin([(0, 0, 0)]), Pin([(4, 0, 0)])]),
            Net(1, "b", [Pin([(0, 2, 0)]), Pin([(4, 2, 0)])]),
        ],
    )
    runs = [(route_all, gap)]
    for run in (route_all, run_baseline):
        draw = generate_instance(
            seed=20, width=10, height=10, layers=1, num_nets=7, pins_per_net=3,
            congestion=0.6, rules=DesignRules(d_color=2),
        )
        runs.append((run, draw))
    for run, layout in runs:
        with pytest.raises(UnroutableError):
            run(layout)
    assert len(calls) > 10 and any(calls)


def test_dijkstra_degeneration():
    """With gamma = stitch_cost = 0 the route cost is the classical shortest path."""
    rules = DesignRules(gamma=0.0, stitch_cost=0.0)
    rng = random.Random(11)
    for _ in range(10):
        obstacles = {(rng.randrange(6), rng.randrange(6), rng.randrange(2)) for _ in range(6)}
        grid = empty_grid(6, 6, ("H", "V"), rules, obstacles=obstacles)
        src = (0, 0, 0)
        dst = (5, 5, rng.randrange(2))
        if src in grid.obstacles or dst in grid.obstacles:
            continue
        net = two_pin_net(src, dst)
        grid = register_pins(grid, net)
        want = _classic_dijkstra(grid, src, dst)
        if want is None:
            continue
        tree = route_net(net, grid)
        assert tree.total_cost == pytest.approx(want)


def _classic_dijkstra(grid, src, dst):
    dist = {src: 0.0}
    heap = [(0.0, src)]
    while heap:
        d, v = heapq.heappop(heap)
        if v == dst:
            return d
        if d > dist.get(v, float("inf")):
            continue
        for t in oracle.neighbors(grid, v):
            nd = d + oracle.move_cost(grid, grid.rules, v, t, None)
            if nd < dist.get(t, float("inf")):
                dist[t] = nd
                heapq.heappush(heap, (nd, t))
    return None


def test_search_relaxation_matches_grid_definitions(monkeypatch):
    # color_state_search reads the keep-outs, move costs and conflict counts
    # from per-net arrays, and drops a child that a label at its target
    # already dominates. For every usable move of a relaxed node, either the
    # child it inserted agrees with the oracle's raw-data definitions
    # (usable, move_cost and conflict_costs), or the target's labels when
    # the node was popped held one dominating the child those definitions
    # give. A node whose cost plus alpha times oracle.remaining_lb to the
    # pin exceeds U (with the margin), the least cost of a label at the pin
    # when it popped, is not relaxed: it makes no children. Checked on a
    # grid with obstacles, a foreign pin, foreign and own commits, history
    # and a guide.
    rules = DesignRules(d_color=3, gamma=5.0, wrong_way_cost=2.0, via_cost=3.0)
    grid = empty_grid(7, 6, ("H", "V", "H"), rules, obstacles={(2, 0, 0), (3, 3, 1), (5, 4, 2)})
    net = two_pin_net((0, 0, 0), (6, 5, 2))
    net.guide = [(0, 0, 0, 4, 3), (1, 2, 1, 6, 5)]
    grid = register_pins(replace(grid, pin_owners={(1, 1, 0): 5}), net)
    grid.commit_route(7, [((3, 1, 0), Color.RED), ((4, 1, 0), Color.GREEN), ((2, 3, 1), Color.BLUE)])
    grid.commit_route(0, [((0, 2, 0), Color.RED)])
    grid.add_history((1, 0, 0), 1.5)
    grid.add_history((2, 2, 1), 0.25)

    queue = SolutionQueue(grid, net)
    queue.source((0, 0, 0), 0.0, 0b111)
    popped, children, labels_at_pop, u_at_pop = [], {}, {}, {}
    pin = grid.vid((6, 5, 2))

    def record_pop(label):
        popped.append(label)
        u_at_pop[id(label)] = min((ex[0] for ex in queue.live[pin] or ()), default=math.inf)
        labels_at_pop[id(label)] = {
            t: [(ex[0], ex[4]) for ex in queue.labels.get(grid.vid(t), [])]
            for t in oracle.neighbors(grid, queue.vertices[label[1]])
        }

    def record_push(label):
        accepted = any(ex is label for ex in queue.labels[label[1]])
        assert accepted  # the search queues only labels it accepts
        children.setdefault(id(label[5]), []).append(label)

    watch_search(monkeypatch, on_pop=record_pop, on_accept=record_push)
    color_state_search(queue)

    stitch = rules.beta * rules.stitch_cost
    skipped = beyond_bound = 0
    for node in popped[:-1]:  # the last pop is returned, not expanded
        node_cost, node_vid, _, _, node_state, _ = node
        vertex = queue.vertices[node_vid]
        got = children.get(id(node), [])
        u = u_at_pop[id(node)]
        if node_cost + rules.alpha * oracle.remaining_lb(rules, vertex, [(6, 5, 2)]) > u * router._MARGIN:
            beyond_bound += 1
            assert not got, vertex
            continue
        by_dir = {c[2]: c for c in got}
        inserted_moves = []
        for d in Direction:
            t = oracle.step(grid, vertex, d)
            if t is None or not oracle.usable(grid, t, net.id):
                continue
            conflict = oracle.conflict_costs(grid, rules, t, net.id)
            terms = {
                c: conflict[k] + (stitch if d not in VIA_DIRECTIONS and not node_state & c else 0.0)
                for k, c in enumerate(COLOR_ORDER)
            }
            best = min(terms.values())
            trad = oracle.move_cost(grid, rules, vertex, t, net.guide)
            cost = node_cost + rules.alpha * trad + best
            state = sum(int(c) for c, term in terms.items() if term == best)
            child = by_dir.get(d)
            if child is None:
                skipped += 1
                assert any(
                    ex_cost <= cost and ex_state & state == state
                    for ex_cost, ex_state in labels_at_pop[id(node)][t]
                ), (vertex, d)
            else:
                inserted_moves.append((d, t))
                assert (child[0], child[4]) == (cost, state)
        assert [(c[2], queue.vertices[c[1]]) for c in got] == inserted_moves
    assert len(popped) > 20 and skipped > 0 and beyond_bound > 0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 7), st.lists(st.integers(0, 7), max_size=4)), max_size=6),
    st.lists(st.lists(st.integers(0, 2), min_size=8, max_size=8), min_size=3, max_size=3),
    st.sampled_from([0.0, 50.0]),
)
def test_fix_masks_picks_what_pick_final_picks(drawn, counts, gamma):
    # Every live segSet with more than one mask gets
    # pick_final(state, {mask: gamma * its members' summed counts}); counts
    # drawn from 0-2 make ties common. Emptied and one-mask segSets keep
    # their state.
    segsets = [router.SegSet(state, list(members)) for state, members in drawn]
    want = [
        int(pick_final(seg.state, {c: gamma * sum(k[i] for i in seg.members) for c, k in zip(COLOR_ORDER, counts)}))
        if seg.members and cardinality(seg.state) > 1
        else seg.state
        for seg in segsets
    ]
    router._fix_masks(segsets, gamma, counts)
    assert [seg.state for seg in segsets] == want


def test_tree_mode_beats_frozen_legs_on_pressure():
    g1, net1 = pressure_instance(3)
    g2, net2 = pressure_instance(3)
    flexible = route_net(net1, g1)
    frozen = route_net(net2, g2, two_pin_mode=True)
    assert len(flexible.stitches) < len(frozen.stitches)


def test_zero_alpha_still_connects_pins():
    # with alpha = 0 every label costs 0; the backtrace must stop at true
    # sources, not at the first zero-cost predecessor
    rules = DesignRules(alpha=0.0, gamma=0.0, stitch_cost=0.0)
    grid = empty_grid(6, 4, ("H", "V", "H"), rules)
    net = two_pin_net((5, 0, 0), (3, 2, 1))
    grid = register_pins(grid, net)
    tree = route_net(net, grid)
    vertices = set(tree.vertex_colors)
    assert (5, 0, 0) in vertices and (3, 2, 1) in vertices


def test_guide_region_steers_route():
    # direct corridor at y=1 is off-guide (4 moves * penalty 4); dipping into
    # the guide row y=0 costs two wrong-way moves plus one off-guide re-entry
    grid = empty_grid(5, 3, ("H",))
    net = two_pin_net((0, 1, 0), (4, 1, 0))
    net.guide = [(0, 0, 0, 4, 0)]
    grid = register_pins(grid, net)
    tree = route_net(net, grid)
    assert any(v[1] == 0 for v in tree.vertex_colors)
    assert tree.total_cost == pytest.approx(14.0)


def test_empty_guide_routes_as_no_guide():
    # validate and layout_to_dict read guide=[] as no guide, so a save and
    # reload turns [] into None; both must route alike.
    def routes_text(layout):
        routes = route_all(layout).routes
        return repr([(k, t.paths, sorted(t.vertex_colors.items()), t.total_cost) for k, t in sorted(routes.items())])

    texts = []
    for guide in (None, []):
        layout = generate_instance(
            seed=3, width=10, height=10, layers=2, num_nets=4, pins_per_net=3, congestion=0.3
        )
        for net in layout.nets:
            net.guide = guide
        texts.append(routes_text(layout))
        texts.append(routes_text(layout_from_dict(layout_to_dict(layout))))
    assert len(set(texts)) == 1
    grid = empty_grid(3, 1, ("H",))
    assert oracle.move_cost(grid, grid.rules, (0, 0, 0), (1, 0, 0), []) == 1.0


def test_route_does_not_mutate_grid():
    grid = empty_grid(5, 5, ("H",))
    net = two_pin_net((0, 0, 0), (4, 4, 0))
    grid = register_pins(grid, net)
    before = (dict(grid.committed), list(grid.history))
    route_net(net, grid)
    assert (grid.committed, grid.history) == before


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_route_tree_invariants_random(seed):
    inst = oracle_instance(seed)
    if inst is None:
        return
    grid, net, rules, src, dst = inst
    try:
        tree = route_net(net, grid)
    except UnroutableError:
        return
    # color soundness: final color inside the traced state
    for v, color in tree.vertex_colors.items():
        assert tree.vertex_states[v] & color, f"{color} outside state at {v}"
    # stitch list equals an independent recount
    assert sorted(tuple(sorted(p)) for p in tree.stitches) == independent_stitch_recount(
        tree.vertex_colors
    )
    assert recount_stitches(tree.vertex_colors) == tree.stitches
    # connectivity: one component touching both pins
    vertices = set(tree.vertex_colors)
    assert src in vertices and dst in vertices
    seen = {src}
    frontier = [src]
    while frontier:
        x, y, l = frontier.pop()
        for nb in ((x + 1, y, l), (x - 1, y, l), (x, y + 1, l), (x, y - 1, l), (x, y, l + 1), (x, y, l - 1)):
            if nb in vertices and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    assert seen == vertices


def test_deterministic_routing():
    seed = next(
        s for s in range(100)
        if oracle_instance(s) is not None and _routable(oracle_instance(s))
    )
    trees = []
    for _ in range(2):
        grid, net, rules, src, dst = oracle_instance(seed)
        trees.append(route_net(net, grid))
    a, b = trees
    assert a.paths == b.paths
    assert a.vertex_colors == b.vertex_colors
    assert a.stitches == b.stitches
    assert a.total_cost == b.total_cost


def _routable(inst):
    grid, net, rules, src, dst = inst
    try:
        route_net(net, grid)
        return True
    except UnroutableError:
        return False


def test_multibit_states_appear_during_search():
    # symmetric costs keep all three masks live the whole way
    grid = empty_grid(4, 1, ("H",))
    net = two_pin_net((0, 0, 0), (3, 0, 0))
    grid = register_pins(grid, net)
    tree = route_net(net, grid)
    assert all(cardinality(s) == 3 for s in tree.vertex_states.values())


GRID_WRITES = st.lists(
    st.tuples(
        st.sampled_from(("commit", "rip_up", "recolor")),
        st.integers(0, 2),  # net index: the draw's first two nets, then a foreign id
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 1)), min_size=1, max_size=6),
        st.sampled_from(COLOR_ORDER),
    ),
    max_size=16,
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(3, 8),
    st.integers(3, 8),
    st.integers(1, 2),
    st.sampled_from((0.0, 0.5, 1.0)),
    GRID_WRITES,
)
def test_queue_context_follows_grid_writes(seed, width, height, layers, congestion, writes):
    # After each write by the committed map's writers on a generated draw,
    # every net's queue starts from the grid's keep-outs, which match a
    # from-scratch scan; settled is -inf exactly there and inf elsewhere;
    # and pin_at maps each vertex id to the pins covering it.
    try:
        layout = generate_instance(
            seed=seed, width=width, height=height, layers=layers,
            num_nets=4, pins_per_net=2, congestion=congestion,
        )
    except InfeasiblePlacementError:
        return
    grid = Grid.from_layout(layout)
    _, vertices = grid.move_table()
    covers = {
        net.id: [
            frozenset(k for k, pin in enumerate(net.pins) if v in pin.covered_vertices) or None
            for v in vertices
        ]
        for net in layout.nets
    }

    def check():
        for net in layout.nets:
            queue = SolutionQueue(grid, net)
            keep_outs = grid.keep_outs(net.id)
            assert queue.settled == keep_outs
            assert keep_outs == [math.inf if oracle.usable(grid, v, net.id) else -math.inf for v in vertices]
            assert queue.pin_at == covers[net.id]

    check()
    net_ids = [layout.nets[0].id, layout.nets[1].id, 90]
    for kind, which, cells, color in writes:
        # Folded onto the grid and the track just past its far edges, where
        # (width, y) would alias (0, y + 1) by the vid formula: a commit
        # there, or on an obstacle or another net's pin, must be refused.
        cells = [(x % (width + 1), y % (height + 1), l % layers) for x, y, l in cells]
        if kind == "commit":
            commit_or_refusal(grid, net_ids[which], [(v, color) for v in dict.fromkeys(cells)])
        elif kind == "rip_up":
            grid.rip_up(net_ids[which])
        elif cells[0] in grid.committed:
            grid.commit_route(grid.committed[cells[0]][0], [(cells[0], color)])
        check()
