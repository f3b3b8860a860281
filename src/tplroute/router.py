"""Multi-pin net routing with in-search mask assignment.

The search keeps a 3-bit color state on every node: the set of masks the
wire piece could still take at equal cost. Relaxing an edge evaluates all
three masks (conflict cost, plus one stitch charge when the mask is not in
the current node's state and the move stays on-layer), takes the cheapest,
and stores the set of masks achieving it. A net's pins are connected one
at a time: after each backtrace the traced vertices are re-inserted at
cost 0, so the next search grows from the whole partial tree.

During backtrace, runs of vertices whose states stay compatible are
grouped: a verSet is a run with one identical state, a segSet is a chain
of verSets whose accumulated state intersection stays non-empty and which
therefore ends up on a single mask. A stitch exists exactly where a segSet
had to be closed. Final masks and stitches depend only on segSets, so a
segSet stores its member vertex ids directly and its verSets stay
implicit as the equal-state runs among them.

A net is worked in vertex ids from its seeds to its finished tree.
route_net seeds the start pin's ids; each search returns a popped label;
backtrace walks the label's prev chain once, puts each traced id into a
segSet (keyed by id), re-inserts it through SolutionQueue.insert as a
cost-0 source tuple, and marks connected the pins its pin_at entry
names. finalize_colors then picks each segSet's mask from the count
lists by id, summing nothing when gamma is 0 (every cost is then 0), and
turns the ids into vertices once, when it builds the RouteTree that the
caller commits.

Each vertex keeps a Pareto set of (cost, state) labels: a costlier label
survives if its state is not a subset of a cheaper label's, which is what
lets a later stretch reuse a mask that a cheaper arrival had priced out.
On an exact (cost, state) tie the incumbent stays.

A label is one plain tuple, (cost, vid, dir_key, seq, state, prev), and
its first four fields are the pop order, so runs are reproducible. vid
is the vertex id (Grid.vid), dir_key the arrival Direction or -1 for a
source, seq a per-queue counter (unique, so a comparison never reaches
state or prev), and prev the predecessor label or None for a source.
A label is live exactly when it is in its vertex's list (the liveness
rule): pruning removes it, and its seq keeps tuple equality exact.

The search is one loop over a bucket queue (Dial, CACM 1969, Algorithm
360): one unsorted list of labels per cost (buckets) and a small heap of
the distinct costs (costs), since a search sees only a few dozen costs
under default rules. Every accepted label joins its cost's bucket once,
through _enqueue, so it pops at most once; a pruned one stays there. The
loop pops the least cost, sorts that bucket's live labels once
(_sorted_live), and works through the sorted list. A child costs no less
than its parent, so only a child of the same cost, which alpha 0 or a
tiny alpha makes, can join or prune that list. Such a child goes to the
cost's ties, not to a bucket, and from then on the rest of the list and
the ties are one heap of live labels (_drain), so each tie costs
O(log n). The loop returns the first label that covers a pin not
yet connected and puts the rest of its cost back into buckets
(SolutionQueue._put_back); it raises SearchExhaustedError when the queue
empties. Labels pop in (cost, vid, dir_key, seq) order, as from one heap
of them all. Sources (start-pin seeds and the traced vertices re-seeded
after a backtrace) enter through SolutionQueue.source, which goes
through SolutionQueue.insert. The search does not call insert or pop: it
runs the same accept and the same pop order inline.

Every other popped label relaxes its vertex's moves, by one of two
relaxations picked once per search. The colored relaxation prices the
three masks of each child and accepts it against its target's labels.
The colorless one runs while the queue is colorless
(SolutionQueue.colorless), as in the baseline's colorless pass: gamma is
0 and every label the queue has accepted holds all three masks. Every
conflict term is then 0, so a move from a 111 label makes a 111 child
costing the pop's cost plus alpha times trad, and a vertex holds at most
one live label, the one costing settled. The flag starts as not gamma,
and insert clears it when it accepts a label lacking a mask: a one-mask
source, such as a two-pin-mode re-seed, does, and the queue's later
searches relax colored. The colorless relaxation makes only 111
children and the colored one runs only once the flag is clear, so the
flag stays exact and one search keeps one relaxation.

The search does no work whose result is already known. Everything it
reads that stays fixed while a net is routed is taken from the grid once
per net, when route_net makes the net's SolutionQueue: the rules, the
foreign per-mask counts, and the vertex-id arrays of keep-outs, history
and off-guide penalties, each defined in grid.py and read here as it is.
When gamma is 0 every conflict term is 0 whatever the counts, so the
queue reads shared zero counts instead and the grid never builds or
spreads its own (the baseline's colorless pass runs this way). The queue
is a snapshot, so the grid must not change while it is in use; route_net
makes one queue per net and does not change the grid while routing it.
The move table (per vertex id, the on-grid moves as vertex-id offsets
with their rule costs) is shared by every grid of one shape and move
costs. The queue keeps, per vertex id, the live labels (live), the least
cost of a label holding all three masks (settled), and the pin indices
the vertex covers (pin_at), so whether a popped label covers a pin is
one read.

settled starts as the net's keep-outs (Grid.keep_outs): -inf at every
obstacle and other net's pin or commit, inf elsewhere. A keep-out never
accepts a label, so its entry stays -inf through every search, and the
one array holds both facts. In both relaxations, two tests of the
target's settled entry, read once per move, decide a child before its
target's labels are scanned:

- A move is skipped before it is priced when its target is settled at
  no more than the popped label's cost plus alpha, one floor per pop:
  trad is at least 1 and every other cost term is non-negative
  (Grid.add_history refuses a negative amount), so the child could not
  be cheaper. A keep-out is skipped by the same read.
- A priced child whose target is settled at no more than its own cost
  is dominated by the live 111 label there.

In the colored relaxation, any other child is accepted in one pass over
its target's labels: a label dominating it ends the scan before the
child is built, and otherwise every label it dominates is pruned, the
label list is rebuilt only if one was, and the child is appended and
queued. One pass suffices because live labels never dominate one
another. A 111 child takes the same pass: under its target's settled
cost no live label dominates it, and it prunes exactly the labels not
cheaper than it. The same labels pop and the same labels are accepted,
in the same order, as when every child is priced and offered to insert.

In the colorless relaxation, a child under its target's settled cost is
accepted and replaces the live label there, pruning it. The
same labels pop and are accepted, in the same order, as under the
colored relaxation, with no mask or label-list work.

The rescue path finds a wall of foreign commits by walking vertex ids
through the same move table and keep-outs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from bisect import bisect_right
from heapq import heappop, heappush
from itertools import count
from typing import Sequence

from .color_state import ALL_COLORS, COLOR_ORDER, Color
from .grid import Direction, Grid
from .layout import Net, Vertex


RED, GREEN, BLUE = (int(c) for c in COLOR_ORDER)


class SearchExhaustedError(RuntimeError):
    """The solution queue emptied before reaching an unconnected pin."""


class UnroutableError(RuntimeError):
    """A net could not be completed.

    blocked_nets names the committed nets walling off the search frontier,
    so a caller can rip them up and retry.
    """

    def __init__(
        self,
        net_id: int,
        remaining_pins: list[int],
        message: str,
        blocked_nets: set[int] | None = None,
        blocked_vertices: set[Vertex] | None = None,
    ):
        super().__init__(message)
        self.net_id = net_id
        self.remaining_pins = remaining_pins
        self.blocked_nets = blocked_nets or set()
        self.blocked_vertices = blocked_vertices or set()


# (cost, vid, dir_key, seq, state, prev): see the module docstring.
Label = tuple[float, int, "Direction | int", int, int, "Label | None"]


@dataclass
class SegSet:
    """A chain of verSets forced onto a single final mask.

    members lists the traced vertex ids; state is the accumulated
    intersection of their traced states, the one mask once fixed
    (_fix_masks). A segSet emptied by a merge has no members.
    """

    state: int
    members: list[int]


@dataclass
class RouteTree:
    """The committed route of one net: paths, final colors, stitches."""

    net_id: int
    paths: list[list[Vertex]]
    vertex_colors: dict[Vertex, Color]
    stitches: list[tuple[Vertex, Vertex]]
    # Color state each vertex carried when traced (search soundness checks).
    vertex_states: dict[Vertex, int]
    total_cost: float


class SolutionQueue:
    """Bucket queue of search labels with per-vertex Pareto label sets.

    The module docstring is the account of how the search uses it.
    buckets maps a cost to its queued labels, and costs heaps those
    costs. live, settled and pin_at are read per vertex id; live holds
    None or the vertex's live labels (the liveness rule). moves, vertices,
    rules, counts, hist, committed and off_guide are the net's search
    context, read from the grid once. colorless starts as not gamma, and
    insert clears it when it accepts a label lacking a mask.
    """

    def __init__(self, grid: Grid, net: Net):
        self._vid = grid.vid
        self.moves, self.vertices = grid.move_table()
        n = len(self.vertices)
        self.rules = rules = grid.rules
        self.colorless = not rules.gamma
        self.counts = grid.foreign_counts(net.id) if rules.gamma else _zero_counts(n)
        self.hist = grid.history
        self.committed = grid.committed
        self.off_guide = grid.off_guide(net.guide)
        self.settled = grid.keep_outs(net.id)
        self.buckets: dict[float, list[Label]] = {}
        self.costs: list[float] = []
        self._seq = count()
        self.live: list[list[Label] | None] = [None] * n
        cover: dict[int, set[int]] = {}
        for idx, pin in enumerate(net.pins):
            for v in pin.covered_vertices:
                if not grid.in_bounds(v):
                    raise ValueError(f"net {net.id} pin {idx} vertex {v} is off the grid")
                cover.setdefault(grid.vid(v), set()).add(idx)
        self.pin_at: list[frozenset[int] | None] = [None] * n
        for vid, pins in cover.items():
            self.pin_at[vid] = frozenset(pins)
        self.connected: set[int] = {0}

    @property
    def labels(self) -> dict[int, list[Label]]:
        """{vid: live labels}, read-only and built per call, for perfbench/spans.py until ROADMAP item 4."""
        return {vid: held for vid, held in enumerate(self.live) if held is not None}

    def insert(self, label: Label) -> bool:
        cost, vid, _, _, state, _ = label
        rivals = self.live[vid]
        if rivals is None:
            self.live[vid] = [label]
        else:
            kept = []  # one pass suffices: live labels never dominate one another
            for ex in rivals:
                ex_cost, ex_state = ex[0], ex[4]
                if ex_cost <= cost and (ex_state & state) == state:
                    return False  # dominated; ties keep the incumbent
                if not (cost <= ex_cost and (state & ex_state) == ex_state):
                    kept.append(ex)
            if len(kept) < len(rivals):
                rivals = self.live[vid] = kept
            rivals.append(label)
        if state == ALL_COLORS:
            # An accepted 111 label undercuts every live one, and prunes it.
            self.settled[vid] = cost
        else:
            self.colorless = False
        waiting = self.buckets.get(cost)
        if waiting is None:
            waiting = self.buckets[cost] = []
            heappush(self.costs, cost)
        _enqueue(waiting, label)
        return True

    def source(self, vertex: Vertex, cost: float, state: int) -> bool:
        """Insert a source label (no arrival, no predecessor) at vertex."""
        return self.insert((cost, self._vid(vertex), -1, next(self._seq), state, None))

    def pop(self) -> Label | None:
        """The least live label, or None. The search pops inline; perfbench/spans.py wraps this by name."""
        costs = self.costs
        while costs:
            cost = heappop(costs)
            run = _sorted_live(self.buckets.pop(cost), self.live)
            if run:
                self._put_back(cost, run[1:])
                return run[0]
        return None

    def _put_back(self, cost: float, rest: list[Label]) -> None:
        """Return the unpopped rest of a cost's bucket, taken out to be popped."""
        if rest:
            self.buckets[cost] = rest
            heappush(self.costs, cost)


# Every accepted label joins its cost's bucket, or the ties of the cost
# being popped, through this one call (tests wrap it to watch accepts).
_enqueue = list.append


def _sorted_live(bucket: list[Label], live: list[list[Label] | None]) -> list[Label]:
    """A cost bucket's live labels in pop order, taken once per activation.

    The bucket is the caller's to reuse: it is sorted in place unless a
    label in it is pruned (see the module docstring's liveness rule).
    """
    for label in bucket:
        if label not in live[label[1]]:
            bucket = [label for label in bucket if label in live[label[1]]]
            break
    bucket.sort()
    return bucket


def _drain(heap: list[Label], ties: list[Label], live: list[list[Label] | None]):
    """Yield the live labels of one cost, least first, once it has ties.

    heap holds the cost's labels not yet popped. ties collects the
    equal-cost children the search accepts while it runs; each joins
    the heap before the next pop, so the labels come in the order of
    one heap of all of them.
    """
    push, pop = heappush, heappop
    while True:
        if ties:
            for label in ties:
                push(heap, label)
            ties.clear()
        if not heap:
            return
        label = pop(heap)
        if label in live[label[1]]:
            yield label


class _TreeBuilder:
    """A net's segSets, traced states, paths and summed cost, in vertex ids.

    segset_of maps a traced vertex id to its segSet, and vertex_states to
    the state it carried when first traced. finalize_colors turns the ids
    into vertices once, when it builds the RouteTree.
    """

    def __init__(self) -> None:
        self.segset_of: dict[int, SegSet] = {}
        self.segsets: list[SegSet] = []
        self.vertex_states: dict[int, int] = {}
        self.paths: list[list[int]] = []
        self.total_cost = 0.0


def _fix_masks(segsets: list[SegSet], gamma: float, counts: Sequence[Sequence[int]]) -> None:
    """Narrow every live segSet's state to its cheapest mask; a fixed one keeps its own.

    A mask's cost is gamma times the member vertex ids' counts of it,
    summed (counts are the net's foreign red, green and blue counts,
    Grid.foreign_counts); ties go RED > GREEN > BLUE, as in pick_final.
    When gamma is 0 every cost is 0, so the first mask of the state is
    taken without summing.
    """
    red, green, blue = counts
    for seg in segsets:
        state, members = seg.state, seg.members
        if not members or not state & (state - 1):
            continue  # emptied by a merge, or one mask already
        if not gamma:
            seg.state = RED if state & RED else GREEN
            continue
        best = best_cost = 0
        for mask, mask_counts in ((RED, red), (GREEN, green), (BLUE, blue)):
            if state & mask:
                cost = sum([gamma * mask_counts[i] for i in members])
                if not best or cost < best_cost:
                    best, best_cost = mask, cost
        seg.state = best


def color_state_search(queue: SolutionQueue) -> Label:
    """Pop minimum-cost labels until one covers a not-yet-connected pin, and return it.

    The one loop and its two relaxations are the module docstring's
    account. Raises SearchExhaustedError when the queue empties first.
    """
    rules = queue.rules
    stitch_term = rules.beta * rules.stitch_cost
    alpha, gamma = rules.alpha, rules.gamma
    red, green, blue = queue.counts
    hist, off_guide, settled = queue.hist, queue.off_guide, queue.settled
    moves, live, pin_at, connected = queue.moves, queue.live, queue.pin_at, queue.connected
    buckets, costs, next_seq = queue.buckets, queue.costs, queue._seq.__next__
    push, pop, enqueue = heappush, heappop, _enqueue
    colorless = queue.colorless  # only insert clears it, and the search never calls insert
    ties: list[Label] = []  # children at the cost being popped
    while costs:
        cost = pop(costs)
        # Every child costs at least cost + alpha: trad >= 1, other terms >= 0.
        floor = cost + alpha
        run = order = _sorted_live(buckets.pop(cost), live)
        heap = None
        while True:
            for label in order:
                v = label[1]
                pins_here = pin_at[v]
                if pins_here is not None and not pins_here <= connected:
                    queue._put_back(cost, run[bisect_right(run, label):] if heap is None else heap)
                    return label
                if colorless:
                    # A vertex's one live label is 111 and costs settled.
                    for direction, dvid, _, base_trad in moves[v]:
                        i = v + dvid
                        least = settled[i]
                        if least <= floor:
                            continue
                        trad = base_trad + hist[i]
                        if off_guide is not None:
                            trad += off_guide[i]
                        child_cost = cost + alpha * trad
                        if least <= child_cost:
                            continue
                        child = (child_cost, i, direction, next_seq(), ALL_COLORS, label)
                        live[i] = [child]
                        settled[i] = child_cost
                        waiting = buckets.get(child_cost)
                        if waiting is None:
                            if child_cost == cost:
                                waiting = ties
                            else:
                                waiting = buckets[child_cost] = []
                                push(costs, child_cost)
                        enqueue(waiting, child)
                else:
                    held = label[4]
                    # A conflict-free on-layer child keeps the held masks when a stitch costs.
                    free_planar = held if stitch_term else ALL_COLORS
                    for direction, dvid, planar, base_trad in moves[v]:
                        i = v + dvid
                        least = settled[i]
                        if least <= floor:
                            continue
                        trad = base_trad + hist[i]
                        if off_guide is not None:
                            trad += off_guide[i]
                        if red[i] or green[i] or blue[i]:
                            red_term, green_term, blue_term = gamma * red[i], gamma * green[i], gamma * blue[i]
                            if planar:
                                if not held & RED:
                                    red_term += stitch_term
                                if not held & GREEN:
                                    green_term += stitch_term
                                if not held & BLUE:
                                    blue_term += stitch_term
                            # The cheapest mask, with ties OR-ed in, in RED, GREEN, BLUE order.
                            best, state = red_term, RED
                            if green_term < best:
                                best, state = green_term, GREEN
                            elif green_term == best:
                                state |= GREEN
                            if blue_term < best:
                                best, state = blue_term, BLUE
                            elif blue_term == best:
                                state |= BLUE
                            child_cost = cost + alpha * trad + best
                        else:
                            # No conflicts: the masks in the held state cost nothing.
                            state = free_planar if planar else ALL_COLORS
                            child_cost = cost + alpha * trad
                        if least <= child_cost:
                            continue  # the live 111 label dominates the child
                        rivals = live[i]
                        if rivals is None:
                            rivals = live[i] = []
                        else:
                            # insert's one-pass accept, run before the child is built.
                            dominated = False
                            kept = 0
                            for ex in rivals:
                                ex_cost, ex_state = ex[0], ex[4]
                                if ex_cost <= child_cost and (ex_state & state) == state:
                                    dominated = True  # ties keep the incumbent
                                    break
                                if not (child_cost <= ex_cost and (state & ex_state) == ex_state):
                                    kept += 1
                            if dominated:
                                continue
                            if not kept:
                                rivals.clear()
                            elif kept < len(rivals):
                                rivals = live[i] = [
                                    ex for ex in rivals if not (child_cost <= ex[0] and (state & ex[4]) == ex[4])
                                ]
                        child = (child_cost, i, direction, next_seq(), state, label)
                        rivals.append(child)
                        if state == ALL_COLORS:
                            settled[i] = child_cost
                        waiting = buckets.get(child_cost)
                        if waiting is None:
                            if child_cost == cost:
                                waiting = ties
                            else:
                                waiting = buckets[child_cost] = []
                                push(costs, child_cost)
                        enqueue(waiting, child)
                if ties and heap is None:
                    break
            else:
                break
            # A child at this cost: the sorted rest is already a heap.
            heap = run[bisect_right(run, label):]
            order = _drain(heap, ties, live)
    raise SearchExhaustedError("solution queue exhausted")


def backtrace(queue: SolutionQueue, dst: Label, tree: _TreeBuilder, freeze: bool = False) -> list[int]:
    """Walk prev links from dst to the tree, grouping vertex ids into segSets.

    A predecessor joins the growing segSet while the segSet's accumulated
    state still shares a mask with it (the share becomes the new state);
    otherwise the segSet closes and a fresh one starts, which is where a
    stitch will fall. Hitting a vertex that already belongs to the tree
    merges the two segSets when their states share a mask. All traced
    vertex ids are re-inserted as sources at cost 0 so the next search
    starts from the whole tree, and every pin they cover is marked
    connected. Returns the traced path's vertex ids, source first.
    """
    # dst covers a pin not yet connected and every traced vertex's pins
    # are, so dst is not in the tree and its segSet starts with its state.
    # Sources (pin seeds and re-seeded tree labels) are exactly the
    # prev-less labels, so the walk ends at one; a cost == 0 test would
    # misfire when alpha is 0.
    vids: list[int] = []
    states: list[int] = []
    segset_of, vertex_states = tree.segset_of, tree.vertex_states
    cur_seg = SegSet(dst[4], [])
    tree.segsets.append(cur_seg)
    label: Label | None = dst
    while label is not None:
        _, vid, _, _, state, label = label
        vids.append(vid)
        states.append(state)
        other_seg = segset_of.get(vid)
        if other_seg is not None:
            if other_seg is not cur_seg:
                shared = cur_seg.state & other_seg.state
                if shared:
                    cur_seg.state = shared
                    for member in other_seg.members:
                        segset_of[member] = cur_seg
                    cur_seg.members.extend(other_seg.members)
                    other_seg.members.clear()
                else:
                    # no shared mask: segSet boundary, the junction is a stitch
                    cur_seg = other_seg
            continue
        shared = cur_seg.state & state
        if shared:
            cur_seg.state = shared
        else:
            cur_seg = SegSet(state, [])
            tree.segsets.append(cur_seg)
        cur_seg.members.append(vid)
        segset_of[vid] = cur_seg
        vertex_states[vid] = state

    if freeze:
        _fix_masks(tree.segsets, queue.rules.gamma, queue.counts)

    insert, next_seq = queue.insert, queue._seq.__next__
    pin_at, connected = queue.pin_at, queue.connected
    for vid, state in zip(vids, states):
        insert((0.0, vid, -1, next_seq(), segset_of[vid].state if freeze else state, None))
        pins_here = pin_at[vid]
        if pins_here is not None:
            connected |= pins_here

    vids.reverse()
    return vids


def route_net(net: Net, grid: Grid, *, two_pin_mode: bool = False) -> RouteTree:
    """Connect all pins of a net and finalize per-segSet mask colors.

    Does not mutate the grid; committing the returned tree is the
    caller's job. two_pin_mode freezes each connection's colors before
    the next pin is attached, mimicking a chain of independent 2-pin
    routes (comparison arm; the default keeps states open until the whole
    tree is traced).
    """
    if not net.pins:
        raise ValueError(f"net {net.id} has no pins")

    queue = SolutionQueue(grid, net)
    tree = _TreeBuilder()
    for v in net.pins[0].covered_vertices:
        if queue.settled[queue._vid(v)] != -math.inf:
            for cost, state in _seed_labels(queue, v):
                queue.source(v, cost, state)

    total_pins = len(net.pins)
    while len(queue.connected) < total_pins:
        try:
            dst = color_state_search(queue)
        except SearchExhaustedError:
            remaining = sorted(set(range(total_pins)) - queue.connected)
            wall_nets, wall_vertices = _wall_blockers(queue, net, remaining)
            raise UnroutableError(
                net.id,
                remaining,
                f"net {net.id}: pins {remaining} unreachable",
                blocked_nets=wall_nets,
                blocked_vertices=wall_vertices,
            ) from None
        tree.paths.append(backtrace(queue, dst, tree, freeze=two_pin_mode))
        tree.total_cost += dst[0]

    return finalize_colors(queue, tree, net.id)


@lru_cache(maxsize=4)
def _zero_counts(size: int) -> tuple[tuple[int, ...], ...]:
    """Red, green and blue counts of 0 at every one of size vertex ids.

    A queue reads these instead of Grid.foreign_counts when gamma is 0:
    every conflict term is then 0 whatever the counts, and the grid never
    builds or spreads its own. Shared and immutable.
    """
    zeros = (0,) * size
    return zeros, zeros, zeros


def _seed_labels(queue: SolutionQueue, v: Vertex) -> list[tuple[float, int]]:
    """Source labels for a start-pin vertex, one per conflict-cost level.

    The wire occupies the start vertex too, so its per-color conflict
    cost (from the queue's counts) is charged up front: colors with equal
    cost share one label (conflict-free pins reduce to the single label
    cost 0, state 111).
    """
    gamma, i = queue.rules.gamma, queue._vid(v)
    levels: dict[float, int] = {}
    for color, color_counts in zip(COLOR_ORDER, queue.counts):
        cost = gamma * color_counts[i]
        levels[cost] = levels.get(cost, 0) | int(color)
    return [(cost, levels[cost]) for cost in sorted(levels)]


def _region_wall(queue: SolutionQueue, region, net_id: int) -> dict[int, int]:
    """Foreign committed vertex ids bordering a region of ids, with their owners.

    Obstacles are never committed (Grid.commit_route refuses them), so a
    keep-out neighbour with a committed owner is a foreign commit.
    """
    moves, settled, vertices, committed = queue.moves, queue.settled, queue.vertices, queue.committed
    keep_out = -math.inf
    wall: dict[int, int] = {}
    for v in region:
        for _, dvid, _, _ in moves[v]:
            t = v + dvid
            if settled[t] == keep_out and t not in wall:
                owner = committed.get(vertices[t])
                if owner is not None and owner[0] != net_id:
                    wall[t] = owner[0]
    return wall


def _wall_blockers(queue: SolutionQueue, net: Net, remaining: list[int]) -> tuple[set[int], set[Vertex]]:
    """Nets and vertices walling the unreached pins off from the search.

    Flood-fills the pocket still reachable from the stranded pins; the
    separating wall is committed by nets adjacent to both that pocket and
    the exhausted search region (falling back to both sides together when
    the wall is layered from two nets). The walk is over vertex ids,
    through the queue's move table, past the keep-outs in its settled array.
    """
    moves, settled = queue.moves, queue.settled
    keep_out = -math.inf
    pins = (queue._vid(v) for idx in remaining for v in net.pins[idx].covered_vertices)
    stack = [vid for vid in pins if settled[vid] != keep_out]
    pocket = set(stack)
    while stack:
        v = stack.pop()
        for _, dvid, _, _ in moves[v]:
            t = v + dvid
            if settled[t] != keep_out and t not in pocket:
                pocket.add(t)
                stack.append(t)
    pocket_side = _region_wall(queue, pocket, net.id)
    search_side = _region_wall(queue, (vid for vid, held in enumerate(queue.live) if held is not None), net.id)
    shared = pocket_side.keys() & search_side.keys()
    if shared:
        wall = {t: pocket_side[t] for t in shared}
    else:
        wall = pocket_side | search_side
    return set(wall.values()), {queue.vertices[t] for t in wall}


def finalize_colors(queue: SolutionQueue, tree: _TreeBuilder, net_id: int) -> RouteTree:
    """Fix each segSet's mask and derive per-vertex colors and stitches.

    _fix_masks gives each live segSet the mask of least summed member
    conflict cost, read from the queue's counts (Grid.foreign_counts on
    the current grid), ties in RED > GREEN > BLUE order; a segSet fixed
    by a 2-pin-mode backtrace keeps its mask. The tree's vertex ids
    become vertices here, once.
    """
    _fix_masks(tree.segsets, queue.rules.gamma, queue.counts)
    vertices = queue.vertices
    vertex_colors: dict[Vertex, Color] = {}
    masks = set()
    for seg in tree.segsets:
        if seg.members:
            masks.add(seg.state)
            color = Color(seg.state)
            for vid in seg.members:
                vertex_colors[vertices[vid]] = color
    return RouteTree(
        net_id=net_id,
        paths=[[vertices[vid] for vid in path] for path in tree.paths],
        vertex_colors=vertex_colors,
        # A stitch joins two masks, so a one-mask tree has none.
        stitches=recount_stitches(vertex_colors) if len(masks) > 1 else [],
        vertex_states={vertices[vid]: state for vid, state in tree.vertex_states.items()},
        total_cost=tree.total_cost,
    )


def recount_stitches(vertex_colors: dict[Vertex, Color]) -> list[tuple[Vertex, Vertex]]:
    """Same-layer grid-adjacent vertex pairs of one net with different colors."""
    stitches = []
    for v in sorted(vertex_colors):
        x, y, l = v
        for nb in ((x + 1, y, l), (x, y + 1, l)):
            other = vertex_colors.get(nb)
            if other is not None and other != vertex_colors[v]:
                stitches.append((v, nb))
    return stitches
