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

A net is worked in vertex ids from its seeds to its finished tree;
finalize_colors turns them into vertices once, for the RouteTree.

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
O(log n) and labels pop as from one heap of them all. Sources enter
through SolutionQueue.insert; the search runs the same accept inline.

A popped label that covers no unconnected pin relaxes its vertex's
moves, by one of two relaxations picked once per search. The colored
relaxation prices the three masks of each child and accepts it against
its target's labels. The colorless one runs while the queue is colorless
(SolutionQueue.colorless), as in the baseline's colorless pass: gamma is
0 and every label the queue has accepted holds all three masks. Every
conflict term is then 0, so a move from a 111 label makes a 111 child
costing the pop's cost plus alpha times trad, and a vertex holds at most
one live label, the one costing settled. The flag starts as not gamma,
and insert clears it when it accepts a label lacking a mask, as a
one-mask source such as a two-pin-mode re-seed does. The colorless
relaxation makes only 111 children, so the flag stays exact and one
search keeps one relaxation.

Everything the search reads that stays fixed while a net is routed is
taken from the grid once per net, when route_net makes the net's
SolutionQueue, so the grid must not change while the queue is in use.

settled starts as the net's keep-outs (Grid.keep_outs): -inf at every
obstacle and other net's pin or commit, inf elsewhere. A keep-out never
accepts a label, so its entry stays -inf through every search. In both
relaxations, two tests of the target's settled entry, read once per
move, decide a child before its target's labels are scanned:

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
cheaper than it. In the colorless relaxation, such a child replaces the
target's one live label, pruning it. Either way the same labels pop and
are accepted, in the same order, as when every child is priced and
offered to insert.

A net's last connection, the search run while one pin is left, is
bounded (_last_pin_bound; Hart, Nilsson & Raphael, 1968, without their
reordering). U is the least cost of a label at that pin, lowered as
children reach it, and h(v) is alpha per planar step plus alpha *
(1 + via_cost) per layer from v into the pin's bounding box. A popped
label with cost + h over U * _MARGIN (rounding slack) is not relaxed.
Routes stay exact. A move lowers h by at most its cost, so a descendant
of a skipped pop has cost + h over U too: it costs more than any label
at its vertex with cost + h at most U, so cannot dominate, prune or
settle below one. Those labels, the returned chain's among them (each
has cost + h at most the returned cost, at most U), are made, accepted
and popped as unbounded, in the same order. Earlier searches are not
bounded, since their leftovers seed later ones, nor is one at alpha 0
(h is 0) or a subnormal alpha (it rounds absolutely).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from bisect import bisect_right
from heapq import heappop, heappush
from typing import Sequence

from .color_state import ALL_COLORS, COLOR_ORDER, Color
from .grid import Direction, Grid
from .layout import Net, Vertex


RED, GREEN, BLUE = (int(c) for c in COLOR_ORDER)


class SearchExhaustedError(RuntimeError):
    """The solution queue emptied before reaching an unconnected pin."""


class UnroutableError(RuntimeError):
    """A net could not be completed.

    remaining_pins lists the pins the search never reached, and wall maps
    each committed vertex walling them off to the net holding it, so a
    caller can rip those nets up and retry. These three are the
    exception's args, so it pickles and copies. route_all sets iteration,
    which prefixes the message.
    """

    iteration: int | None = None

    def __init__(self, net_id: int, remaining_pins: list[int], wall: dict[Vertex, int]):
        super().__init__(net_id, remaining_pins, wall)
        self.net_id = net_id
        self.remaining_pins = remaining_pins
        self.wall = wall

    def __str__(self) -> str:
        prefix = "" if self.iteration is None else f"iteration {self.iteration}: "
        return f"{prefix}net {self.net_id}: pins {self.remaining_pins} unreachable"


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

    paths: list[list[Vertex]]
    vertex_colors: dict[Vertex, Color]
    stitches: list[tuple[Vertex, Vertex]]
    # Color state each vertex carried when traced (search soundness checks).
    vertex_states: dict[Vertex, int]
    total_cost: float


class SolutionQueue:
    """Bucket queue of search labels with per-vertex Pareto label sets.

    Per vertex id, live holds None or the vertex's live labels, settled
    the least cost of a live 111 label, and pin_at the pins the vertex
    covers; pin_vids lists each pin's vertex ids, and seq is the next
    label's seq. moves, vertices, rules, counts, hist, committed and
    off_guide are the net's search context.
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
        self.seq = 0
        self.live: list[list[Label] | None] = [None] * n
        cover: dict[int, set[int]] = {}
        self.pin_vids: list[list[int]] = []
        for idx, pin in enumerate(net.pins):
            for v in pin.covered_vertices:
                if not grid.in_bounds(v):
                    raise ValueError(f"net {net.id} pin {idx} vertex {v} is off the grid")
                cover.setdefault(grid.vid(v), set()).add(idx)
            self.pin_vids.append([grid.vid(v) for v in pin.covered_vertices])
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
        seq = self.seq
        self.seq = seq + 1
        return self.insert((cost, self._vid(vertex), -1, seq, state, None))

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


# The one call that queues an accepted label; tests wrap it to watch accepts.
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

    heap holds the cost's labels not yet popped, ties the equal-cost
    children accepted since the last pop.
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


# Slack for rounding in the skip test. A returned chain visits a vertex
# at most 7 times (each later label there holds a state no subset of an
# earlier one's), so has under 7 * 2**22 moves (MAX_GRID_VERTICES). Each
# move's cost rounds at most 4 times below its exact sum (trad twice,
# alpha * trad, the add to cost; the conflict term cannot lower it),
# cost + h at most 5 times above, U * _MARGIN once below. With alpha
# normal each rounding is relative: the slack needed is below 2**-26.
_MARGIN = 1.0 + 2.0**-24


def _last_pin_bound(queue: SolutionQueue):
    """The last unconnected pin's vertex ids, per-axis gaps and U, or None.

    The gaps are the module docstring's h per axis, over alpha: h(v) =
    alpha * (gap_x[x] + gap_y[y] + gap_l[l]).
    """
    pin_vids, connected = queue.pin_vids, queue.connected
    if len(connected) != len(pin_vids) - 1 or queue.rules.alpha < sys.float_info.min:
        return None
    (last,) = set(range(len(pin_vids))) - connected
    vids = pin_vids[last]
    if not vids:
        return None
    vertices, live = queue.vertices, queue.live
    x0, y0, l0 = x1, y1, l1 = vertices[vids[0]]
    for i in vids[1:]:
        x, y, l = vertices[i]
        x0, y0, l0 = min(x0, x), min(y0, y), min(l0, l)
        x1, y1, l1 = max(x1, x), max(y1, y), max(l1, l)
    top_x, top_y, top_l = vertices[-1]  # the far corner
    via = 1.0 + queue.rules.via_cost
    gaps = _gaps(x0, x1, top_x, 1.0), _gaps(y0, y1, top_y, 1.0), _gaps(l0, l1, top_l, via)
    least = math.inf
    for i in vids:
        for label in live[i] or ():
            if label[0] < least:
                least = label[0]
    return frozenset(vids), gaps, least


@lru_cache(maxsize=1024)
def _gaps(low: int, high: int, top: int, unit: float) -> tuple[float, ...]:
    """unit times each coordinate's distance to [low, high], for coordinates 0 .. top."""
    return tuple(unit * gap for gap in (*range(low, 0, -1), *(0,) * (high - low + 1), *range(1, top - high + 1)))


class _TreeBuilder:
    """A net's segSets, traced states, paths and summed cost, in vertex ids.

    segset_of maps a traced vertex id to its segSet, and vertex_states to
    the state it carried when first traced.
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
    """Pop labels until one covers an unconnected pin and return it, or raise SearchExhaustedError."""
    rules = queue.rules
    stitch_term = rules.beta * rules.stitch_cost
    alpha, gamma = rules.alpha, rules.gamma
    red, green, blue = queue.counts
    hist, off_guide, settled = queue.hist, queue.off_guide, queue.settled
    moves, live, pin_at, connected = queue.moves, queue.live, queue.pin_at, queue.connected
    buckets, costs, seq, vertices = queue.buckets, queue.costs, queue.seq, queue.vertices
    push, pop, enqueue, inf = heappush, heappop, _enqueue, math.inf
    colorless = queue.colorless  # only insert clears it, and the search never calls insert
    ties: list[Label] = []  # children at the cost being popped
    bound = _last_pin_bound(queue)
    limit = inf  # U with the margin, once a label reaches the last pin
    if bound is not None:  # also tested per child: an unbounded search, as most are, pays one test
        last_vids, (gap_x, gap_y, gap_l), limit = bound
        limit *= _MARGIN
    while costs:
        cost = pop(costs)
        floor = cost + alpha
        run = order = _sorted_live(buckets.pop(cost), live)
        heap = None
        while True:
            for label in order:
                v = label[1]
                pins_here = pin_at[v]
                if pins_here is not None and not pins_here <= connected:
                    queue._put_back(cost, run[bisect_right(run, label):] if heap is None else heap)
                    queue.seq = seq
                    return label
                if limit != inf:
                    x, y, l = vertices[v]
                    if cost + alpha * (gap_x[x] + gap_y[y] + gap_l[l]) > limit:
                        continue
                if colorless:
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
                        if bound is not None and i in last_vids:
                            limit = min(limit, child_cost * _MARGIN)
                        child = (child_cost, i, direction, seq, ALL_COLORS, label)
                        seq += 1
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
                            state = free_planar if planar else ALL_COLORS
                            child_cost = cost + alpha * trad
                        if least <= child_cost:
                            continue  # the live 111 label dominates the child
                        if bound is not None and i in last_vids:
                            limit = min(limit, child_cost * _MARGIN)
                        rivals = live[i]
                        if rivals is None:
                            rivals = live[i] = []
                        else:
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
                        child = (child_cost, i, direction, seq, state, label)
                        seq += 1
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
    queue.seq = seq
    raise SearchExhaustedError("solution queue exhausted")


def backtrace(queue: SolutionQueue, dst: Label, tree: _TreeBuilder, freeze: bool = False) -> list[int]:
    """Walk prev links from dst to the tree, grouping vertex ids into segSets.

    Reaching the tree merges the two segSets when their states share a
    mask. Every pin a traced vertex covers is marked connected. Returns
    the traced path's vertex ids, source first.
    """
    # dst covers an unconnected pin and no traced vertex does, so dst opens
    # its own segSet. The walk ends at a source, the prev-less label: a
    # cost == 0 test would misfire when alpha is 0.
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

    insert, seq = queue.insert, queue.seq
    pin_at, connected = queue.pin_at, queue.connected
    for vid, state in zip(vids, states):
        insert((0.0, vid, -1, seq, segset_of[vid].state if freeze else state, None))
        seq += 1
        pins_here = pin_at[vid]
        if pins_here is not None:
            connected |= pins_here
    queue.seq = seq

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
            raise UnroutableError(net.id, remaining, _wall_blockers(queue, net.id, remaining)) from None
        tree.paths.append(backtrace(queue, dst, tree, freeze=two_pin_mode))
        tree.total_cost += dst[0]

    return finalize_colors(queue, tree)


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


def _wall_blockers(queue: SolutionQueue, net_id: int, remaining: list[int]) -> dict[Vertex, int]:
    """The committed vertices walling the unreached pins off from the search, to their owners.

    Flood-fills the pocket still reachable from the stranded pins; the
    separating wall is committed by nets adjacent to both that pocket and
    the exhausted search region (falling back to both sides together when
    the wall is layered from two nets). The walk is over vertex ids,
    through the queue's move table, past the keep-outs in its settled array.
    """
    moves, settled = queue.moves, queue.settled
    keep_out = -math.inf
    stack = [vid for idx in remaining for vid in queue.pin_vids[idx] if settled[vid] != keep_out]
    pocket = set(stack)
    while stack:
        v = stack.pop()
        for _, dvid, _, _ in moves[v]:
            t = v + dvid
            if settled[t] != keep_out and t not in pocket:
                pocket.add(t)
                stack.append(t)
    pocket_side = _region_wall(queue, pocket, net_id)
    search_side = _region_wall(queue, (vid for vid, held in enumerate(queue.live) if held is not None), net_id)
    shared = pocket_side.keys() & search_side.keys()
    if shared:
        wall = {t: pocket_side[t] for t in shared}
    else:
        wall = pocket_side | search_side
    return {queue.vertices[t]: owner for t, owner in wall.items()}


def finalize_colors(queue: SolutionQueue, tree: _TreeBuilder) -> RouteTree:
    """Fix each segSet's mask and derive per-vertex colors and stitches.

    Masks are _fix_masks's, read from the queue's counts.
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
