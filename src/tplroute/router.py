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
segSet stores its member vertices directly and its verSets stay implicit
as the equal-state runs among them.

Each vertex keeps a Pareto set of (cost, state) labels: a costlier label
survives if its state is not a subset of a cheaper label's, which is what
lets a later stretch reuse a mask that a cheaper arrival had priced out.
On an exact (cost, state) tie the incumbent stays.

A label is one plain tuple, (cost, vid, dir_key, seq, state, prev), and
it is its own heap entry: the first four fields are the pop order, so
runs are reproducible. vid is the vertex id (Grid.vid), dir_key the
arrival Direction or -1 for a source, seq a per-queue counter (unique,
so a heap comparison never reaches state or prev), and prev the
predecessor label or None for a source. Each label is pushed once, so it
pops at most once. A pruned label is not removed from the heap; its seq
goes into the queue's dead set, and a pop skips it. Sources (start-pin
seeds and the traced vertices re-seeded after a backtrace) enter through
SolutionQueue.source, which goes through SolutionQueue.insert. The
search does not call insert or pop: it runs the same accept and the same
pop inline. Both reach the heap only through this module's heappush and
heappop, so every accepted label is one heappush and every pop is one
heappop of a label not in dead.

The search does no work whose result is already known. Everything it
reads that stays fixed while a net is routed is taken from the grid once
per net, when route_net makes the net's SolutionQueue: the foreign
per-mask counts, and the vertex-id arrays of keep-outs (obstacles,
other nets' pins and commits), history and off-guide penalties, each
defined in grid.py and read here as it is. The queue is a snapshot, so
the grid must not change while it is in use; route_net makes one queue
per net and does not change the grid while routing it. The move table
(per vertex id, the on-grid moves as vertex-id offsets with their rule
costs) is shared by every grid of one shape and move costs. Label sets
are keyed by vertex id, and the queue keeps, per vertex id, the least
cost of a label holding all three masks (settled, -inf at keep-outs),
and the pin indices each vertex id covers (pin_at), so whether a popped
label covers a pin is one read. A move is skipped before it is priced
when its target is settled at no more than the popped label's cost:
every cost term is non-negative, so the child could not be cheaper, and
a keep-out is skipped by the same read. A priced child is accepted in
one pass over its target's labels: a label dominating it ends the scan
before the child is built, and otherwise every label it dominates is
marked dead, the label list is rebuilt only if one was, and the child
is appended and pushed. One pass suffices because live labels never
dominate one another. The same labels pop and the same labels are
accepted, in the same order, as when every child is priced and offered
to insert. The rescue path finds a wall of foreign commits by walking
vertex ids through the same move table and keep-outs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Sequence

from .color_state import ALL_COLORS, COLOR_ORDER, Color, colors_in, pick_final
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

    members lists the traced vertices; state is the accumulated
    intersection of their traced states, the one mask once fixed
    (_TreeBuilder.fix_masks). A segSet emptied by a merge has no members.
    """

    state: int
    members: list[Vertex]


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
    """Priority queue of search labels with per-vertex Pareto label sets.

    labels maps a vertex id to its non-empty list of live labels, dead
    holds the seq of every pruned label, and settled[vid] is the least
    cost of a live 111 label there (inf when none, -inf at a keep-out, so
    one read skips both). The rest is the net's search context: moves
    and vertices (Grid.move_table), counts (Grid.foreign_counts), closed
    (Grid.keep_outs, read by the seeding and the wall walk), hist
    (Grid.history itself, not a copy), off_guide (Grid.off_guide), and
    pin_at, per vertex id the frozenset of the net's pin indices covering
    it (None when none). insert is the one entry for sources;
    color_state_search runs insert's accept and pop's skip inline, on the
    same heap. pop has no caller in the package: it stays because
    perfbench/spans.py wraps it by name. The module docstring describes
    how the search uses all of these.
    """

    def __init__(self, grid: Grid, net: Net):
        self._vid = grid.vid
        self.moves, self.vertices = grid.move_table()
        self.counts = grid.foreign_counts(net.id)
        self.closed = grid.keep_outs(net.id)
        self.hist = grid.history
        self.off_guide = grid.off_guide(net.guide)
        self.settled = [-math.inf if shut else math.inf for shut in self.closed]
        self._heap: list[Label] = []
        self._seq = count()
        self.dead: set[int] = set()
        self.labels: dict[int, list[Label]] = {}
        cover: dict[int, set[int]] = {}
        for idx, pin in enumerate(net.pins):
            for v in pin.covered_vertices:
                if grid.in_bounds(v):
                    cover.setdefault(grid.vid(v), set()).add(idx)
        self.pin_at: list[frozenset[int] | None] = [None] * len(self.vertices)
        for vid, pins in cover.items():
            self.pin_at[vid] = frozenset(pins)
        self.connected: set[int] = {0}

    def insert(self, label: Label) -> bool:
        cost, vid, _, _, state, _ = label
        bucket = self.labels.get(vid)
        if bucket is None:
            self.labels[vid] = [label]
        else:
            # One pass suffices: live labels never dominate one another, so
            # no label this one prunes can share the bucket with one that
            # dominates it.
            dead = self.dead
            pruned = False
            for ex in bucket:
                ex_cost, ex_state = ex[0], ex[4]
                if ex_cost <= cost and (ex_state & state) == state:
                    return False  # dominated; ties keep the incumbent
                if cost <= ex_cost and (state & ex_state) == ex_state:
                    dead.add(ex[3])
                    pruned = True
            if pruned:
                bucket = self.labels[vid] = [ex for ex in bucket if ex[3] not in dead]
            bucket.append(label)
        if state == ALL_COLORS:
            # An accepted 111 label undercuts every live one, and prunes it.
            self.settled[vid] = cost
        heappush(self._heap, label)
        return True

    def source(self, vertex: Vertex, cost: float, state: int) -> bool:
        """Insert a source label (no arrival, no predecessor) at vertex."""
        return self.insert((cost, self._vid(vertex), -1, next(self._seq), state, None))

    def pop(self) -> Label | None:
        heap, dead = self._heap, self.dead
        while heap:
            label = heappop(heap)
            if label[3] not in dead:
                return label
        return None


class _TreeBuilder:
    """A net's segSets (each state its one mask once fixed), paths and summed cost."""

    def __init__(self) -> None:
        self.segset_of: dict[Vertex, SegSet] = {}
        self.segsets: list[SegSet] = []
        self.vertex_states: dict[Vertex, int] = {}
        self.paths: list[list[Vertex]] = []
        self.total_cost = 0.0

    def add(self, vertex: Vertex, state: int, seg: SegSet | None = None) -> SegSet:
        """Put a traced vertex into seg, or into a new segSet when seg is None."""
        if seg is None:
            seg = SegSet(state=state, members=[])
            self.segsets.append(seg)
        seg.members.append(vertex)
        self.segset_of[vertex] = seg
        self.vertex_states.setdefault(vertex, state)
        return seg

    def merge_segsets(self, into: SegSet, other: SegSet, shared: int) -> None:
        into.state = shared
        for v in other.members:
            self.segset_of[v] = into
        into.members.extend(other.members)
        other.members.clear()

    def fix_masks(self, grid: Grid, counts: Sequence[list[int]]) -> None:
        """Narrow every live segSet's state to its cheapest mask; a fixed one keeps its own."""
        for seg in self.segsets:
            if seg.members:
                seg.state = int(_cheapest_color(seg, grid, counts))


def _cheapest_color(seg: SegSet, grid: Grid, counts: Sequence[list[int]]) -> Color:
    """The segSet's mask with the least summed conflict cost over its members.

    counts are the net's foreign red, green and blue counts
    (Grid.foreign_counts), so a member's cost is gamma times its count.
    """
    gamma = grid.rules.gamma
    ids = [grid.vid(v) for v in seg.members]
    by_color = dict(zip(COLOR_ORDER, counts))
    costs = {c: sum(gamma * by_color[c][i] for i in ids) for c in colors_in(seg.state)}
    return pick_final(seg.state, costs)


def color_state_search(queue: SolutionQueue, grid: Grid, net: Net) -> Label:
    """Pop minimum-cost labels until one covers a not-yet-connected pin, and return it.

    Every popped label relaxes its vertex's moves from the queue's per-net
    context and accepts its children itself, as the module docstring
    describes. Raises SearchExhaustedError when the queue empties first.
    """
    rules = grid.rules
    stitch_term = rules.beta * rules.stitch_cost
    alpha, gamma = rules.alpha, rules.gamma
    red, green, blue = queue.counts
    hist, off_guide, settled = queue.hist, queue.off_guide, queue.settled
    moves, labels, pin_at, connected = queue.moves, queue.labels, queue.pin_at, queue.connected
    heap, dead, next_seq = queue._heap, queue.dead, queue._seq.__next__
    push, pop = heappush, heappop
    while heap:
        label = pop(heap)
        if label[3] in dead:
            continue
        cost, v, _, _, held, _ = label
        pins_here = pin_at[v]
        if pins_here is not None and not pins_here <= connected:
            return label
        for direction, dvid, planar, base_trad in moves[v]:
            i = v + dvid
            if settled[i] <= cost:
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
                best, state = math.inf, 0
                if red_term < best:
                    best, state = red_term, RED
                elif red_term == best:
                    state = RED
                if green_term < best:
                    best, state = green_term, GREEN
                elif green_term == best:
                    state |= GREEN
                if blue_term < best:
                    best, state = blue_term, BLUE
                elif blue_term == best:
                    state |= BLUE
            else:
                # No conflicts: the masks in the held state cost nothing.
                best, state = 0.0, held if planar and stitch_term else ALL_COLORS
            child_cost = cost + alpha * trad + best
            bucket = labels.get(i)
            if bucket is None:
                bucket = labels[i] = []
            else:
                # insert's one-pass accept, run before the child is built.
                dominated = pruned = False
                for ex in bucket:
                    ex_cost, ex_state = ex[0], ex[4]
                    if ex_cost <= child_cost and (ex_state & state) == state:
                        dominated = True  # ties keep the incumbent
                        break
                    if child_cost <= ex_cost and (state & ex_state) == ex_state:
                        dead.add(ex[3])
                        pruned = True
                if dominated:
                    continue
                if pruned:
                    bucket = labels[i] = [ex for ex in bucket if ex[3] not in dead]
            child = (child_cost, i, direction, next_seq(), state, label)
            bucket.append(child)
            if state == ALL_COLORS:
                settled[i] = child_cost
            push(heap, child)
    raise SearchExhaustedError("solution queue exhausted")


def backtrace(
    queue: SolutionQueue,
    dst: Label,
    tree: _TreeBuilder,
    grid: Grid,
    freeze: bool = False,
) -> list[Vertex]:
    """Walk prev links from dst to the tree, grouping vertices into segSets.

    A predecessor joins the growing segSet while the segSet's accumulated
    state still shares a mask with it (the share becomes the new state);
    otherwise the segSet closes and a fresh one starts, which is where a
    stitch will fall. Hitting a vertex that already belongs to the tree
    merges the two segSets when their states share a mask. All traced
    vertices are re-inserted as sources at cost 0 so the next search
    starts from the whole tree.
    """
    # Sources (pin seeds and re-seeded tree labels) are exactly the
    # prev-less labels, so the walk ends at one; a cost == 0 test would
    # misfire when alpha is 0.
    vertices = queue.vertices
    trace: list[tuple[Vertex, int]] = []
    label: Label | None = dst
    while label is not None:
        trace.append((vertices[label[1]], label[4]))
        label = label[5]

    dst_vertex, dst_state = trace[0]
    cur_seg = tree.segset_of.get(dst_vertex)
    if cur_seg is None:
        cur_seg = tree.add(dst_vertex, dst_state)
    for vertex, state in trace[1:]:
        other_seg = tree.segset_of.get(vertex)
        if other_seg is not None:
            if other_seg is not cur_seg:
                shared = cur_seg.state & other_seg.state
                if shared:
                    tree.merge_segsets(cur_seg, other_seg, shared)
                else:
                    # no shared mask: segSet boundary, the junction is a stitch
                    cur_seg = other_seg
        else:
            shared = cur_seg.state & state
            if shared:
                cur_seg.state = shared
                tree.add(vertex, state, cur_seg)
            else:
                cur_seg = tree.add(vertex, state)

    if freeze:
        tree.fix_masks(grid, queue.counts)

    for vertex, state in trace:
        queue.source(vertex, 0.0, tree.segset_of[vertex].state if freeze else state)

    return [vertex for vertex, _ in reversed(trace)]


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
    if len(net.pins) == 1:
        return RouteTree(net.id, [], {}, [], {}, 0.0)

    queue = SolutionQueue(grid, net)
    tree = _TreeBuilder()
    for v in net.pins[0].covered_vertices:
        if grid.in_bounds(v) and not queue.closed[grid.vid(v)]:
            for cost, state in _seed_labels(grid, queue.counts, v):
                queue.source(v, cost, state)

    total_pins = len(net.pins)
    while len(queue.connected) < total_pins:
        try:
            dst = color_state_search(queue, grid, net)
        except SearchExhaustedError:
            remaining = sorted(set(range(total_pins)) - queue.connected)
            wall_nets, wall_vertices = _wall_blockers(queue, grid, net, remaining)
            raise UnroutableError(
                net.id,
                remaining,
                f"net {net.id}: pins {remaining} unreachable",
                blocked_nets=wall_nets,
                blocked_vertices=wall_vertices,
            ) from None
        path = backtrace(queue, dst, tree, grid, freeze=two_pin_mode)
        tree.paths.append(path)
        tree.total_cost += dst[0]
        for v in path:
            pins_here = queue.pin_at[grid.vid(v)]
            if pins_here is not None:
                queue.connected |= pins_here

    return finalize_colors(tree, grid, net.id, queue.counts)


def _seed_labels(grid: Grid, counts: Sequence[list[int]], v: Vertex) -> list[tuple[float, int]]:
    """Source labels for a start-pin vertex, one per conflict-cost level.

    The wire occupies the start vertex too, so its per-color conflict
    cost (from the net's foreign red, green and blue counts) is charged
    up front: colors with equal cost share one label (conflict-free pins
    reduce to the single label cost 0, state 111).
    """
    gamma, i = grid.rules.gamma, grid.vid(v)
    levels: dict[float, int] = {}
    for color, color_counts in zip(COLOR_ORDER, counts):
        cost = gamma * color_counts[i]
        levels[cost] = levels.get(cost, 0) | int(color)
    return [(cost, levels[cost]) for cost in sorted(levels)]


def _region_wall(queue: SolutionQueue, grid: Grid, region, net_id: int) -> dict[int, int]:
    """Foreign committed vertex ids bordering a region of ids, with their owners.

    Obstacles are never committed (Grid.commit_route refuses them), so a
    closed neighbour with a committed owner is a foreign commit.
    """
    moves, closed, vertices, committed = queue.moves, queue.closed, queue.vertices, grid.committed
    wall: dict[int, int] = {}
    for v in region:
        for _, dvid, _, _ in moves[v]:
            t = v + dvid
            if closed[t] and t not in wall:
                owner = committed.get(vertices[t])
                if owner is not None and owner[0] != net_id:
                    wall[t] = owner[0]
    return wall


def _wall_blockers(
    queue: SolutionQueue, grid: Grid, net: Net, remaining: list[int]
) -> tuple[set[int], set[Vertex]]:
    """Nets and vertices walling the unreached pins off from the search.

    Flood-fills the pocket still reachable from the stranded pins; the
    separating wall is committed by nets adjacent to both that pocket and
    the exhausted search region (falling back to both sides together when
    the wall is layered from two nets). The walk is over vertex ids,
    through the queue's move table and keep-out array.
    """
    moves, closed = queue.moves, queue.closed
    stack = [
        grid.vid(v)
        for idx in remaining
        for v in net.pins[idx].covered_vertices
        if grid.in_bounds(v) and not closed[grid.vid(v)]
    ]
    pocket = set(stack)
    while stack:
        v = stack.pop()
        for _, dvid, _, _ in moves[v]:
            t = v + dvid
            if not closed[t] and t not in pocket:
                pocket.add(t)
                stack.append(t)
    pocket_side = _region_wall(queue, grid, pocket, net.id)
    search_side = _region_wall(queue, grid, queue.labels, net.id)
    shared = pocket_side.keys() & search_side.keys()
    if shared:
        wall = {t: pocket_side[t] for t in shared}
    else:
        wall = pocket_side | search_side
    return set(wall.values()), {queue.vertices[t] for t in wall}


def finalize_colors(
    tree: _TreeBuilder, grid: Grid, net_id: int, counts: Sequence[list[int]]
) -> RouteTree:
    """Fix each segSet's mask and derive per-vertex colors and stitches.

    _TreeBuilder.fix_masks gives each live segSet the mask of least summed
    member conflict cost, read from counts (Grid.foreign_counts on the
    current grid), ties in RED > GREEN > BLUE order; a segSet fixed by a
    2-pin-mode backtrace keeps its mask.
    """
    tree.fix_masks(grid, counts)
    vertex_colors: dict[Vertex, Color] = {}
    for seg in tree.segsets:
        if seg.members:
            vertex_colors.update(dict.fromkeys(seg.members, Color(seg.state)))
    return RouteTree(
        net_id=net_id,
        paths=tree.paths,
        vertex_colors=vertex_colors,
        stitches=recount_stitches(vertex_colors),
        vertex_states=dict(tree.vertex_states),
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
