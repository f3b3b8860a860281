"""Mutable 3-D routing substrate: occupancy, committed colors, history cost.

Vertices are (x, y, layer) tuples. On-layer moves follow the six-direction
scheme F/B (along the layer's preferred axis), R/L (across it, penalized),
and U/D (vias). Edge cost composes as

    alpha * trad + beta * stitch_cost * stitch_indicator + color_cost

where trad = 1 + wrong-way + via + target history + off-guide penalty and
color_cost = gamma * (foreign same-color commits within Manhattan distance
< d_color of the target, on the target's layer).

Each grid fact the router reads is defined once here, per vertex id
(Grid.vid): the move table, a net's keep_outs, the history cost
(PathFinder-style negotiation, McMurchie & Ebeling, FPGA 1995), a
guide's off_guide penalties, and the d_color stencils.

Next to the committed vertex -> (net, color) map, the grid keeps, per
mask, how many commits lie within the d_color stencil of each vertex, so
a color cost is one list read rather than a stencil scan. The counts are
built on the first read and then kept in step by the map's only three
writers: commit_route, rip_up and recolor_vertex. The first two also keep
each net's committed vertices and a per-vertex-id occupied array in step,
so a net's keep-outs start from a copy of that array and a rip-up walks
only the net's own commits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cache, lru_cache
from itertools import chain

from .color_state import COLOR_ORDER, Color
from .layout import DesignRules, Layout, Vertex


class Direction(IntEnum):
    F = 0  # forward along preferred axis
    B = 1  # backward along preferred axis
    R = 2  # right across preferred axis
    L = 3  # left across preferred axis
    U = 4  # up one layer
    D = 5  # down one layer


VIA_DIRECTIONS = (Direction.U, Direction.D)

# (Direction, (dx, dy, dl)) in F,B,R,L,U,D order, on a layer whose
# preferred axis is horizontal and on one whose preferred axis is vertical.
_STEPS_H = tuple(
    zip(Direction, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)))
)
_STEPS_V = tuple(
    zip(Direction, ((0, 1, 0), (0, -1, 0), (1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1)))
)

# A move out of a vertex: (direction, target vid - source vid, planar, base_trad).
Move = tuple[Direction, int, bool, float]


class CollisionError(RuntimeError):
    """A commit touched a vertex owned by a different net."""


@dataclass
class Grid:
    width: int
    height: int
    layer_dirs: list[str]  # "H" or "V" per layer
    rules: DesignRules
    obstacles: set[Vertex] = field(default_factory=set)
    # vertex -> (net_id, color). Written only by commit_route, rip_up and
    # recolor_vertex, which keep _counts, _owned and _occupied in step; a
    # map passed in is copied.
    committed: dict[Vertex, tuple[int, Color]] = field(default_factory=dict)
    # Per vertex id, the history cost added by negotiation (None: all zeros).
    history: list[float] | None = None
    # Pin vertices are keep-outs for every other net.
    pin_owners: dict[Vertex, int] = field(default_factory=dict)
    # (d_color, per mask the commits within d_color of each vertex id), or
    # None until a read builds it (see foreign_counts).
    _counts: tuple[int, dict[Color, list[int]]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # Per net id, its committed vertices; and per vertex id, 1 where an
    # in-grid vertex is committed. commit_route and rip_up keep both in step.
    _owned: dict[int, set[Vertex]] = field(default_factory=dict, init=False, repr=False, compare=False)
    _occupied: bytearray = field(default_factory=bytearray, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.committed = dict(self.committed)
        size = self.width * self.height * self.num_layers
        if self.history is None:
            self.history = [0.0] * size
        self._occupied = bytearray(size)
        for v, (net_id, _) in self.committed.items():
            self._owned.setdefault(net_id, set()).add(v)
            if self.in_bounds(v):
                self._occupied[self.vid(v)] = 1

    @classmethod
    def from_layout(cls, layout: Layout) -> "Grid":
        pin_owners: dict[Vertex, int] = {}
        for net in layout.nets:
            for pin in net.pins:
                for v in pin.covered_vertices:
                    pin_owners[v] = net.id
        return cls(
            width=layout.width,
            height=layout.height,
            layer_dirs=[layer.preferred_direction for layer in layout.layers],
            rules=layout.rules,
            obstacles=set(layout.obstacles),
            pin_owners=pin_owners,
        )

    @property
    def num_layers(self) -> int:
        return len(self.layer_dirs)

    def in_bounds(self, v: Vertex) -> bool:
        x, y, l = v
        return 0 <= x < self.width and 0 <= y < self.height and 0 <= l < self.num_layers

    def vid(self, v: Vertex) -> int:
        """Row-major vertex id, used for deterministic tie-breaking."""
        x, y, l = v
        return (l * self.height + y) * self.width + x

    def clamp_d_color(self, d_color: int) -> int:
        """d_color capped at width + height - 1, the size its stencils are built at.

        No two vertices of a layer lie that far apart, so a larger d_color
        covers no more pairs; only its stencils would grow without bound.
        """
        return min(d_color, self.width + self.height - 1)

    def step(self, v: Vertex, direction: Direction) -> Vertex | None:
        """Geometric neighbor in a direction, or None if v or the neighbor is off-grid."""
        if not self.in_bounds(v):
            return None
        x, y, l = v
        steps = _STEPS_H if self.layer_dirs[l] == "H" else _STEPS_V
        dx, dy, dl = steps[direction][1]
        tx, ty, tl = x + dx, y + dy, l + dl
        if 0 <= tx < self.width and 0 <= ty < self.height and 0 <= tl < len(self.layer_dirs):
            return (tx, ty, tl)
        return None

    def move_table(self) -> tuple[tuple[tuple[Move, ...], ...], tuple[Vertex, ...]]:
        """Per vertex id, its on-grid moves; and the vertex of each id.

        Shared by every grid of this shape and these move costs (see
        _move_table).
        """
        return _move_table(self.width, self.height, tuple(self.layer_dirs), _base_trad(self.rules))

    def keep_outs(self, net_id: int) -> bytearray:
        """Per vertex id, 1 where net_id may not go, else 0.

        The keep-outs are obstacles, other nets' pins and other nets'
        commits; entries off the grid are ignored. Built from the
        occupied ids with the net's own commits cleared, so only the
        net's own commits, the obstacles and the pins are walked.
        """
        width, height, layers = self.width, self.height, self.num_layers
        closed = bytearray(self._occupied)
        for x, y, l in self._owned.get(net_id, ()):
            if 0 <= x < width and 0 <= y < height and 0 <= l < layers:
                closed[(l * height + y) * width + x] = 0
        entries = chain(self.obstacles, [v for v, owner in self.pin_owners.items() if owner != net_id])
        for x, y, l in entries:
            if 0 <= x < width and 0 <= y < height and 0 <= l < layers:
                closed[(l * height + y) * width + x] = 1
        return closed

    def off_guide(self, guide: list[tuple[int, int, int, int, int]] | None) -> list[float] | None:
        """Per vertex id, the off-guide penalty: 0 inside a guide box, else the rule's.

        None when there is no guide, given as None or as no boxes. Boxes
        are (layer, x0, y0, x1, y1) with inclusive bounds; the parts off
        the grid are ignored.
        """
        if not guide:
            return None
        width, height, layers = self.width, self.height, self.num_layers
        off_guide = [self.rules.off_guide_penalty] * (width * height * layers)
        for gl, x0, y0, x1, y1 in guide:
            if 0 <= gl < layers:
                for y in range(max(y0, 0), min(y1, height - 1) + 1):
                    row = (gl * height + y) * width
                    for x in range(max(x0, 0), min(x1, width - 1) + 1):
                        off_guide[row + x] = 0.0
        return off_guide

    def foreign_counts(self, net_id: int) -> tuple[list[int], list[int], list[int]]:
        """Red, green and blue counts, per vertex id, of other nets' commits.

        A count is of the commits of nets other than net_id that lie within
        Manhattan distance < d_color on the vertex's layer. They are the
        grid's own lists when net_id has nothing committed, else copies
        with the net's own commits taken out. The grid's lists are built
        from committed on the first read, and again when rules.d_color
        (clamped by clamp_d_color) is not the one they were built under.
        """
        d_color = self.clamp_d_color(self.rules.d_color)
        if self._counts is None or self._counts[0] != d_color:
            size = self.width * self.height * self.num_layers
            self._counts = (d_color, {c: [0] * size for c in Color})
            for v, (_, color) in self.committed.items():
                self._spread(v, color, 1)
        counts = self._counts[1]
        own = self._owned.get(net_id)
        if own:
            counts = {c: list(counts[c]) for c in COLOR_ORDER}
            for v in own:
                self._spread(v, self.committed[v][1], -1, counts)
        return counts[Color.RED], counts[Color.GREEN], counts[Color.BLUE]

    def net_vertices(self, net_id: int) -> set[Vertex]:
        """The vertices committed to net_id (empty when it has none)."""
        return set(self._owned.get(net_id, ()))

    def _spread(self, v: Vertex, color: Color, delta: int, counts=None) -> None:
        """Add delta to color's count at every in-grid vertex of v's d_color stencil.

        counts replaces the grid's own counts as the target when given;
        without it, nothing happens until the grid's counts are built.
        """
        if self._counts is None:
            return
        d_color, own = self._counts
        x, y, l = v
        if not 0 <= l < self.num_layers:
            return
        width, height = self.width, self.height
        lst = (counts or own)[color]
        base = l * height
        for dx, dy in _stencil(d_color):
            tx, ty = x + dx, y + dy
            if 0 <= tx < width and 0 <= ty < height:
                lst[(base + ty) * width + tx] += delta

    def color_cost(self, v: Vertex, direction: Direction, color: Color, net_id: int) -> float:
        """Conflict cost of arriving at the target of (v, direction) with a color.

        gamma times the target's foreign_counts entry. The search reads
        those counts directly; this method stays because perfbench/spans.py
        wraps it by name.
        """
        target = self.step(v, direction)
        if target is None:
            raise ValueError(f"no edge from {v} in direction {direction.name}")
        counts = self.foreign_counts(net_id)
        return self.rules.gamma * counts[COLOR_ORDER.index(color)][self.vid(target)]

    # ---- occupancy ---------------------------------------------------

    def commit_route(self, net_id: int, colored_path: list[tuple[Vertex, Color]]) -> None:
        """Mark vertices committed to net_id with their final colors.

        Re-commits by the same net are idempotent; touching another net's
        vertex is a logic error, not a design-rule conflict. Every vertex
        is checked before any is written, so a rejected path commits nothing.
        """
        for v, _ in colored_path:
            if v in self.obstacles:
                raise CollisionError(f"vertex {v} is an obstacle")
            owner = self.committed.get(v)
            if owner is not None and owner[0] != net_id:
                raise CollisionError(
                    f"vertex {v} already committed to net {owner[0]}, not {net_id}"
                )
        committed, occupied = self.committed, self._occupied
        owned = self._owned.setdefault(net_id, set())
        width, height, layers = self.width, self.height, self.num_layers
        spread = self._counts is not None
        for v, color in colored_path:
            old = committed.get(v)
            committed[v] = (net_id, color)
            if old is None:
                owned.add(v)
                x, y, l = v
                if 0 <= x < width and 0 <= y < height and 0 <= l < layers:
                    occupied[(l * height + y) * width + x] = 1
            elif spread:
                self._spread(v, old[1], -1)
            if spread:
                self._spread(v, color, 1)

    def rip_up(self, net_id: int) -> None:
        """Free every vertex of a net. History costs stay."""
        committed, occupied = self.committed, self._occupied
        width, height, layers = self.width, self.height, self.num_layers
        spread = self._counts is not None
        for v in self._owned.pop(net_id, ()):
            _, color = committed.pop(v)
            x, y, l = v
            if 0 <= x < width and 0 <= y < height and 0 <= l < layers:
                occupied[(l * height + y) * width + x] = 0
            if spread:
                self._spread(v, color, -1)

    def recolor_vertex(self, v: Vertex, color: Color) -> None:
        """Change the committed color of a vertex without moving it."""
        owner = self.committed.get(v)
        if owner is None:
            raise KeyError(f"vertex {v} is not committed")
        self.committed[v] = (owner[0], color)
        self._spread(v, owner[1], -1)
        self._spread(v, color, 1)

    def add_history(self, v: Vertex, amount: float) -> None:
        """Add amount to v's history cost; it stays through rip-ups.

        amount must be finite and non-negative: the search skips a move
        before pricing it on the premise that no cost term is negative.
        """
        if not self.in_bounds(v):
            raise ValueError(f"vertex {v} is off the grid")
        if not (math.isfinite(amount) and amount >= 0):
            raise ValueError(f"history amount must be finite and non-negative, got {amount}")
        self.history[self.vid(v)] += amount


@lru_cache(maxsize=32)
def _move_table(
    width: int, height: int, layer_dirs: tuple[str, ...], base_trad: tuple[float, ...]
) -> tuple[tuple[tuple[Move, ...], ...], tuple[Vertex, ...]]:
    """Per vertex id, the moves that stay on the grid; and each id's vertex.

    A row lists (direction, vid offset, planar, base_trad) in F,B,R,L,U,D
    order, where base_trad is the move's rule cost (1, plus the wrong-way
    or via cost). A row depends only on the vertex's layer and on which grid
    edges it lies on, so it is built once per such class and shared by
    the class's vertices: a grid holds at most nine rows per layer
    whatever its size. The table is cached on its arguments, which are
    all it depends on; the result is immutable.
    """
    layers = len(layer_dirs)
    by_class: dict[tuple[int, bool, bool, bool, bool], tuple[Move, ...]] = {}
    rows: list[tuple[Move, ...]] = []
    vertices: list[Vertex] = []
    for l, preferred in enumerate(layer_dirs):
        steps = _STEPS_H if preferred == "H" else _STEPS_V
        for y in range(height):
            for x in range(width):
                key = (l, x == 0, x == width - 1, y == 0, y == height - 1)
                row = by_class.get(key)
                if row is None:
                    row = by_class[key] = tuple(
                        (d, (dl * height + dy) * width + dx, d not in VIA_DIRECTIONS, base_trad[d])
                        for d, (dx, dy, dl) in steps
                        if 0 <= x + dx < width and 0 <= y + dy < height and 0 <= l + dl < layers
                    )
                rows.append(row)
                vertices.append((x, y, l))
    return tuple(rows), tuple(vertices)


def _base_trad(rules: DesignRules) -> tuple[float, ...]:
    """A move's traditional cost before the history and off-guide terms, by Direction."""
    wrong_way = 1.0 + rules.wrong_way_cost
    via = 1.0 + rules.via_cost
    return (1.0, 1.0, wrong_way, wrong_way, via, via)


@cache
def _stencil(d_color: int) -> tuple[tuple[int, int], ...]:
    """All (dx, dy) offsets with |dx| + |dy| < d_color."""
    r = d_color - 1
    return tuple(
        (dx, dy)
        for dx in range(-r, r + 1)
        for dy in range(-r, r + 1)
        if abs(dx) + abs(dy) < d_color
    )


@cache
def half_stencil(d_color: int) -> tuple[tuple[int, int], ...]:
    """The offsets of _stencil with dy > 0, or dy == 0 and dx > 0: one of each +/- pair."""
    return tuple((dx, dy) for dx, dy in _stencil(d_color) if dy > 0 or (dy == 0 and dx > 0))
