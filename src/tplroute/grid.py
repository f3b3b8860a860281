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
guide's off_guide penalties, and the d_color stencils with their clamp.
Grid.close_pairs walks the stencil over the commits; both conflict
relations (negotiation.detect_conflicts, baseline.build_conflict_graph)
are read from it.

A grid's geometry is checked once, when it is built, and trusted after:
construction raises ValueError for an obstacle, pin or commit off the
grid, a pin on an obstacle, a commit on an obstacle or another net's pin,
or a history whose length is not the vertex count. obstacles is a
frozenset, layer_dirs a tuple and pin_owners a read-only PinOwners copy,
so none can be changed in place, and rebinding width, height,
layer_dirs, obstacles or pin_owners raises AttributeError; a grid with
other geometry is a new grid (dataclasses.replace). Past these checks
and commit_route's, no reader tests whether an entry lies on the grid.

Next to the committed vertex -> (net, color) map, the grid keeps, per
mask, how many commits lie within the d_color stencil of each vertex, so
a color cost is one list read rather than a stencil scan. The counts are
built on the first read and then kept in step by the map's only two
writers, commit_route and rip_up, which also keep each net's committed
vertices and one per-vertex-id keep-out template (-inf at every obstacle,
pin and commit, inf elsewhere) in step. A net's
keep-outs are a copy of the template with its own commits and pins set
to inf, which is the array its search starts from (router.SolutionQueue).
commit_route reads the template first, so a vertex at inf skips the
obstacle, pin and commit lookups; a vertex the committing net already
holds skips the obstacle and pin lookups, as no commit lies on either.
A vertex at least d_color - 1 tracks
from every edge of its layer spreads its count through one cached tuple
of vid offsets (_stencil_offsets) with no bounds test; any other vertex,
and every vertex once d_color passes the clamp, takes the checked walk.

The grid also keeps, in one slot (_last_scan), the conflicts of
negotiation.detect_conflicts's last scan with the clamped d_color it
ran at, so a second scan of an unchanged grid is a copy. The slot has
two writers, both through negotiation.keep_scan: detect_conflicts, and
baseline.run_baseline, which hands over the pairs its conflict graph
was read from once its recolors are committed. The map's two writers,
commit_route and rip_up, clear it, once per call.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
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


# The fields that fix a grid's geometry; Grid.__setattr__ refuses to rebind them.
_GEOMETRY = frozenset({"width", "height", "layer_dirs", "obstacles", "pin_owners"})
# One shared object each, so the keep-out template holds no float of its own.
_INF, _KEEP_OUT = math.inf, -math.inf


class CollisionError(RuntimeError):
    """A commit touched a vertex owned by a different net."""


class PinOwners(Mapping):
    """Pin vertex -> owning net id, read-only: a grid's pins are fixed when it is built."""

    __slots__ = ("_owners",)

    def __init__(self, owners=()):
        self._owners: dict[Vertex, int] = dict(owners)

    def __getitem__(self, v: Vertex) -> int:
        return self._owners[v]

    def __iter__(self):
        return iter(self._owners)

    def __len__(self) -> int:
        return len(self._owners)

    def get(self, v, default=None):
        return self._owners.get(v, default)  # commit_route reads one per vertex

    def __repr__(self) -> str:
        return f"PinOwners({self._owners!r})"


@dataclass
class Grid:
    width: int
    height: int
    layer_dirs: tuple[str, ...]  # "H" or "V" per layer
    rules: DesignRules
    obstacles: frozenset[Vertex] = frozenset()
    # vertex -> (net_id, color). Written only by commit_route and rip_up,
    # which keep _counts, _owned and _blocked in step; a map passed in is
    # committed through commit_route, in its order.
    committed: dict[Vertex, tuple[int, Color]] = field(default_factory=dict)
    # Per vertex id, the history cost added by negotiation (None: all zeros).
    history: list[float] | None = None
    # Pin vertices are keep-outs for every other net.
    pin_owners: Mapping[Vertex, int] = field(default_factory=PinOwners)
    # (d_color, per mask the commits within d_color of each vertex id), or
    # None until a read builds it (see foreign_counts).
    _counts: tuple[int, dict[Color, list[int]]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # Per net id, its committed vertices and its pins' vertex ids; and per
    # vertex id, -inf at every obstacle, pin and commit and inf elsewhere
    # (the keep-out template).
    _owned: dict[int, set[Vertex]] = field(default_factory=dict, init=False, repr=False, compare=False)
    _pin_vids: dict[int, list[int]] = field(default_factory=dict, init=False, repr=False, compare=False)
    _blocked: list[float] = field(default_factory=list, init=False, repr=False, compare=False)
    # (clamped d_color, its conflicts) from the last negotiation.keep_scan,
    # or None; commit_route and rip_up clear it.
    _last_scan: tuple[int, list] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        size = self.width * self.height * self.num_layers
        object.__setattr__(self, "obstacles", frozenset(self.obstacles))
        object.__setattr__(self, "layer_dirs", tuple(self.layer_dirs))
        object.__setattr__(self, "pin_owners", PinOwners(self.pin_owners))
        # A copy, as committed is: a grid made by dataclasses.replace keeps its own history.
        self.history = [0.0] * size if self.history is None else list(self.history)
        if len(self.history) != size:
            raise ValueError(f"history has {len(self.history)} entries for {size} vertices")
        width, height, layers = self.width, self.height, self.num_layers
        blocked = self._blocked = [_INF] * size
        for v in chain(self.obstacles, self.pin_owners):
            x, y, l = v
            if not (0 <= x < width and 0 <= y < height and 0 <= l < layers):
                raise ValueError(f"obstacle or pin vertex {v} is off the grid")
            blocked[(l * height + y) * width + x] = _KEEP_OUT
        if not self.obstacles.isdisjoint(self.pin_owners):
            raise ValueError(f"pin vertices {sorted(self.obstacles & self.pin_owners.keys())} sit on obstacles")
        for (x, y, l), net_id in self.pin_owners.items():
            self._pin_vids.setdefault(net_id, []).append((l * height + y) * width + x)
        committed, self.committed = self.committed, {}
        for v, (net_id, color) in committed.items():
            try:
                self.commit_route(net_id, [(v, color)])
            except CollisionError as exc:
                raise ValueError(str(exc)) from None

    def __setattr__(self, name: str, value) -> None:
        if name in _GEOMETRY and name in self.__dict__:
            raise AttributeError(f"a grid's {name} is fixed when it is built; use dataclasses.replace")
        object.__setattr__(self, name, value)

    @classmethod
    def from_layout(cls, layout: Layout) -> "Grid":
        pin_owners = {v: net.id for net in layout.nets for pin in net.pins for v in pin.covered_vertices}
        return cls(
            width=layout.width,
            height=layout.height,
            layer_dirs=tuple(layout.layers),
            rules=layout.rules,
            obstacles=frozenset(layout.obstacles),
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

    def close_pairs(
        self, d_color: int
    ) -> Iterator[tuple[Vertex, Vertex, int, tuple[int, Color], tuple[int, Color]]]:
        """Each pair of commits of different nets, on one layer, closer than d_color.

        Yields (a, b, distance, committed[a], committed[b]) once per pair,
        with a < b and distance their Manhattan distance, in no set order.
        The walk steps from every commit through the half stencil at
        d_color clamped as foreign_counts clamps it (_clamp).
        """
        half = _half_stencil(self._clamp(d_color))
        committed = self.committed
        for v, entry in committed.items():
            x, y, l = v
            net = entry[0]
            for dx, dy, distance in half:
                w = (x + dx, y + dy, l)
                other = committed.get(w)
                if other is not None and other[0] != net:
                    # v < w exactly when dx >= 0, as the half stencil has dy > 0 where dx == 0.
                    yield (v, w, distance, entry, other) if dx >= 0 else (w, v, distance, other, entry)

    def _clamp(self, d_color: int) -> int:
        # No two vertices of a layer lie width + height - 1 apart, so a larger
        # d_color covers no more pairs; only its stencils would grow without bound.
        return min(d_color, self.width + self.height - 1)

    def move_table(self) -> tuple[tuple[tuple[Move, ...], ...], tuple[Vertex, ...]]:
        """Per vertex id, its on-grid moves; and the vertex of each id.

        Shared by every grid of this shape and these move costs (see
        _move_table).
        """
        return _move_table(self.width, self.height, self.layer_dirs, _base_trad(self.rules))

    def keep_outs(self, net_id: int) -> list[float]:
        """Per vertex id, -inf at an obstacle or another net's pin or commit, else inf.

        A copy of the grid's template with the net's own commits and pins
        set to inf: the settled array a search of the net starts from.
        """
        width, height = self.width, self.height
        keep_outs = list(self._blocked)
        for x, y, l in self._owned.get(net_id, ()):
            keep_outs[(l * height + y) * width + x] = _INF
        for vid in self._pin_vids.get(net_id, ()):
            keep_outs[vid] = _INF
        return keep_outs

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
        (clamped by _clamp) is not the one they were built under.
        """
        d_color = self._clamp(self.rules.d_color)
        if self._counts is None or self._counts[0] != d_color:
            size = self.width * self.height * self.num_layers
            self._counts = (d_color, {c: [0] * size for c in Color})
            self._spread([(v, color, 1) for v, (_, color) in self.committed.items()], self._counts[1])
        counts = self._counts[1]
        own = self._owned.get(net_id)
        if own:
            counts = {c: list(counts[c]) for c in COLOR_ORDER}
            self._spread([(v, self.committed[v][1], -1) for v in own], counts)
        return counts[Color.RED], counts[Color.GREEN], counts[Color.BLUE]

    def _spread(self, entries: list[tuple[Vertex, Color, int]], counts: dict[Color, list[int]]) -> None:
        """For each (vertex, color, delta), add delta to color's list in counts across the vertex's stencil.

        The stencil is the one at the d_color the grid's counts are built
        under, cut to the grid. A vertex at least d_color - 1 tracks from
        every edge of its layer adds the stencil's vid offsets
        (_stencil_offsets) with no bounds test; any other takes the checked walk.
        """
        d_color = self._counts[0]
        width, height, r, stencil = self.width, self.height, d_color - 1, _stencil(d_color)
        # A clamped d_color leaves no vertex that far in, so needs no offsets.
        offsets = _stencil_offsets(d_color, width) if 2 * r < min(width, height) else ()
        for (x, y, l), color, delta in entries:
            lst = counts[color]
            if r <= x < width - r and r <= y < height - r:
                vid = (l * height + y) * width + x
                for offset in offsets:
                    lst[vid + offset] += delta
            else:
                base = l * height
                for dx, dy in stencil:
                    tx, ty = x + dx, y + dy
                    if 0 <= tx < width and 0 <= ty < height:
                        lst[(base + ty) * width + tx] += delta

    def color_cost(self, v: Vertex, direction: Direction, color: Color, net_id: int) -> float:
        """Conflict cost of arriving at the target of (v, direction) with a color.

        gamma times the target's foreign_counts entry, the target found
        through v's move-table row. The search reads those counts directly;
        this method stays because perfbench/spans.py wraps it by name.
        """
        if self.in_bounds(v):
            i = self.vid(v)
            for d, dvid, _, _ in self.move_table()[0][i]:
                if d == direction:
                    counts = self.foreign_counts(net_id)[COLOR_ORDER.index(color)]
                    return self.rules.gamma * counts[i + dvid]
        raise ValueError(f"no edge from {v} in direction {direction.name}")

    # ---- occupancy ---------------------------------------------------

    def commit_route(self, net_id: int, colored_path: list[tuple[Vertex, Color]]) -> None:
        """Mark vertices committed to net_id with their final colors.

        A vertex the net has committed already takes the new color, with
        its old color's counts taken out. An off-grid vertex
        raises ValueError; an obstacle, another net's pin or another net's
        commit is a logic error, not a design-rule conflict, and raises
        CollisionError. Every vertex is checked before any is written, so
        a rejected path commits nothing.
        """
        committed, pin_owners, obstacles, blocked = self.committed, self.pin_owners, self.obstacles, self._blocked
        width, height, layers = self.width, self.height, self.num_layers
        for v, _ in colored_path:
            x, y, l = v
            if not (0 <= x < width and 0 <= y < height and 0 <= l < layers):
                raise ValueError(f"vertex {v} is off the grid")
            if blocked[(l * height + y) * width + x] == _KEEP_OUT:  # an obstacle, a pin or a commit
                owner = committed.get(v)
                if owner is not None and owner[0] == net_id:
                    continue  # the net's own commit, never on an obstacle or another net's pin
                if v in obstacles:
                    raise CollisionError(f"vertex {v} is an obstacle")
                pin_owner = pin_owners.get(v, net_id)
                if pin_owner != net_id:
                    raise CollisionError(f"vertex {v} is a pin of net {pin_owner}, not {net_id}")
                if owner is not None:
                    raise CollisionError(f"vertex {v} already committed to net {owner[0]}, not {net_id}")
        owned = self._owned.setdefault(net_id, set())
        spread = None if self._counts is None else []
        for v, color in colored_path:
            old = committed.get(v)
            committed[v] = (net_id, color)
            if old is None:
                owned.add(v)
                x, y, l = v
                blocked[(l * height + y) * width + x] = _KEEP_OUT
            elif spread is not None:
                spread.append((v, old[1], -1))
            if spread is not None:
                spread.append((v, color, 1))
        if spread:
            self._spread(spread, self._counts[1])
        self._last_scan = None

    def rip_up(self, net_id: int) -> None:
        """Free every vertex of a net; its pins stay keep-outs. History costs stay."""
        committed, blocked = self.committed, self._blocked
        width, height = self.width, self.height
        spread = []
        for v in self._owned.pop(net_id, ()):
            _, color = committed.pop(v)
            x, y, l = v
            blocked[(l * height + y) * width + x] = _INF
            spread.append((v, color, -1))
        if spread and self._counts is not None:
            self._spread(spread, self._counts[1])
        for vid in self._pin_vids.get(net_id, ()):
            blocked[vid] = _KEEP_OUT
        self._last_scan = None

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


@lru_cache(maxsize=32)
def _stencil_offsets(d_color: int, width: int) -> tuple[int, ...]:
    """The vid offsets, dy * width + dx, of _stencil(d_color) on a layer width wide."""
    return tuple(dy * width + dx for dx, dy in _stencil(d_color))


@cache
def _half_stencil(d_color: int) -> tuple[tuple[int, int, int], ...]:
    """(dx, dy, |dx| + |dy|) for the offsets of _stencil with dy > 0, or dy == 0 and dx > 0.

    One offset of each +/- pair, so a walk from every commit meets each
    close pair once (Grid.close_pairs).
    """
    return tuple(
        (dx, dy, abs(dx) + abs(dy)) for dx, dy in _stencil(d_color) if dy > 0 or (dy == 0 and dx > 0)
    )
