"""Mutable 3-D routing substrate: occupancy, committed colors, history cost.

Vertices are (x, y, layer) tuples. On-layer moves follow the six-direction
scheme F/B (along the layer's preferred axis), R/L (across it, penalized),
and U/D (vias). Edge cost composes as

    alpha * trad + beta * stitch_cost * stitch_indicator + color_cost

where trad = 1 + wrong-way + via + target history + off-guide penalty and
color_cost = gamma * (foreign same-color commits within Manhattan distance
< d_color of the target, on the target's layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from .color_state import COLOR_LETTERS, Color
from .layout import DesignRules, Layout, Vertex


class Direction(IntEnum):
    F = 0  # forward along preferred axis
    B = 1  # backward along preferred axis
    R = 2  # right across preferred axis
    L = 3  # left across preferred axis
    U = 4  # up one layer
    D = 5  # down one layer


VIA_DIRECTIONS = (Direction.U, Direction.D)


class CollisionError(RuntimeError):
    """A commit touched a vertex owned by a different net."""


@dataclass
class Grid:
    width: int
    height: int
    layer_dirs: list[str]  # "H" or "V" per layer
    rules: DesignRules
    obstacles: set[Vertex] = field(default_factory=set)
    # vertex -> (net_id, color)
    committed: dict[Vertex, tuple[int, Color]] = field(default_factory=dict)
    history: dict[Vertex, float] = field(default_factory=dict)
    # Pin vertices are keep-outs for every other net.
    pin_owners: dict[Vertex, int] = field(default_factory=dict)

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

    def step(self, v: Vertex, direction: Direction) -> Vertex | None:
        """Geometric neighbor in a direction, or None if off-grid."""
        x, y, l = v
        if direction == Direction.U:
            t = (x, y, l + 1)
        elif direction == Direction.D:
            t = (x, y, l - 1)
        else:
            horizontal = self.layer_dirs[l] == "H"
            if direction == Direction.F:
                t = (x + 1, y, l) if horizontal else (x, y + 1, l)
            elif direction == Direction.B:
                t = (x - 1, y, l) if horizontal else (x, y - 1, l)
            elif direction == Direction.R:
                t = (x, y + 1, l) if horizontal else (x + 1, y, l)
            else:  # L
                t = (x, y - 1, l) if horizontal else (x - 1, y, l)
        return t if self.in_bounds(t) else None

    def neighbors(self, v: Vertex) -> list[tuple[Direction, Vertex]]:
        """In-bounds, non-obstacle neighbors in fixed F,B,R,L,U,D order."""
        out = []
        for d in Direction:
            t = self.step(v, d)
            if t is not None and t not in self.obstacles:
                out.append((d, t))
        return out

    def passable(self, v: Vertex, net_id: int) -> bool:
        """Usable by net_id: in bounds, no obstacle, no foreign commit or pin."""
        if not self.in_bounds(v) or v in self.obstacles:
            return False
        pin_owner = self.pin_owners.get(v)
        if pin_owner is not None and pin_owner != net_id:
            return False
        owner = self.committed.get(v)
        return owner is None or owner[0] == net_id

    # ---- cost engine -------------------------------------------------

    def trad_cost(
        self,
        v: Vertex,
        direction: Direction,
        guide: list[tuple[int, int, int, int, int]] | None = None,
    ) -> float:
        """Unweighted traditional cost of moving from v in a direction."""
        target = self.step(v, direction)
        if target is None:
            raise ValueError(f"no edge from {v} in direction {direction.name}")
        cost = 1.0
        if direction in VIA_DIRECTIONS:
            cost += self.rules.via_cost
        elif direction in (Direction.R, Direction.L):
            cost += self.rules.wrong_way_cost
        cost += self.history.get(target, 0.0)
        if guide is not None and not _in_guide(target, guide):
            cost += self.rules.off_guide_penalty
        return cost

    def vertex_color_cost(self, v: Vertex, color: Color, net_id: int) -> float:
        """gamma-weighted count of foreign same-color commits near v (same layer)."""
        x, y, l = v
        d = self.rules.d_color
        count = 0
        for dx, dy in _stencil(d):
            entry = self.committed.get((x + dx, y + dy, l))
            if entry is not None and entry[0] != net_id and entry[1] == color:
                count += 1
        return self.rules.gamma * count

    def color_cost(self, v: Vertex, direction: Direction, color: Color, net_id: int) -> float:
        """Conflict cost of arriving at the target of (v, direction) with a color."""
        target = self.step(v, direction)
        if target is None:
            raise ValueError(f"no edge from {v} in direction {direction.name}")
        return self.vertex_color_cost(target, color, net_id)

    # ---- occupancy ---------------------------------------------------

    def commit_route(self, net_id: int, colored_path: list[tuple[Vertex, Color]]) -> None:
        """Mark vertices committed to net_id with their final colors.

        Re-commits by the same net are idempotent; touching another net's
        vertex is a logic error, not a design-rule conflict.
        """
        for v, color in colored_path:
            if v in self.obstacles:
                raise CollisionError(f"vertex {v} is an obstacle")
            owner = self.committed.get(v)
            if owner is not None and owner[0] != net_id:
                raise CollisionError(
                    f"vertex {v} already committed to net {owner[0]}, not {net_id}"
                )
            self.committed[v] = (net_id, color)

    def rip_up(self, net_id: int) -> None:
        """Free every vertex of a net. History costs stay."""
        doomed = [v for v, (n, _) in self.committed.items() if n == net_id]
        for v in doomed:
            del self.committed[v]

    def recolor_vertex(self, v: Vertex, color: Color) -> None:
        """Change the committed color of a vertex without moving it."""
        owner = self.committed.get(v)
        if owner is None:
            raise KeyError(f"vertex {v} is not committed")
        self.committed[v] = (owner[0], color)

    def add_history(self, v: Vertex, amount: float) -> None:
        self.history[v] = self.history.get(v, 0.0) + amount

    # ---- debug -------------------------------------------------------

    def dump(self) -> str:
        """Text matrix per layer: '.' free, '#' obstacle, R/G/B committed."""
        blocks = []
        for l in range(self.num_layers):
            rows = [f"layer {l} ({self.layer_dirs[l]})"]
            for y in range(self.height):
                row = []
                for x in range(self.width):
                    v = (x, y, l)
                    if v in self.obstacles:
                        row.append("#")
                    elif v in self.committed:
                        row.append(COLOR_LETTERS[self.committed[v][1]])
                    else:
                        row.append(".")
                rows.append("".join(row))
            blocks.append("\n".join(rows))
        return "\n\n".join(blocks) + "\n"


def _in_guide(v: Vertex, guide: list[tuple[int, int, int, int, int]]) -> bool:
    x, y, l = v
    for gl, x0, y0, x1, y1 in guide:
        if l == gl and x0 <= x <= x1 and y0 <= y <= y1:
            return True
    return False


_STENCILS: dict[int, list[tuple[int, int]]] = {}


def _stencil(d_color: int) -> list[tuple[int, int]]:
    """All (dx, dy) offsets with |dx| + |dy| < d_color."""
    cached = _STENCILS.get(d_color)
    if cached is None:
        r = d_color - 1
        cached = [
            (dx, dy)
            for dx in range(-r, r + 1)
            for dy in range(-r, r + 1)
            if abs(dx) + abs(dy) < d_color
        ]
        _STENCILS[d_color] = cached
    return cached
