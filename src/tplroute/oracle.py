"""Brute-force ground truth for desk-scale instances.

Enumerates every simple path (up to a vertex cap) between two vertex
sets, solves the exact 3-mask coloring of each path by dynamic
programming, and keeps the global minimum of

    alpha * trad + beta * stitch_cost * stitches + sum of vertex conflict costs

with conflict cost charged on every path vertex (the wire occupies its
endpoints too) and a stitch wherever consecutive same-layer vertices
change mask. Moves (neighbors, and step for one direction), keep-outs
(usable), move costs (move_cost), conflict costs (conflict_costs) and the
bound on a path's rest (remaining_lb) are written here against the raw
grid data, apart from the router's move table, count arrays and bound,
so agreement between the two is evidence rather than tautology; the
tests use these six as their references.
"""

from __future__ import annotations

from dataclasses import dataclass

from .color_state import COLOR_ORDER, Color
from .grid import Direction, Grid
from .layout import DesignRules, Vertex
from .negotiation import Conflict

DEFAULT_MAX_VERTICES = 14


class PathCapError(RuntimeError):
    """No source-to-destination path exists within the vertex cap."""


class GridTooLargeError(ValueError):
    """The instance exceeds the enforced brute-force size bound."""


@dataclass
class OracleResult:
    best_cost: float
    best_path: list[Vertex]
    best_coloring: list[Color]


def optimal_colored_path(
    grid: Grid,
    src_set: set[Vertex],
    dst_set: set[Vertex],
    rules: DesignRules,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    net_id: int = -1,
    guide: list[tuple[int, int, int, int, int]] | None = None,
) -> OracleResult:
    """Global minimum over (simple path, per-vertex coloring) pairs.

    Ties break by path length, then the path's vertex-id tuple, then its
    color tuple (RED < GREEN < BLUE), so the result is independent of the
    order neighbors lists moves in.
    """
    sigma = rules.beta * rules.stitch_cost
    color_idx = {c: i for i, c in enumerate(COLOR_ORDER)}
    cc_cache: dict[Vertex, tuple[float, float, float]] = {}

    def vertex_costs(v: Vertex) -> tuple[float, float, float]:
        got = cc_cache.get(v)
        if got is None:
            got = conflict_costs(grid, rules, v, net_id)
            cc_cache[v] = got
        return got

    srcs = [v for v in sorted(src_set) if usable(grid, v, net_id)]
    dsts = {v for v in dst_set if usable(grid, v, net_id)}
    best: tuple | None = None  # (cost, length, vid-tuple, color-idx-tuple, path, coloring)

    def extend(v: Vertex, path: list[Vertex], visited: set[Vertex],
               trad: float, dp: tuple[float, float, float]) -> None:
        nonlocal best
        if v in dsts:
            total = rules.alpha * trad + min(dp)
            key_prefix = (total, len(path))
            if best is None or key_prefix <= best[:2]:
                coloring = _lex_first_coloring(path, grid, vertex_costs, sigma)
                candidate = (
                    total,
                    len(path),
                    tuple(grid.vid(u) for u in path),
                    tuple(color_idx[c] for c in coloring),
                    list(path),
                    coloring,
                )
                if best is None or candidate[:4] < best[:4]:
                    best = candidate
            return
        if len(path) >= max_vertices:
            return
        lower = rules.alpha * (trad + remaining_lb(rules, v, dsts)) + min(dp)
        if best is not None and lower > best[0]:
            return
        for target in neighbors(grid, v):
            if target in visited or not usable(grid, target, net_id):
                continue
            if target in src_set and target not in dsts:
                continue  # a path from that source dominates this one
            step = move_cost(grid, rules, v, target, guide)
            planar = v[2] == target[2]
            cc = vertex_costs(target)
            base = min(dp)
            if planar:
                ndp = tuple(cc[i] + min(dp[i], base + sigma) for i in range(3))
            else:
                ndp = tuple(cc[i] + base for i in range(3))
            visited.add(target)
            path.append(target)
            extend(target, path, visited, trad + step, ndp)
            path.pop()
            visited.remove(target)

    for s in srcs:
        extend(s, [s], {s}, 0.0, vertex_costs(s))

    if best is None:
        raise PathCapError(
            f"no path within {max_vertices} vertices between the given sets"
        )
    return OracleResult(
        best_cost=best[0],
        best_path=best[4],
        best_coloring=best[5],
    )


def remaining_lb(rules: DesignRules, v: Vertex, targets) -> float:
    """The fewest traditional-cost units from v to any target, ignoring everything in between.

    A planar step costs at least 1 and a layer change at least 1 + via_cost,
    so alpha times this bounds the rest of a path from below. 0.0 with no
    targets.
    """
    best_d = None
    for d in targets:
        est = abs(d[0] - v[0]) + abs(d[1] - v[1]) + abs(d[2] - v[2]) * (1.0 + rules.via_cost)
        if best_d is None or est < best_d:
            best_d = est
    return best_d if best_d is not None else 0.0


def all_pairs_conflicts(grid: Grid, rules: DesignRules) -> list[Conflict]:
    """Naive O(n^2) scan applying the conflict definition verbatim."""
    if grid.width > 10 or grid.height > 10 or grid.num_layers > 2:
        raise GridTooLargeError(
            f"grid {grid.width}x{grid.height}x{grid.num_layers} exceeds the 10x10x2 cap"
        )
    items = sorted(grid.committed.items())
    found = []
    for i, (va, (na, ca)) in enumerate(items):
        for vb, (nb, cb) in items[i + 1 :]:
            if na == nb or ca != cb or va[2] != vb[2]:
                continue
            dist = abs(va[0] - vb[0]) + abs(va[1] - vb[1])
            if dist < rules.d_color:
                found.append(
                    Conflict(
                        vertex_a=va,
                        vertex_b=vb,
                        net_a=na,
                        net_b=nb,
                        color=ca,
                        distance=dist,
                    )
                )
    return found


def neighbors(grid: Grid, v: Vertex) -> list[Vertex]:
    """The in-bounds, non-obstacle vertices one track from v along x, y or layer."""
    x, y, l = v
    around = ((x + 1, y, l), (x - 1, y, l), (x, y + 1, l), (x, y - 1, l), (x, y, l + 1), (x, y, l - 1))
    return [t for t in around if grid.in_bounds(t) and t not in grid.obstacles]


def step(grid: Grid, v: Vertex, direction: Direction) -> Vertex | None:
    """v's neighbor in a direction, or None when v or the neighbor is off the grid.

    F and B move along the layer's preferred axis (x on an "H" layer, y on
    a "V" one), R and L across it, U and D one layer up and down; the
    first of each pair adds 1.
    """
    if not grid.in_bounds(v):
        return None
    x, y, l = v
    sign = -1 if direction in (Direction.B, Direction.L, Direction.D) else 1
    if direction in (Direction.U, Direction.D):
        target = (x, y, l + sign)
    elif (grid.layer_dirs[l] == "H") == (direction in (Direction.F, Direction.B)):
        target = (x + sign, y, l)
    else:
        target = (x, y + sign, l)
    return target if grid.in_bounds(target) else None


def usable(grid: Grid, v: Vertex, net_id: int) -> bool:
    """Open to net_id: in bounds, no obstacle, and no other net's pin or commit."""
    if not grid.in_bounds(v) or v in grid.obstacles:
        return False
    pin_owner = grid.pin_owners.get(v)
    if pin_owner is not None and pin_owner != net_id:
        return False
    owner = grid.committed.get(v)
    return owner is None or owner[0] == net_id


def move_cost(
    grid: Grid,
    rules: DesignRules,
    u: Vertex,
    t: Vertex,
    guide: list[tuple[int, int, int, int, int]] | None,
) -> float:
    """Traditional cost of the move u -> t, recomputed term by term."""
    cost = 1.0
    if u[2] != t[2]:
        cost += rules.via_cost
    else:
        moved_y = t[1] != u[1]
        horizontal = grid.layer_dirs[u[2]] == "H"
        if (horizontal and moved_y) or (not horizontal and not moved_y):
            cost += rules.wrong_way_cost
    cost += grid.history[grid.vid(t)]
    if guide:  # None and no boxes both mean no guide
        x, y, l = t
        inside = any(
            l == gl and x0 <= x <= x1 and y0 <= y <= y1 for gl, x0, y0, x1, y1 in guide
        )
        if not inside:
            cost += rules.off_guide_penalty
    return cost


def conflict_costs(
    grid: Grid, rules: DesignRules, v: Vertex, net_id: int
) -> tuple[float, float, float]:
    """Per-color conflict cost of occupying v, by direct scan of commits."""
    counts = {c: 0 for c in COLOR_ORDER}
    x, y, l = v
    for (cx, cy, cl), (owner, color) in grid.committed.items():
        if cl == l and owner != net_id and abs(cx - x) + abs(cy - y) < rules.d_color:
            counts[color] += 1
    return tuple(rules.gamma * counts[c] for c in COLOR_ORDER)


def _lex_first_coloring(
    path: list[Vertex],
    grid: Grid,
    vertex_costs,
    sigma: float,
) -> list[Color]:
    """Lexicographically first optimal coloring of a fixed path.

    suffix[i][c] = cheapest color+stitch cost of vertices i+1.. given
    vertex i takes color c. Every vertex is charged, the first included.
    """
    n = len(path)
    suffix = [(0.0, 0.0, 0.0)] * n
    for i in range(n - 2, -1, -1):
        planar = path[i][2] == path[i + 1][2]
        cc = vertex_costs(path[i + 1])
        nxt = suffix[i + 1]
        row = []
        for ci in range(3):
            best = None
            for cj in range(3):
                val = cc[cj] + nxt[cj] + (sigma if planar and ci != cj else 0.0)
                if best is None or val < best:
                    best = val
            row.append(best)
        suffix[i] = tuple(row)

    coloring: list[Color] = []
    head = vertex_costs(path[0])
    target = min(head[ci] + suffix[0][ci] for ci in range(3))
    spent = 0.0
    prev_ci: int | None = None
    for i in range(n):
        cc = vertex_costs(path[i])
        planar = i > 0 and path[i - 1][2] == path[i][2]
        for ci in range(3):
            step = cc[ci] + (sigma if planar and prev_ci is not None and ci != prev_ci else 0.0)
            if spent + step + suffix[i][ci] == target:
                coloring.append(COLOR_ORDER[ci])
                spent += step
                prev_ci = ci
                break
        else:  # float drift fallback: take the nearest candidate
            picks = [
                (abs(spent + cc[ci] + (sigma if planar and ci != prev_ci else 0.0)
                     + suffix[i][ci] - target), ci)
                for ci in range(3)
            ]
            ci = min(picks)[1]
            spent += cc[ci] + (sigma if planar and ci != prev_ci else 0.0)
            coloring.append(COLOR_ORDER[ci])
            prev_ci = ci
    return coloring
