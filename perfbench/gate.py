"""Independent correctness gate for one arm's result on one layout.

Everything here is recomputed from the layout and the returned route
trees with the gate's own code; nothing calls back into the router's
helpers, so a bug shared by a helper and its caller cannot hide itself.

``check`` sorts what it finds into two lists:

* ``open``: a net whose pins are not all covered or whose wiring is not
  connected. The result is then counted as unrouted, the same as a draw
  on which the arm raised.
* ``invalid``: anything else (collisions, obstacles, foreign pins,
  stitch or conflict lists that disagree with a recount, committed grid
  out of step with the trees). Any entry fails the benchmark run.
"""

from __future__ import annotations

from itertools import combinations

Vertex = tuple[int, int, int]


def _adjacent(a: Vertex, b: Vertex) -> bool:
    dx, dy, dl = abs(a[0] - b[0]), abs(a[1] - b[1]), abs(a[2] - b[2])
    return dx + dy + dl == 1


def _stitches(colors: dict[Vertex, int]) -> list[tuple[Vertex, Vertex]]:
    """Same-layer grid-adjacent pairs of one net that carry different colors."""
    out = []
    for a, b in combinations(sorted(colors), 2):
        if a[2] == b[2] and _adjacent(a, b) and colors[a] != colors[b]:
            out.append((a, b))
    return out


def _connected(vertices: set[Vertex], paths: list[list[Vertex]]) -> bool:
    """One component when only grid-adjacent consecutive path vertices link."""
    parent = {v: v for v in vertices}

    def find(v: Vertex) -> Vertex:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for path in paths:
        for a, b in zip(path, path[1:]):
            if a in parent and b in parent and _adjacent(a, b):
                parent[find(a)] = find(b)
    return len({find(v) for v in vertices}) <= 1


def all_pairs_conflicts(owner: dict[Vertex, tuple[int, int]], d_color: int) -> set[tuple]:
    """Every cross-net same-layer same-color pair closer than d_color."""
    buckets: dict[tuple[int, int], list[Vertex]] = {}
    for v, (_, color) in owner.items():
        buckets.setdefault((v[2], color), []).append(v)
    found = set()
    for (_, color), members in buckets.items():
        for a, b in combinations(sorted(members), 2):
            dist = abs(a[0] - b[0]) + abs(a[1] - b[1])
            if dist < d_color and owner[a][0] != owner[b][0]:
                found.add((a, b, owner[a][0], owner[b][0], color, dist))
    return found


def check(layout, routes, committed, report, conflict_list=None) -> tuple[list[str], list[str]]:
    """Return (open, invalid) problem lists for one arm's completed result.

    ``routes`` maps net id to route tree, ``committed`` is the final grid
    occupancy, ``report`` the arm's score, and ``conflict_list`` the final
    conflict list when the arm returns one.
    """
    open_: list[str] = []
    invalid: list[str] = []
    pin_owner = {v: net.id for net in layout.nets for pin in net.pins for v in pin.covered_vertices}
    owner: dict[Vertex, tuple[int, int]] = {}
    stitch_total = 0
    for net in layout.nets:
        tree = routes.get(net.id)
        if tree is None:
            if len(net.pins) > 1:
                open_.append(f"net {net.id}: no route")
            continue
        colors = {v: int(c) for v, c in tree.vertex_colors.items()}
        for v, color in colors.items():
            x, y, l = v
            if not (0 <= x < layout.width and 0 <= y < layout.height and 0 <= l < len(layout.layers)):
                invalid.append(f"net {net.id}: vertex {v} out of bounds")
            if v in layout.obstacles:
                invalid.append(f"net {net.id}: vertex {v} on an obstacle")
            if pin_owner.get(v, net.id) != net.id:
                invalid.append(f"net {net.id}: vertex {v} on a pin of net {pin_owner[v]}")
            if v in owner:
                invalid.append(f"vertex {v} in nets {owner[v][0]} and {net.id}")
            owner[v] = (net.id, color)
        path_vertices = {v for path in tree.paths for v in path}
        if path_vertices != set(colors):
            invalid.append(f"net {net.id}: path vertices differ from colored vertices")
        if len(net.pins) > 1:
            uncovered = [
                p for p, pin in enumerate(net.pins)
                if not any(v in colors for v in pin.covered_vertices)
            ]
            if uncovered:
                open_.append(f"net {net.id}: pins {uncovered} not covered")
            if not _connected(set(colors), tree.paths):
                open_.append(f"net {net.id}: wiring not connected")
        recount = _stitches(colors)
        stitch_total += len(recount)
        if sorted(tuple(sorted(s)) for s in tree.stitches) != recount:
            invalid.append(f"net {net.id}: stitch list differs from recount")
    committed_now = {v: (n, int(c)) for v, (n, c) in committed.items()}
    if committed_now != owner:
        invalid.append("committed grid differs from the route trees")
    conflicts = all_pairs_conflicts(owner, layout.rules.d_color)
    if report.conflicts != len(conflicts):
        invalid.append(f"score reports {report.conflicts} conflicts, scan finds {len(conflicts)}")
    if report.stitches != stitch_total:
        invalid.append(f"score reports {report.stitches} stitches, recount finds {stitch_total}")
    if conflict_list is not None:
        listed = {
            (c.vertex_a, c.vertex_b, c.net_a, c.net_b, int(c.color), c.distance)
            for c in conflict_list
        }
        if listed != conflicts or len(conflict_list) != len(conflicts):
            invalid.append("final conflict list differs from the all-pairs scan")
    return open_, invalid
