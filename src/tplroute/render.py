"""One SVG per layer: wires in their mask colors, stitches as black
diamonds, conflicts as yellow stars, obstacles gray, pins outlined."""

from __future__ import annotations

from .color_state import Color
from .layout import Layout, Vertex
from .negotiation import Conflict
from .router import RouteTree

CELL = 24
MARGIN = 18

FILL = {Color.RED: "#d64541", Color.GREEN: "#2e9e5b", Color.BLUE: "#3a6fd8"}


def render_layers(
    layout: Layout,
    routes: dict[int, RouteTree],
    conflicts: list[Conflict],
) -> dict[int, str]:
    """SVG text per layer index."""
    return {
        l: _render_layer(layout, routes, conflicts, l)
        for l in range(layout.num_layers)
    }


def _xy(v: Vertex) -> tuple[float, float]:
    return (MARGIN + v[0] * CELL, MARGIN + v[1] * CELL)


def _render_layer(
    layout: Layout,
    routes: dict[int, RouteTree],
    conflicts: list[Conflict],
    layer: int,
) -> str:
    width = 2 * MARGIN + (layout.width - 1) * CELL
    height = 2 * MARGIN + (layout.height - 1) * CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{MARGIN}" y="{MARGIN - 6}" font-size="10" fill="#555">'
        f"layer {layer} ({layout.layers[layer]})</text>",
    ]

    # faint grid dots
    for y in range(layout.height):
        for x in range(layout.width):
            px, py = _xy((x, y, layer))
            parts.append(f'<circle cx="{px}" cy="{py}" r="1" fill="#ddd"/>')

    for v in sorted(layout.obstacles):
        if v[2] != layer:
            continue
        px, py = _xy(v)
        parts.append(
            f'<rect x="{px - 7}" y="{py - 7}" width="14" height="14" fill="#888"/>'
        )

    for net_id in sorted(routes):
        tree = routes[net_id]
        for path in tree.paths:
            for u, t in zip(path, path[1:]):
                if u[2] == layer and t[2] == layer:
                    ux, uy = _xy(u)
                    tx, ty = _xy(t)
                    mx, my = (ux + tx) / 2, (uy + ty) / 2
                    for a, b, v in (((ux, uy), (mx, my), u), ((mx, my), (tx, ty), t)):
                        color = FILL[tree.vertex_colors[v]]
                        parts.append(
                            f'<line x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" y2="{b[1]}" '
                            f'stroke="{color}" stroke-width="6" stroke-linecap="round"/>'
                        )
        for v in sorted(tree.vertex_colors):
            if v[2] != layer:
                continue
            px, py = _xy(v)
            parts.append(
                f'<circle cx="{px}" cy="{py}" r="4" fill="{FILL[tree.vertex_colors[v]]}"/>'
            )
        # via markers where a path changes layer through this one
        for path in tree.paths:
            for u, t in zip(path, path[1:]):
                if u[2] != t[2]:
                    for v in (u, t):
                        if v[2] == layer:
                            px, py = _xy(v)
                            parts.append(
                                f'<rect x="{px - 5}" y="{py - 5}" width="10" height="10" '
                                f'fill="none" stroke="#333" stroke-width="1.5"/>'
                            )

    for net in layout.nets:
        for pin in net.pins:
            for v in pin.covered_vertices:
                if v[2] != layer:
                    continue
                px, py = _xy(v)
                parts.append(
                    f'<circle cx="{px}" cy="{py}" r="7" fill="none" '
                    f'stroke="black" stroke-width="1.5"/>'
                )

    for net_id in sorted(routes):
        for a, b in routes[net_id].stitches:
            if a[2] != layer:
                continue
            ax, ay = _xy(a)
            bx, by = _xy(b)
            cx, cy = (ax + bx) / 2, (ay + by) / 2
            parts.append(
                f'<path d="M {cx} {cy - 6} L {cx + 6} {cy} L {cx} {cy + 6} '
                f'L {cx - 6} {cy} Z" fill="black"/>'
            )

    for c in conflicts:
        if c.vertex_a[2] != layer:
            continue
        ax, ay = _xy(c.vertex_a)
        bx, by = _xy(c.vertex_b)
        cx, cy = (ax + bx) / 2, (ay + by) / 2
        parts.append(_star(cx, cy))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _star(cx: float, cy: float, r: float = 8.0) -> str:
    # 5-point star with fixed vertex table (no trig, keeps bytes stable)
    units = [
        (0.0, -1.0), (0.2245, -0.309), (0.9511, -0.309), (0.3633, 0.118),
        (0.5878, 0.809), (0.0, 0.382), (-0.5878, 0.809), (-0.3633, 0.118),
        (-0.9511, -0.309), (-0.2245, -0.309),
    ]
    pts = " ".join(f"{cx + ux * r:.2f},{cy + uy * r:.2f}" for ux, uy in units)
    return f'<polygon points="{pts}" fill="#f5c518" stroke="#7a5c00" stroke-width="1"/>'
