"""Self-test of the correctness gate: it must reject corrupted results.

Routes one small fixed draw, checks that the gate accepts the genuine
result, then corrupts it two ways and checks that each corruption is
caught: one vertex recolored (the stitch recount disagrees) and one path
vertex dropped (the net is no longer connected).

Run alone with ``python3 perfbench/selftest.py``; the benchmark also runs
it before every measurement.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gate import check  # noqa: E402
from tplroute import metrics, negotiation  # noqa: E402
from tplroute.color_state import COLOR_ORDER  # noqa: E402
from tplroute.generate import generate_instance  # noqa: E402
from tplroute.layout import layout_from_dict, layout_to_dict  # noqa: E402

FIXED_DRAW = dict(seed=0, width=12, height=12, layers=2, num_nets=8, pins_per_net=4, congestion=0.6)


def _verdict(layout, routes, committed, result):
    report = metrics.score(result.grid, routes, layout.rules)
    return check(layout, routes, committed, report, result.final_conflicts)


def gate_failures() -> list[str]:
    """Empty when the gate accepts the genuine result and rejects both corruptions."""
    layout = layout_from_dict(json.loads(json.dumps(layout_to_dict(generate_instance(**FIXED_DRAW)))))
    result = negotiation.route_all(layout)
    failures = []
    open_, invalid = _verdict(layout, result.routes, result.grid.committed, result)
    if open_ or invalid:
        failures.append(f"genuine result rejected: {open_ + invalid}")

    # Recolor a vertex that shares its mask with a same-layer neighbour of its net.
    net_id, tree = next((n, t) for n, t in sorted(result.routes.items()) if t.paths)
    v = next(
        v for path in tree.paths for v, w in zip(path, path[1:])
        if v[2] == w[2] and tree.vertex_colors[v] == tree.vertex_colors[w]
    )
    new_color = next(c for c in COLOR_ORDER if c != tree.vertex_colors[v])
    colors = tree.vertex_colors | {v: new_color}
    routes = dict(result.routes) | {net_id: replace(tree, vertex_colors=colors)}
    committed = dict(result.grid.committed) | {v: (net_id, new_color)}
    grid = replace(result.grid, committed=committed)
    _, invalid = _verdict(layout, routes, committed, replace(result, grid=grid))
    if not invalid:
        failures.append(f"recolored vertex {v} of net {net_id} accepted")

    # Drop a middle vertex of the net's first path.
    path = tree.paths[0]
    v = path[len(path) // 2]
    paths = [[w for w in p if w != v] for p in tree.paths]
    colors = {w: c for w, c in tree.vertex_colors.items() if w != v}
    routes = dict(result.routes) | {net_id: replace(tree, paths=paths, vertex_colors=colors)}
    committed = {w: e for w, e in result.grid.committed.items() if w != v}
    grid = replace(result.grid, committed=committed)
    open_, _ = _verdict(layout, routes, committed, replace(result, grid=grid))
    if not open_:
        failures.append(f"dropped path vertex {v} of net {net_id} accepted")
    return failures


if __name__ == "__main__":
    found = gate_failures()
    for line in found:
        print(f"selftest: {line}", file=sys.stderr)
    print("selftest: gate rejects both corruptions" if not found else "selftest: FAILED")
    sys.exit(1 if found else 0)
