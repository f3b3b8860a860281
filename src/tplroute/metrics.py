"""Scoring and comparison of routed, colored layouts.

The simplified score is alpha * total wirelength cost + beta *
stitch_cost * stitches + gamma * conflicts; it stands in for contest-style
scoring and is labeled "simplified" in reports. Wirelength cost is
geometric (base, via, and wrong-way terms) — search-time history is not
a layout quality and is excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .grid import Grid
from .layout import DesignRules
from .negotiation import Conflict, detect_conflicts
from .router import RouteTree


@dataclass
class NetScore:
    net_id: int
    trad: float
    stitches: int
    conflicts: int  # conflict pairs attributed to their lower net id


@dataclass
class ScoreReport:
    conflicts: int
    stitches: int
    weighted_cost: float
    per_net: list[NetScore]
    wall_time_ms: float | None = None
    # The conflicts counted above, for renderers; report_to_dict leaves it out.
    conflict_list: list[Conflict] = field(default_factory=list, repr=False)


def score(grid: Grid, routes: dict[int, RouteTree], rules: DesignRules) -> ScoreReport:
    """Pure function of the final grid and routes.

    The conflicts are negotiation.detect_conflicts's at rules.d_color,
    a copy of the scan either arm leaves on its grid (Grid.conflicts).
    """
    conflicts = detect_conflicts(grid, rules)
    per_net_conflicts: dict[int, int] = {}
    for c in conflicts:
        low = min(c.net_a, c.net_b)
        per_net_conflicts[low] = per_net_conflicts.get(low, 0) + 1

    per_net = []
    for net_id in sorted(routes):
        tree = routes[net_id]
        per_net.append(
            NetScore(
                net_id=net_id,
                trad=_tree_trad(tree, grid, rules),
                stitches=len(tree.stitches),
                conflicts=per_net_conflicts.get(net_id, 0),
            )
        )
    total_trad = sum(n.trad for n in per_net)
    total_stitches = sum(n.stitches for n in per_net)
    weighted = (
        rules.alpha * total_trad
        + rules.beta * rules.stitch_cost * total_stitches
        + rules.gamma * len(conflicts)
    )
    return ScoreReport(
        conflicts=len(conflicts),
        stitches=total_stitches,
        weighted_cost=weighted,
        per_net=per_net,
        conflict_list=conflicts,
    )


def compare(a: ScoreReport, b: ScoreReport) -> list[dict]:
    """Per-metric reduction of b relative to baseline a.

    A zero baseline metric yields the marker "zero" instead of a
    percentage.
    """
    rows = []
    for metric in ("conflicts", "stitches", "weighted_cost"):
        base = getattr(a, metric)
        ours = getattr(b, metric)
        if base == 0:
            improvement: float | str = "zero"
        else:
            improvement = 100.0 * (base - ours) / base
        rows.append({"metric": metric, "base": base, "ours": ours, "improvement": improvement})
    return rows


def report_to_dict(report: ScoreReport, include_wall_time: bool = False) -> dict:
    """JSON form; wall time is nulled unless requested, for byte determinism."""
    return {
        "conflicts": report.conflicts,
        "stitches": report.stitches,
        "weighted_cost": report.weighted_cost,
        "score_kind": "simplified",
        "per_net": [
            {
                "net_id": n.net_id,
                "trad": n.trad,
                "stitches": n.stitches,
                "conflicts": n.conflicts,
            }
            for n in report.per_net
        ],
        "wall_time_ms": report.wall_time_ms if include_wall_time else None,
    }


def _tree_trad(tree: RouteTree, grid: Grid, rules: DesignRules) -> float:
    """Geometric wirelength cost of a tree's paths under rules' via and wrong-way costs."""
    total = 0.0
    for path in tree.paths:
        for u, t in zip(path, path[1:]):
            total += 1.0
            if u[2] != t[2]:
                total += rules.via_cost
            else:
                horizontal = grid.layer_dirs[u[2]] == "H"
                moved_y = t[1] != u[1]
                if (horizontal and moved_y) or (not horizontal and not moved_y):
                    total += rules.wrong_way_cost
    return total
