"""Batch entry point: generate, route, baseline, compare, render.

Outputs are deterministic for a fixed (input, flags, seed): JSON is
written with sorted keys and wall time is nulled unless --timing is
given. --output is the exact file path in generate mode and a path
prefix everywhere else (<prefix>.report.json, <prefix>.routes.json,
<prefix>.compare.json, <prefix>.layer<k>.svg).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from .baseline import run_baseline
from .color_state import COLOR_LETTERS
from .generate import InfeasiblePlacementError, generate_instance
from .grid import CollisionError
from .layout import (
    RULE_TYPES,
    DesignRules,
    Layout,
    LayoutError,
    load_layout,
    require_valid,
    save_layout,
)
from .metrics import ScoreReport, compare, report_to_dict, score
from .negotiation import Conflict, IterationReport, route_all
from .render import render_layers
from .router import RouteTree, UnroutableError

MODES = ("route", "baseline", "compare", "generate")

# Rule flags are --<field-name-with-dashes>, except this historic spelling.
_FLAG_SPELLINGS = {"max_iterations": "max-iters"}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tplroute",
        description="Triple-patterning-aware grid router and baseline decomposer",
    )
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--input", help="layout JSON (route/baseline/compare modes)")
    p.add_argument("--output", required=True, help="output file (generate) or prefix")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--render", action="store_true", help="also write one SVG per layer")
    p.add_argument("--timing", action="store_true", help="include wall time in reports")
    for name, kind in RULE_TYPES.items():
        flag = _FLAG_SPELLINGS.get(name, name.replace("_", "-"))
        p.add_argument(f"--{flag}", type=kind, dest=name)
    g = p.add_argument_group("generate mode")
    g.add_argument("--width", type=int, default=8)
    g.add_argument("--height", type=int, default=8)
    g.add_argument("--layers", type=int, default=2)
    g.add_argument("--num-nets", type=int, default=4, dest="num_nets")
    g.add_argument("--pins-per-net", type=int, default=3, dest="pins_per_net")
    g.add_argument("--congestion", type=float, default=0.5)
    return p


def run(args: argparse.Namespace) -> int:
    overrides = {
        name: getattr(args, name) for name in RULE_TYPES if getattr(args, name) is not None
    }
    if args.mode == "generate":
        layout = generate_instance(
            seed=args.seed,
            width=args.width,
            height=args.height,
            layers=args.layers,
            num_nets=args.num_nets,
            pins_per_net=args.pins_per_net,
            congestion=args.congestion,
            rules=replace(DesignRules(), **overrides),
        )
        require_valid(layout)
        save_layout(layout, args.output)
        return 0

    if not args.input:
        raise LayoutError(f"mode {args.mode} needs --input")
    layout = load_layout(args.input)
    layout.rules = replace(layout.rules, **overrides)

    if args.mode == "compare":
        _run_compare(layout, args)
    else:
        _run_single(layout, args)
    return 0


def _run_arm(arm, layout: Layout):
    """Run route_all or run_baseline and score it once; wall time covers both."""
    started = time.perf_counter()
    result = arm(layout)
    report = score(result.grid, result.routes, layout.rules)
    report.wall_time_ms = (time.perf_counter() - started) * 1000.0
    return result, report


def _run_single(layout: Layout, args: argparse.Namespace) -> None:
    method = "router" if args.mode == "route" else "baseline"
    result, report = _run_arm(route_all if method == "router" else run_baseline, layout)
    payload = report_to_dict(report, args.timing)
    if method == "router":
        payload["iterations"] = [iteration_to_dict(i, it) for i, it in enumerate(result.iterations)]
        for entry in payload["iterations"]:
            print(json.dumps(entry, sort_keys=True))
    _write_json(f"{args.output}.report.json", payload)
    _write_json(
        f"{args.output}.routes.json", routes_to_dict(result.routes, report, layout.rules, method)
    )
    if args.render:
        _write_render(args.output, layout, result.routes, report.conflict_list)


def _run_compare(layout: Layout, args: argparse.Namespace) -> None:
    _, base_report = _run_arm(run_baseline, layout)
    ours, ours_report = _run_arm(route_all, layout)
    payload = {
        "baseline": report_to_dict(base_report, args.timing),
        "router": report_to_dict(ours_report, args.timing),
        "rows": compare(base_report, ours_report),
    }
    _write_json(f"{args.output}.compare.json", payload)
    if args.render:
        _write_render(args.output, layout, ours.routes, ours_report.conflict_list)


def iteration_to_dict(index: int, it: IterationReport) -> dict:
    return {
        "iter": index,
        "conflicts": len(it.conflicts),
        "stitches": it.stitch_count,
        "rerouted": it.nets_rerouted,
    }


def routes_to_dict(
    routes: dict[int, RouteTree], report: ScoreReport, rules: DesignRules, method: str
) -> dict:
    """Per-net paths, colors, stitches and cost terms, from an existing score."""
    by_net = {n.net_id: n for n in report.per_net}
    nets = []
    for net_id in sorted(routes):
        tree = routes[net_id]
        stats = by_net[net_id]
        trad = rules.alpha * stats.trad
        stitch = rules.beta * rules.stitch_cost * stats.stitches
        color = rules.gamma * stats.conflicts
        nets.append(
            {
                "net_id": net_id,
                "paths": [[list(v) for v in path] for path in tree.paths],
                "vertex_colors": [
                    [list(v), COLOR_LETTERS[c]] for v, c in sorted(tree.vertex_colors.items())
                ],
                "stitches": [[list(a), list(b)] for a, b in tree.stitches],
                "cost": {"trad": trad, "stitch": stitch, "color": color, "total": trad + stitch + color},
            }
        )
    return {"method": method, "nets": nets}


def _write_render(
    prefix: str,
    layout: Layout,
    routes: dict[int, RouteTree],
    conflicts: list[Conflict],
) -> None:
    for layer, svg in render_layers(layout, routes, conflicts).items():
        Path(f"{prefix}.layer{layer}.svg").write_text(svg)


def _write_json(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (
        LayoutError,
        UnroutableError,
        CollisionError,
        InfeasiblePlacementError,
        OSError,
        ValueError,
    ) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
