#!/usr/bin/env python3
"""Time one arm on each perfbench draw under two source trees in one process.

    python3 scripts/ab_draws.py --rev HEAD~1 --workload tight --arms base --rounds 5

The "rev" side is the ``src/`` tree of a git revision, extracted with
``git archive REV src`` into a temporary directory; the "tree" side is
the working tree's ``src/``. Both packages are loaded side by side under
different module names. The draws come from ``perfbench/workloads.py``;
each side parses every draw with its own ``layout_from_dict``.

Each round runs every draw and arm on both sides back to back, the side
that goes first alternating from draw to draw and round to round. An arm
is what ``perfbench/run.py`` times: ``route_all`` or ``run_baseline``,
then ``score``; or ``setup``, one draw's set-up as ``load_draws`` does
it (generate, ``layout_to_dict``, ``json.dumps``, ``json.loads``,
``layout_from_dict``). The outcome of every run (the score report, the
routes and the committed grid; for set-up, the JSON text and the parsed
layout's JSON text; or the exception's type and message) must be the
same on both sides, else the script exits 1 naming the draw.

Per arm it prints rev/tree ratios of per-draw wall times, each draw's
time being its median over the rounds: the ratio of the interquartile
means, the median per-draw ratio, and how many draws the tree ran
faster. A ratio above 1 means the tree is faster. With two or more
rounds it also prints the run's own noise band: the rev side against
itself, the interquartile mean of its even rounds over that of its odd
rounds, where each draw ran first on the other side. Each arm's line
ends in a label: "within noise" when the rev/tree interquartile-mean
ratio lies no further from 1 than that even/odd ratio, "outside noise"
when it lies further, and "no noise band" with one round. Nothing is
gated on time.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, load_draws  # noqa: E402

ARMS = ("setup", "route", "base")


def load_package(name: str, src: Path):
    """Import the tplroute package found under src as the top-level module name."""
    path = src / "tplroute"
    spec = importlib.util.spec_from_file_location(name, path / "__init__.py", submodule_search_locations=[str(path)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("baseline", "generate", "layout", "metrics", "negotiation"):
        importlib.import_module(f"{name}.{module}")
    return package


def extract(rev: str, into: Path) -> Path:
    """Write rev's src/ under into, from the local repository."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):  # Python 3.10.12 and later
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return into / "src"


def run_arm(package, arm: str, layout):
    """Run one arm as perfbench does; return its wall seconds and its outcome as plain data."""
    start = time.perf_counter()
    try:
        if arm == "route":
            result = package.negotiation.route_all(layout)
        else:
            result = package.baseline.run_baseline(layout)
        report = package.metrics.score(result.grid, result.routes, layout.rules)
    except Exception as exc:  # an arm failing on a draw is an outcome, compared like any other
        return time.perf_counter() - start, (type(exc).__name__, str(exc))
    elapsed = time.perf_counter() - start
    routes = {
        net_id: (
            tree.paths,
            sorted((v, int(c)) for v, c in tree.vertex_colors.items()),
            tree.stitches,
            tree.total_cost,
        )
        for net_id, tree in result.routes.items()
    }
    committed = [(v, net_id, int(c)) for v, (net_id, c) in result.grid.committed.items()]
    conflicts = [(c.vertex_a, c.vertex_b, c.net_a, c.net_b, int(c.color), c.distance) for c in report.conflict_list]
    return elapsed, (package.metrics.report_to_dict(report), conflicts, routes, committed)


def run_setup(package, workload, seed: int):
    """Set up one draw as load_draws does; return its wall seconds and its JSON texts."""
    layout_module = package.layout
    start = time.perf_counter()
    try:
        layout = package.generate.generate_instance(
            seed=seed, width=workload.width, height=workload.height, layers=workload.layers,
            num_nets=workload.num_nets, pins_per_net=workload.pins_per_net,
            congestion=workload.congestion, rules=layout_module.DesignRules(d_color=workload.d_color),
        )
        text = json.dumps(layout_module.layout_to_dict(layout), sort_keys=True)
        parsed = layout_module.layout_from_dict(json.loads(text))
    except Exception as exc:  # a draw failing to set up is an outcome, compared like any other
        return time.perf_counter() - start, (type(exc).__name__, str(exc))
    elapsed = time.perf_counter() - start
    return elapsed, (text, json.dumps(layout_module.layout_to_dict(parsed), sort_keys=True))


def interquartile_mean(values: list[float]) -> float:
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def noise_label(ratio: float, band: float | None) -> str:
    """Whether a rev/tree ratio stands out of the run's even/odd band (None with one round)."""
    if band is None:
        return "no noise band"
    return "within noise" if abs(ratio - 1) <= abs(band - 1) else "outside noise"


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--rev", default="HEAD", help="git revision whose src/ is the rev side (default HEAD)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=positive_int, default=None, help="first N draws of the workload (default all)")
    p.add_argument("--arms", nargs="+", choices=ARMS, default=list(ARMS))
    p.add_argument("--rounds", type=positive_int, default=3)
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload]
    draws = load_draws(workload, args.seed)[: args.draws]
    with tempfile.TemporaryDirectory() as tmp:
        rev = load_package("tplroute_rev", extract(args.rev, Path(tmp)))
        tree = load_package("tplroute_tree", ROOT / "src")
        sides = {"rev": rev, "tree": tree}
        layouts = {
            name: [package.layout.layout_from_dict(package.layout.layout_to_dict(layout)) for _, layout in draws]
            for name, package in sides.items()
        }
        times = {(name, arm): [[] for _ in draws] for name in sides for arm in args.arms}
        for round_ in range(args.rounds):
            for i, (seed, _) in enumerate(draws):
                order = ("rev", "tree") if (i + round_) % 2 == 0 else ("tree", "rev")
                for arm in args.arms:
                    outcomes = {}
                    for name in order:
                        if arm == "setup":
                            elapsed, outcomes[name] = run_setup(sides[name], workload, seed)
                        else:
                            elapsed, outcomes[name] = run_arm(sides[name], arm, layouts[name][i])
                        times[name, arm][i].append(elapsed)
                    if outcomes["rev"] != outcomes["tree"]:
                        print(f"draw {seed} {arm}: outcomes differ between {args.rev} and the working tree")
                        return 1

    print(f"{args.workload}: {len(draws)} draws from seed {args.seed}, {args.rounds} rounds, "
          f"outcomes identical; rev {args.rev} against the working tree")
    for arm in args.arms:
        rev_ms = [1000 * statistics.median(t) for t in times["rev", arm]]
        tree_ms = [1000 * statistics.median(t) for t in times["tree", arm]]
        ratios = [a / b for a, b in zip(rev_ms, tree_ms)]
        faster = sum(b < a for a, b in zip(rev_ms, tree_ms))
        ratio = interquartile_mean(rev_ms) / interquartile_mean(tree_ms)
        band, noise = None, ""
        if args.rounds >= 2:
            even = [statistics.median(t[0::2]) for t in times["rev", arm]]
            odd = [statistics.median(t[1::2]) for t in times["rev", arm]]
            band = interquartile_mean(even) / interquartile_mean(odd)
            noise = f"; rev even/odd rounds {band:.4f}x"
        print(f"{arm}: interquartile mean {interquartile_mean(rev_ms):.4f} -> {interquartile_mean(tree_ms):.4f} ms "
              f"({ratio:.4f}x{noise}); median per-draw ratio {statistics.median(ratios):.4f}x; "
              f"tree faster on {faster} of {len(draws)} draws; {noise_label(ratio, band)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
