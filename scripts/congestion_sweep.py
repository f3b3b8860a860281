#!/usr/bin/env python3
"""Sweep the congestion knob and compare router vs baseline decomposer.

For each congestion level, generates seeded instances, routes them with
both arms, and prints aggregate conflicts/stitches as one JSON line per
level. Both arms run on every draw; each arm's unroutable draws are
counted, and the totals are over the draws both arms completed (the
rest are counted as skipped).
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tplroute.baseline import run_baseline  # noqa: E402
from tplroute.generate import generate_instance  # noqa: E402
from tplroute.metrics import score  # noqa: E402
from tplroute.negotiation import route_all  # noqa: E402
from tplroute.router import UnroutableError  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", type=float, nargs="+", default=[0.2, 0.4, 0.6, 0.8])
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--width", type=int, default=12)
    parser.add_argument("--height", type=int, default=12)
    parser.add_argument("--layers", type=int, default=2)
    parser.add_argument("--num-nets", type=int, default=8, dest="num_nets")
    parser.add_argument("--pins-per-net", type=int, default=4, dest="pins_per_net")
    args = parser.parse_args()

    for level in args.levels:
        started = time.perf_counter()
        totals = {"router": [0, 0], "baseline": [0, 0]}
        unroutable = {"router": 0, "baseline": 0}
        routed = 0
        skipped = 0
        for seed in range(args.seeds):
            layout = generate_instance(
                seed=seed,
                width=args.width,
                height=args.height,
                layers=args.layers,
                num_nets=args.num_nets,
                pins_per_net=args.pins_per_net,
                congestion=level,
            )
            results = {}
            for tag, run in (("router", route_all), ("baseline", run_baseline)):
                try:
                    results[tag] = run(layout)
                except UnroutableError:
                    unroutable[tag] += 1
            if len(results) < 2:
                skipped += 1
                continue
            routed += 1
            for tag, result in results.items():
                rep = score(result.grid, result.routes, layout.rules)
                totals[tag][0] += rep.conflicts
                totals[tag][1] += rep.stitches
        print(
            json.dumps(
                {
                    "congestion": level,
                    "instances": routed,
                    "skipped": skipped,
                    "router_unroutable": unroutable["router"],
                    "baseline_unroutable": unroutable["baseline"],
                    "router": {"conflicts": totals["router"][0], "stitches": totals["router"][1]},
                    "baseline": {
                        "conflicts": totals["baseline"][0],
                        "stitches": totals["baseline"][1],
                    },
                    "seconds": round(time.perf_counter() - started, 1),
                },
                sort_keys=True,
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
