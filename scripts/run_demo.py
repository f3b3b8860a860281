#!/usr/bin/env python3
"""Route a bundled demo instance end to end and render it.

Runs the tplroute CLI in route, baseline and compare mode with --render,
each under its own prefix in --outdir: route.* and baseline.* (report,
route dump and per-layer SVGs of that arm) and compare.* (the comparison
and the router's SVGs).
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from tplroute.cli import main as cli_main  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--input",
        default=str(REPO_ROOT / "data" / "demo_congested.json"),
        help="layout JSON (default: bundled congested demo)",
    )
    parser.add_argument("--outdir", default="demo_out")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for mode in ("route", "baseline", "compare"):
        code = cli_main(
            ["--mode", mode, "--input", args.input, "--output", str(outdir / mode), "--render"]
        )
        if code != 0:
            return code

    comparison = json.loads((outdir / "compare.compare.json").read_text())
    print("\ncomparison (baseline vs router):")
    for row in comparison["rows"]:
        improvement = row["improvement"]
        if isinstance(improvement, float):
            improvement = f"{improvement:.1f}%"
        print(f"  {row['metric']:>13}: {row['base']:>8} -> {row['ours']:>8}  ({improvement})")
    print(f"\nartifacts in {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
