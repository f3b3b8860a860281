"""The traced benchmark pass routes exactly as an untraced one.

``perfbench/spans.py`` wraps router, grid, negotiation, baseline and
metrics functions by name from outside the package, so a rename or a
changed signature there breaks ``perfbench/run.py --trace 1``. This
routes one desk draw with both arms through ``run.run_pass``, under
``Tracer(hot=True)`` and untraced, and compares the outcome rows.
"""

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, load_draws  # noqa: E402


def test_traced_pass_rows_equal_untraced():
    draws = load_draws(replace(WORKLOADS["desk"], draws=1), 0)
    tracer = Tracer(hot=True)
    with tracer.installed():
        traced, _ = run.run_pass(draws, tracer=tracer)
    untraced, _ = run.run_pass(draws)
    assert traced == untraced
    assert [row["status"] for row in traced] == ["ok", "ok"]
    for arm in ("route", "base"):
        assert tracer.counts[f"{arm}.router.search.calls"] > 0
        assert tracer.counts[f"{arm}.grid.commit.vertices"] > 0
