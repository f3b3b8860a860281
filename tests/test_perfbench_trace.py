"""The traced benchmark pass routes exactly as an untraced one.

``perfbench/spans.py`` wraps router, grid, negotiation, baseline and
metrics functions by name from outside the package, so a rename or a
changed signature there breaks ``perfbench/run.py --trace 1``. This
routes one desk draw with both arms through ``run.run_pass``, under
``Tracer(hot=True)`` and untraced, and compares the outcome rows. The
traced pass's whole counter block is pinned too, since it is what the
benchmark sees of the solution queue: ``router.inserts`` and
``router.labels_pruned`` read ``SolutionQueue.insert`` and
``SolutionQueue.labels`` by name.

To re-record the counters: ``PYTHONPATH=src python tests/test_perfbench_trace.py``.
"""

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, load_draws  # noqa: E402

# tracer.counts for desk draw 0 (seed 0), both arms, recorded from a
# known-good build. labels_pruned reads negative because the search
# accepts its children without calling insert.
DESK_DRAW_0_COUNTS = {
    "base.baseline.conflict_edges": 12,
    "base.baseline.conflict_graph.calls": 1,
    "base.baseline.decompose.calls": 1,
    "base.baseline.exact_components": 9,
    "base.baseline.run_baseline.calls": 1,
    "base.baseline.segments": 29,
    "base.grid.commit.calls": 22,
    "base.grid.commit.vertices": 99,
    "base.grid.rip_up.calls": 8,
    "base.metrics.score.calls": 1,
    "base.negotiation.detect_conflicts.calls": 1,
    "base.negotiation.route_batch.calls": 1,
    "base.router.backtrace.calls": 24,
    "base.router.finalize.calls": 8,
    "base.router.inserts": 92,
    "base.router.inserts_dominated": 24,
    "base.router.labels_pruned": -535,
    "base.router.route_net.calls": 8,
    "base.router.search.calls": 24,
    "route.grid.commit.calls": 8,
    "route.grid.commit.vertices": 67,
    "route.grid.rip_up.calls": 8,
    "route.metrics.score.calls": 1,
    "route.negotiation.detect_conflicts.calls": 2,
    "route.negotiation.route_all.calls": 1,
    "route.negotiation.route_batch.calls": 1,
    "route.router.backtrace.calls": 24,
    "route.router.finalize.calls": 8,
    "route.router.inserts": 91,
    "route.router.inserts_dominated": 24,
    "route.router.labels_pruned": -562,
    "route.router.route_net.calls": 8,
    "route.router.search.calls": 24,
}


def traced_desk_draw_0():
    """Desk draw 0's rows from a traced and an untraced pass, and the traced pass's counters."""
    draws = load_draws(replace(WORKLOADS["desk"], draws=1), 0)
    tracer = Tracer(hot=True)
    with tracer.installed():
        traced, _ = run.run_pass(draws, tracer=tracer)
    untraced, _ = run.run_pass(draws)
    return traced, untraced, dict(tracer.counts)


def test_traced_pass_rows_equal_untraced():
    traced, untraced, counts = traced_desk_draw_0()
    assert traced == untraced
    assert [row["status"] for row in traced] == ["ok", "ok"]
    for arm in ("route", "base"):
        assert counts[f"{arm}.router.search.calls"] > 0
        assert counts[f"{arm}.grid.commit.vertices"] > 0
    assert counts == DESK_DRAW_0_COUNTS


if __name__ == "__main__":
    print("DESK_DRAW_0_COUNTS = {")
    for key, count in sorted(traced_desk_draw_0()[2].items()):
        print(f'    "{key}": {count},')
    print("}")
