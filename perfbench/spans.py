"""Per-layer spans and counters, installed from outside the package.

Wrappers replace module attributes and class methods for the length of
one pass and are removed afterwards; nothing under ``src/`` is edited.
Two kinds of pass use them:

* a span pass times each layer boundary (self time is a span minus its
  child spans) and counts the cheap boundary events;
* a counting pass also wraps the per-relaxation hot functions
  (``SolutionQueue.insert``/``pop``, ``Grid.color_cost``), whose wrappers
  would otherwise inflate the search's self time.

Every name a metric is keyed by is prefixed with the arm that was
running (``route.`` or ``base.``).
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

from tplroute import baseline, grid, metrics, negotiation, router

# (owner, attribute, span name). Where a module imported a function by
# name, its own binding is the one the caller looks up, so it is patched
# too and shares the span name.
SPANS = (
    (negotiation, "route_all", "negotiation.route_all"),
    (baseline, "run_baseline", "baseline.run_baseline"),
    (negotiation, "route_batch", "negotiation.route_batch"),
    (baseline, "route_batch", "negotiation.route_batch"),
    (negotiation, "route_net", "router.route_net"),
    (router, "color_state_search", "router.search"),
    (router, "backtrace", "router.backtrace"),
    (router, "finalize_colors", "router.finalize"),
    (grid.Grid, "commit_route", "grid.commit"),
    (grid.Grid, "rip_up", "grid.rip_up"),
    (negotiation, "detect_conflicts", "negotiation.detect_conflicts"),
    (metrics, "detect_conflicts", "negotiation.detect_conflicts"),
    (baseline, "build_conflict_graph", "baseline.conflict_graph"),
    (baseline, "decompose", "baseline.decompose"),
    (metrics, "score", "metrics.score"),
)

ROOTS = {"route": "negotiation.route_all", "base": "baseline.run_baseline"}


class Tracer:
    """Span self times and event counts for one pass, keyed by arm."""

    def __init__(self, hot: bool):
        self.hot = hot
        self.arm = "route"
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self._child_s: list[float] = []  # per open span: seconds in its children
        self._queues: list = []
        self._accepted: Counter = Counter()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[f"{self.arm}.{name}"] += n

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                return self._observe(name, fn, args, kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
                key = f"{self.arm}.{name}"
                self.total_s[key] += elapsed
                self.self_s[key] += elapsed - child

        return wrapper

    def _observe(self, name: str, fn, args, kwargs):
        """Call fn and count the boundary events the span name stands for."""
        self.count(f"{name}.calls")
        try:
            result = fn(*args, **kwargs)
        except router.UnroutableError:
            if name == "router.route_net":
                self.count("negotiation.rescues")
            raise
        except router.SearchExhaustedError:
            if name == "router.search":
                self.count("router.search.exhausted")
            raise
        finally:
            if name == "router.route_net" and self.hot:
                self._settle_queues()
        if name == "grid.commit":
            self.count("grid.commit.vertices", len(args[2]))
        elif name == "baseline.conflict_graph":
            self.count("baseline.segments", len(result.segments))
            self.count("baseline.conflict_edges", len(result.conflict_edges))
        return result

    def _settle_queues(self) -> None:
        """Labels pruned = accepted inserts minus labels still live."""
        for queue in self._queues:
            live = sum(len(bucket) for bucket in queue.labels.values())
            self.count("router.labels_pruned", self._accepted.pop(id(queue)) - live)
        self._queues.clear()

    def _hot_wrappers(self):
        queue_cls = router.SolutionQueue
        init, insert, pop = queue_cls.__init__, queue_cls.insert, queue_cls.pop
        color_cost = grid.Grid.color_cost
        add_history = grid.Grid.add_history
        exact = baseline.exact_color_component
        greedy = baseline.greedy_color_component

        def init_w(queue, *args, **kwargs):
            init(queue, *args, **kwargs)
            self._queues.append(queue)
            self._accepted[id(queue)] += 0

        def insert_w(queue, node):
            accepted = insert(queue, node)
            self.count("router.inserts")
            if accepted:
                self._accepted[id(queue)] += 1
            else:
                self.count("router.inserts_dominated")
            return accepted

        def pop_w(queue):
            node = pop(queue)
            if node is not None:
                self.count("router.pops")
            return node

        def color_cost_w(g, *args, **kwargs):
            self.count("grid.color_cost.calls")
            return color_cost(g, *args, **kwargs)

        def add_history_w(g, v, amount):
            self.count("grid.history.adds")
            return add_history(g, v, amount)

        def exact_w(*args):
            self.count("baseline.exact_components")
            return exact(*args)

        def greedy_w(*args):
            self.count("baseline.greedy_components")
            return greedy(*args)

        return (
            (queue_cls, "__init__", init_w),
            (queue_cls, "insert", insert_w),
            (queue_cls, "pop", pop_w),
            (grid.Grid, "color_cost", color_cost_w),
            (grid.Grid, "add_history", add_history_w),
            (baseline, "exact_color_component", exact_w),
            (baseline, "greedy_color_component", greedy_w),
        )

    @contextmanager
    def installed(self):
        """Patch every wrapper in, and restore the originals on exit."""
        patches = [(owner, attr, self._span(name, getattr(owner, attr))) for owner, attr, name in SPANS]
        if self.hot:
            patches.extend(self._hot_wrappers())
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
