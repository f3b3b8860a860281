#!/usr/bin/env python3
"""Benchmark both routing arms on one seeded workload.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 30 --trace 0

Generates the workload's draws from the seed, then routes every draw
with the router arm (``negotiation.route_all`` then ``metrics.score``)
and the baseline arm (``baseline.run_baseline`` then ``metrics.score``),
one draw at a time in one process, repeating passes while the time
budget lasts. Every completed result goes through the correctness gate;
a gate failure or a result that differs between passes or from an
earlier run of the same code and seed fails the run.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a counting pass, a
span pass and an untraced pass over the first half of the draws. See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

from gate import check  # noqa: E402
from selftest import gate_failures  # noqa: E402
from spans import ROOTS, Tracer  # noqa: E402
from tplroute import baseline, metrics, negotiation  # noqa: E402
from workloads import WORKLOADS, load_draws  # noqa: E402

SETUP_REPEATS = 11
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile


# Wall time on the shared host swings by up to 2x within seconds, for
# CPU time as much as for wall time. A fixed pure-Python kernel of the
# router's kind of work (tuple keys, dict updates, a binary heap) is timed
# next to every draw; dividing by it and multiplying by its time on an
# unloaded 2-core Xeon (Python 3.11) gives times at that reference speed.
# The kernel must never change: every normalized figure depends on it.
CALIBRATION_REF_S = 0.0066


def calibrate():
    """Seconds the fixed reference kernel takes right now."""
    rng = random.Random(1)
    counts, heap = {}, []
    start = time.perf_counter()
    for i in range(4000):
        v = (rng.randrange(24), rng.randrange(24), rng.randrange(2))
        counts[v] = counts.get(v, 0) + 1
        heapq.heappush(heap, (counts[v], i, v))
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


class BenchmarkError(RuntimeError):
    """The run cannot produce trustworthy numbers."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup(workload, seed):
    """Load the draws SETUP_REPEATS times.

    Returns the draws, the median wall seconds and the median seconds at
    reference host speed.
    """
    times, normalized = [], []
    for _ in range(SETUP_REPEATS):
        speed = calibrate()
        start = time.perf_counter()
        draws = load_draws(workload, seed)
        times.append(time.perf_counter() - start)
        normalized.append(times[-1] * CALIBRATION_REF_S / speed)
    return draws, statistics.median(times), statistics.median(normalized)


def route_arm(layout):
    result = negotiation.route_all(layout)
    return result, metrics.score(result.grid, result.routes, layout.rules), result.final_conflicts


def base_arm(layout):
    result = baseline.run_baseline(layout)
    return result, metrics.score(result.grid, result.routes, layout.rules), None


ARMS = (("route", route_arm), ("base", base_arm))


def run_pass(draws, tracer=None, verdicts=None):
    """Route every draw with both arms; return outcome rows and wall times.

    ``times`` holds each arm's per-draw wall seconds and, under
    "calibration", the reference kernel's seconds timed just before the
    draw.

    Rows hold only deterministic outcome fields. When ``verdicts`` is a
    dict, each completed result is gated and its open problems stored
    there; an invalid result raises BenchmarkError.
    """
    rows = []
    times = {arm: [] for arm, _ in ARMS}
    times["calibration"] = []
    for seed, layout in draws:
        times["calibration"].append(calibrate())
        for arm, fn in ARMS:
            if tracer is not None:
                tracer.arm = arm
            start = time.perf_counter()
            try:
                result, report, conflict_list = fn(layout)
            except Exception as exc:  # an arm failing on a draw is data, recorded by type
                times[arm].append(time.perf_counter() - start)
                rows.append({"seed": seed, "arm": arm, "status": type(exc).__name__,
                             "message": str(exc).splitlines()[0] if str(exc) else ""})
                continue
            times[arm].append(time.perf_counter() - start)
            row = {"seed": seed, "arm": arm, "status": "ok", "conflicts": report.conflicts,
                   "stitches": report.stitches, "weighted_cost": report.weighted_cost}
            if arm == "route":
                row["iterations"] = len(result.iterations)
            rows.append(row)
            if verdicts is not None:
                open_, invalid = check(layout, result.routes, result.grid.committed, report, conflict_list)
                if invalid:
                    raise BenchmarkError(f"draw {seed} {arm} arm fails the gate: {invalid}")
                verdicts[(seed, arm)] = open_
    return rows, times


def finish_rows(rows, verdicts):
    """Mark completed results the gate found unconnected as 'open'."""
    out = []
    for row in rows:
        open_ = verdicts.get((row["seed"], row["arm"]))
        if open_:
            row = dict(row, status="open", message="; ".join(open_))
        out.append(row)
    return out


def same_rows(first, other, what):
    if first != other:
        raise BenchmarkError(f"outcome rows differ between passes ({what})")


def code_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_against_record(name, rows, counters=None):
    """Compare with the record an earlier run of the same code, seed and mode left."""
    path = OUT / f"{name}.json"
    record = {"code": code_digest(), "rows": rows}
    if path.exists():
        old = json.loads(path.read_text())
        if old.get("code") == record["code"]:
            if old["rows"] != rows:
                raise BenchmarkError(f"outcome rows differ from the earlier run recorded in {path.name}")
            if counters is not None and "counters" in old and old["counters"] != counters:
                raise BenchmarkError(f"counters differ from the earlier run recorded in {path.name}")
            record = old
    record["rows"] = rows
    if counters is not None:
        record["counters"] = counters
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True) + "\n")


def tail(samples):
    """Value at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def interquartile_mean(values):
    """Mean of the middle half: robust to the few rescue-churn draws, and
    steadier across seeds than the median at these draw counts."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def quality(rows, arm):
    done = [r for r in rows if r["arm"] == arm and r["status"] == "ok"]
    tried = [r for r in rows if r["arm"] == arm]
    return {
        "completed": len(done),
        "attempted": len(tried),
        "conflicts": sum(r["conflicts"] for r in done),
        "stitches": sum(r["stitches"] for r in done),
        "weighted_cost": sum(r["weighted_cost"] for r in done),
        "median_cost": statistics.median(r["weighted_cost"] for r in done) if done else 0.0,
        "unrouted": [(r["seed"], r["status"]) for r in tried if r["status"] != "ok"],
    }


def print_provenance(workload, draws):
    first, last = draws[0][0], draws[-1][0]
    print(json.dumps({"workload": workload.name, "generator": "tplroute.generate.generate_instance",
                      "params": workload.generator_params(), "draw_seeds": [first, last],
                      "draws": len(draws), "why": workload.why}, sort_keys=True))


def print_rows(rows):
    print("# per-draw outcomes (deterministic)")
    for r in rows:
        if r["status"] == "ok":
            extra = f" iterations={r['iterations']}" if "iterations" in r else ""
            print(f"draw {r['seed']} {r['arm']} ok conflicts={r['conflicts']} "
                  f"stitches={r['stitches']} weighted_cost={r['weighted_cost']}{extra}")
        else:
            print(f"draw {r['seed']} {r['arm']} {r['status']}: {r['message']}")


def fits(start, seconds, rounds):
    """True while another round of the mean length so far fits the budget."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds <= seconds


def at_reference(times, arm):
    """One pass's per-draw seconds for an arm, scaled to reference host speed."""
    return [t * CALIBRATION_REF_S / c for t, c in zip(times[arm], times["calibration"])]


def end_to_end(workload, seed, seconds):
    draws, setup_wall_s, setup_s = setup(workload, seed)
    print_provenance(workload, draws)
    verdicts = {}
    start = time.perf_counter()
    rows, times = run_pass(draws, verdicts=verdicts)
    passes = [times]
    while fits(start, seconds, len(passes)):
        more_rows, more_times = run_pass(draws)
        same_rows(rows, more_rows, "untraced")
        passes.append(more_times)
    rows = finish_rows(rows, verdicts)
    check_against_record(f"{workload.name}-{seed}", rows)
    print_rows(rows)

    calibration = [c for p in passes for c in p["calibration"]]
    print(f"# timing: {len(passes)} passes of {len(draws)} draws; host speed "
          f"{CALIBRATION_REF_S / statistics.median(calibration):.3f} of reference "
          f"(range {CALIBRATION_REF_S / max(calibration):.3f}-{CALIBRATION_REF_S / min(calibration):.3f})")
    print(f"setup_wall_s {setup_wall_s:.6f} s (median of {SETUP_REPEATS} set-ups, wall time)")
    out = {"setup_s": (setup_s, "s")}
    for arm, label in (("route", "route"), ("base", "baseline")):
        wall = [statistics.median(p[arm][i] for p in passes) for i in range(len(draws))]
        ref = [statistics.median(at_reference(p, arm)[i] for p in passes) for i in range(len(draws))]
        pooled = [t for p in passes for t in p[arm]]
        tail_s, pct = tail(pooled)
        q = quality(rows, arm)
        print(f"{label}_s {statistics.median(sum(p[arm]) for p in passes):.6f} s "
              f"(median over passes of the summed per-draw wall time)")
        print(f"{label}_tail_s {tail_s:.6f} s (p{pct:.1f} of {len(pooled)} pooled per-draw wall times)")
        print(f"{label}_median_ms {1000 * statistics.median(wall):.6f} ms; {label}_wall_ms "
              f"{1000 * interquartile_mean(wall):.6f} ms (per-draw wall time: median, interquartile mean)")
        print(f"{label}_unrouted_frac {1 - q['completed'] / q['attempted']:.6f} "
              f"({q['attempted'] - q['completed']} of {q['attempted']}: {q['unrouted']})")
        print(f"{label}_conflicts {q['conflicts']} count; {label}_stitches {q['stitches']} count; "
              f"{label}_weighted_cost {q['weighted_cost']} cost (sums over completed draws)")
        out[f"{label}_ref_ms"] = (1000 * interquartile_mean(ref), "ms")
        out[f"{label}_completed_frac"] = (q["completed"] / q["attempted"], "ratio")
        out[f"{label}_median_cost"] = (q["median_cost"], "cost")
    out["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    return rows, out


def per_layer(workload, seed, seconds):
    # The first half of the draws, so that three passes take about as long
    # as one end-to-end pass.
    draws = load_draws(workload, seed)[: workload.draws // 2]
    print_provenance(workload, draws)
    verdicts = {}
    start = time.perf_counter()
    counting = Tracer(hot=True)
    with counting.installed():
        rows, _ = run_pass(draws, tracer=counting, verdicts=verdicts)
    spans, untraced = [], []
    while not spans or fits(start, seconds, len(spans) + 1):
        tracer = Tracer(hot=False)
        with tracer.installed():
            span_rows, span_times = run_pass(draws, tracer=tracer)
        same_rows(rows, span_rows, "span")
        if any(counting.counts[k] != v for k, v in tracer.counts.items()):
            raise BenchmarkError("boundary counters differ between the counting and span passes")
        spans.append((tracer, span_times))
        plain_rows, plain_times = run_pass(draws)
        same_rows(rows, plain_rows, "untraced")
        untraced.append(plain_times)
    rows = finish_rows(rows, verdicts)
    counters = dict(sorted(counting.counts.items()))
    check_against_record(f"{workload.name}-{seed}-traced", rows, counters)
    print_rows(rows)
    print("# counters (deterministic)")
    print(json.dumps(counters, sort_keys=True))
    print(f"# timing ({len(spans)} span and {len(untraced)} untraced passes of {len(draws)} draws)")

    out = {}
    for arm in ("route", "base"):
        def count(name):
            return counting.counts.get(f"{arm}.{name}", 0)

        def self_s(name):
            """Median over span passes of a span's self time, at reference speed."""
            return statistics.median(
                t.self_s.get(f"{arm}.{name}", 0.0) * CALIBRATION_REF_S / statistics.median(times["calibration"])
                for t, times in spans
            )

        for name in ("router.search", "router.route_net", "grid.color_cost", "grid.commit",
                     "grid.rip_up", "metrics.score"):
            out[f"{arm}.{name}.calls"] = (count(f"{name}.calls"), "count")
        for name in ("router.search", "router.route_net", "router.backtrace", "router.finalize",
                     "grid.commit", "grid.rip_up", "negotiation.route_batch",
                     "negotiation.detect_conflicts", "metrics.score"):
            out[f"{arm}.{name}.self_s"] = (self_s(name), "s")
        for name in ("router.pops", "router.inserts", "router.inserts_dominated", "router.labels_pruned",
                     "router.search.exhausted", "grid.commit.vertices", "grid.history.adds",
                     "negotiation.rescues"):
            out[f"{arm}.{name}"] = (count(name), "count")
        out[f"{arm}.negotiation.iterations"] = (count("negotiation.route_batch.calls"), "count")
        inserts, pops = count("router.inserts"), count("router.pops")
        accepted = inserts - count("router.inserts_dominated")
        out[f"{arm}.router.insert_accept_ratio"] = (accepted / inserts if inserts else 0.0, "ratio")
        out[f"{arm}.router.us_per_pop"] = (1e6 * self_s("router.search") / pops if pops else 0.0, "us")
        if arm == "base":
            for name in ("baseline.conflict_graph", "baseline.decompose"):
                out[f"{arm}.{name}.self_s"] = (self_s(name), "s")
            for name in ("baseline.segments", "baseline.conflict_edges", "baseline.exact_components",
                         "baseline.greedy_components"):
                out[f"{arm}.{name}"] = (count(name), "count")
        q = quality(rows, arm)
        out[f"{arm}.metrics.conflicts"] = (q["conflicts"], "count")
        out[f"{arm}.metrics.stitches"] = (q["stitches"], "count")
        traced = statistics.median(sum(at_reference(t, arm)) for _, t in spans)
        plain = statistics.median(sum(at_reference(t, arm)) for t in untraced)
        out[f"{arm}.trace.overhead_frac"] = (traced / plain - 1, "ratio")
        root = f"{arm}.{ROOTS[arm]}"
        out[f"{arm}.trace.unattributed_frac"] = (
            statistics.median(t.self_s[root] / t.total_s[root] for t, _ in spans), "ratio")
    return rows, out


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        failures = gate_failures()
        if failures:
            raise BenchmarkError(f"gate self-test failed: {failures}")
        rows, out = (per_layer if args.trace else end_to_end)(workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("# metrics")
    for name, (value, unit) in out.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": len(rows),
        "failed": sum(1 for r in rows if r["status"] != "ok"),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
