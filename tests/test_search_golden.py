"""Byte-for-byte regression of both routing arms on seeded generated draws.

The bundled demos all use d_color 2, so they pin only the 5-cell
color-cost stencil. These draws cover d_color 1, 2 and 3 on one to three
layers, and a few carry guide boxes so the off-guide term is priced too.
For each draw the SHA-256 of a canonical text form of the outcome is
compared with a digest recorded from a known-good build: routes (paths,
per-vertex masks, traced states, stitches, total cost), iteration rows,
the committed grid and the history map for ``route_all``; routes, the
committed grid and the decomposition for ``run_baseline``. A draw on
which an arm raises ``UnroutableError`` is digested by its message.

A second digest per draw and arm pins the search itself: every label
the search pops and every label it accepts, in order, observed at the
solution queue's seams (``instances.watch_search``), as (cost, vertex,
state, arrival direction or -1, predecessor vertex or None). Same pops,
same accepted labels, same order.

To re-record: ``PYTHONPATH=src python tests/test_search_golden.py``.
"""

import hashlib

import pytest

from instances import watch_search
from tplroute.baseline import run_baseline
from tplroute.generate import generate_instance
from tplroute.layout import DesignRules
from tplroute.negotiation import route_all
from tplroute.router import SolutionQueue, UnroutableError

# (seed, width, height, layers, num_nets, pins_per_net, congestion, d_color, guided)
DRAWS = (
    (0, 10, 10, 1, 4, 3, 0.4, 1, False),
    (1, 10, 10, 2, 5, 3, 0.5, 1, False),
    (2, 9, 9, 3, 5, 3, 0.5, 1, True),
    (3, 10, 10, 1, 4, 3, 0.4, 2, False),
    (4, 10, 10, 2, 6, 3, 0.6, 2, False),
    (5, 9, 9, 3, 5, 4, 0.5, 2, True),
    (20, 10, 10, 1, 7, 3, 0.6, 2, False),  # unroutable after rescues
    (22, 10, 10, 1, 7, 3, 0.6, 3, False),  # all 10 iterations
    (7, 10, 10, 2, 5, 3, 0.5, 3, False),  # all 10 iterations
    (8, 9, 9, 3, 5, 3, 0.5, 3, False),
    (9, 12, 12, 2, 6, 4, 0.6, 3, True),
    (25, 10, 10, 2, 7, 3, 0.6, 3, False),  # two iterations
)

GOLDEN = {
    "0/baseline": "e600837fc3bd70459ae7292ae48e8167c4d0894fa9c92610e7b7160b109e99fa",
    "0/route": "889c57e7e9391be588546a1a496a719f785e9e5a5f7af097a5efd7c736507758",
    "1/baseline": "75892e450a88a6621ef3c19abb81350bbcd7266df47431a61e6355dfc1225920",
    "1/route": "7014417a796a5259f551b2b27860646f1492685e342086b31d605384565a8e5a",
    "2/baseline": "a30fa34095c8f6f0f9dd84d56a3ad0b424c42f282668cb5a2894d44f6a81a103",
    "2/route": "75f979616b931c5b8a9cdad7891a5dacc986404c7d3dc27e4cd48e87d9f4dbf8",
    "3/baseline": "c8b8857b36d910a5a85d76d95259257ce11455c1a032c1f6b5882db6e1383f66",
    "3/route": "0b0271c84d27d90900664e45190bba2da8f031899d5f0e5836a7ffcfcdcb4562",
    "4/baseline": "9c746d742e69b53ead4c5273de5942e9ebd69165779b35df5b5bee951dc25a1a",
    "4/route": "64401373341b8d92b91f9b61feb45a7b187091d8f8d03d944b3d81205495cab0",
    "5/baseline": "d970929dffe9f1547e20279f322f7fa78fcd5b4736f518ca4e1b9d98ffcb1b16",
    "5/route": "ae015dfd61588bd544ee07057ecd1341db087004a6467838deb5a280525a7dad",
    "7/baseline": "a975ea7ed07f4c6e7574324b6c931ce553a24fb4145e3f548a938b571f1d51e2",
    "7/route": "fcef2330218f05c4610d61054602f94ae06dcf8f3858364a3c7ba00ca721e7bc",
    "8/baseline": "2163a446304c33f1b8360077bef21e468ba74cab2a83644bcb05aa03874cadf7",
    "8/route": "3f30e68d636f8fc0c4a5ca29725eb0a7d3d7dfd16c311d4dd9429457753a242f",
    "9/baseline": "25eb8455be58871f8c126ef0db28f18338b8fa3ba661690435303d44422de8f2",
    "9/route": "3691d3f0b4c2844e0cd52d0d42326b35617b160319b26937c550d11144418ed1",
    "20/baseline": "ba7d038b9b9b38ac9e04859b3279f4e9dfc9cbff341c4b873affa4d003263d1c",
    "20/route": "8e2e4b51dda65127c238ff1256e460d93223229c90fb41bd3df169595ede4e5d",
    "22/baseline": "c68a2b62c801a3c69fd85a261c528d9ab0c19df821ed335f10d4d29570731321",
    "22/route": "8cac3b795f01114ed4d3a2ba0af4276bfa9f144e051c5be68bda0d98b52c43a5",
    "25/baseline": "c92fc035d2b60a03f6332d8cda1ab8f952e5ce3331cbbb1443b8241484afab70",
    "25/route": "e30388ee1276a71a8dce04811a4b2e18547076cb2371db96b1af6240760dd74b",
}


TRACE_GOLDEN = {
    "0/baseline": "55a8a874282112d5008cd2a83be94108219152001dd87b772e384d2ff1b86d3e",
    "0/route": "55a8a874282112d5008cd2a83be94108219152001dd87b772e384d2ff1b86d3e",
    "1/baseline": "53b314cbc64541f48ad2adfca2af9ef4c75d6cd2cdc4c80785c19bee0f2696f1",
    "1/route": "53b314cbc64541f48ad2adfca2af9ef4c75d6cd2cdc4c80785c19bee0f2696f1",
    "2/baseline": "8ff168a11cbf2fdfaf0216504c1292f491125ad9772fff271a82c603eda27d3f",
    "2/route": "8ff168a11cbf2fdfaf0216504c1292f491125ad9772fff271a82c603eda27d3f",
    "3/baseline": "51d0b56efe3be4d413a56ea0824b4c2dcffdc92dc42bb5f07f98d89a1f466246",
    "3/route": "de55ac3a2373d52645b0dac607389ba17e4b7ebd1336494d48e98d408eab570f",
    "4/baseline": "cd580e8f0c754788a8f4b5e8e97831478f5b1d670cf90a506ddcb2d6162b5928",
    "4/route": "fd8a2e6357e8771fe06c3d2e19cff2221082b28e185b132f2091ab445c044fc3",
    "5/baseline": "07215c031eceb9f8a7ac5853ec8a2b538ebe60a322f1579c10f549b63a39fbdc",
    "5/route": "9cc5f2a522ab9edecc7c017ea3782b6ee38ea6011450f4584f8f087e27efe6c7",
    "7/baseline": "f0f0cd80e4047c52e826aa98f9e17304f1ed02da465aa18d4dedab30f8d92f6a",
    "7/route": "4e8fbff28f6e9b0bbfa6f4c33d7b15ad8e92060d5400792be024d4b6c1d8dc41",
    "8/baseline": "661365f859246c5710cf8b2a1c402dd8e862f678223f7fb58d41cef7847ba4b1",
    "8/route": "39b6e83b1359624161450352b79d707227b43206fcdcf64e6b83dee50bf4d22f",
    "9/baseline": "3f93492b4e98621fa53ed98f8ef9c7a2f7004f3c3c05ee35a6c8b43c20566cbf",
    "9/route": "fb47e61aef3b22e96916bc5b3e37fa2f46192af658e7ddcf9d84a450ac420a55",
    "20/baseline": "c487e10d5d0163a19b6dcfda22bd80fbdecd7a33cd246e0e0d0c3c2bbc1af95f",
    "20/route": "2a394aeccdcbfa6608ee05d3030f1ca4df5e4e17e428d0987390affe8df778e8",
    "22/baseline": "86afabeac96401b3c9b0d8aaf6a0ae397201d640dfb8b94685b34b118b1feec3",
    "22/route": "f5918d462f6d2edefb3235c2ac6a92eebaaa399dab9489f0658b23ca219c1df5",
    "25/baseline": "99d7881d460e7e263b70d29733b758287d2100dba922a2f87aa7e37d727784b5",
    "25/route": "1721717f6ea0559534c5924f7ada69c97df959ea40968b794fd1fc275f9136b0",
}


def _layout(seed, width, height, layers, num_nets, pins, congestion, d_color, guided):
    layout = generate_instance(
        seed=seed, width=width, height=height, layers=layers, num_nets=num_nets,
        pins_per_net=pins, congestion=congestion, rules=DesignRules(d_color=d_color),
    )
    if guided:
        # One box per net: its pins' bounding box on layer 0, so detours
        # and every other layer pay the off-guide penalty.
        for net in layout.nets:
            xs = [v[0] for p in net.pins for v in p.covered_vertices]
            ys = [v[1] for p in net.pins for v in p.covered_vertices]
            net.guide = [(0, min(xs), min(ys), max(xs), max(ys))]
    return layout


def _routes_text(routes):
    lines = []
    for net_id in sorted(routes):
        t = routes[net_id]
        lines.append(f"net {net_id} cost {t.total_cost!r}")
        lines.append(f"  paths {t.paths!r}")
        lines.append(f"  colors {sorted((v, int(c)) for v, c in t.vertex_colors.items())!r}")
        lines.append(f"  states {sorted(t.vertex_states.items())!r}")
        lines.append(f"  stitches {t.stitches!r}")
    return lines


def _grid_text(grid):
    return [
        f"committed {sorted((v, n, int(c)) for v, (n, c) in grid.committed.items())!r}",
        f"history {sorted((v, h) for v, h in zip(grid.move_table()[1], grid.history) if h)!r}",
    ]


def route_text(layout):
    try:
        result = route_all(layout)
    except UnroutableError as exc:
        return f"UnroutableError {exc}"
    lines = _routes_text(result.routes) + _grid_text(result.grid)
    for it in result.iterations:
        conflicts = [
            (c.vertex_a, c.vertex_b, c.net_a, c.net_b, int(c.color), c.distance)
            for c in it.conflicts
        ]
        lines.append(f"iter {it.index} {it.stitch_count} {it.nets_rerouted!r} {conflicts!r}")
    return "\n".join(lines)


def baseline_text(layout):
    try:
        result = run_baseline(layout)
    except UnroutableError as exc:
        return f"UnroutableError {exc}"
    d = result.decomposition
    lines = _routes_text(result.routes) + _grid_text(result.grid)
    lines.append(f"decomposition {[int(c) for c in d.node_colors]!r} "
                 f"{d.conflict_edge_count} {d.stitch_edge_count}")
    return "\n".join(lines)


def digests():
    out = {}
    for draw in DRAWS:
        layout = _layout(*draw)
        out[f"{draw[0]}/route"] = hashlib.sha256(route_text(layout).encode()).hexdigest()
        layout = _layout(*draw)
        out[f"{draw[0]}/baseline"] = hashlib.sha256(baseline_text(layout).encode()).hexdigest()
    return out


def _label_fields(queue, label):
    """(cost, vertex, state, arrival direction or -1, predecessor vertex or None)."""
    cost, vid, dir_key, _, state, prev = label
    prev_vertex = None if prev is None else queue.vertices[prev[1]]
    return cost, queue.vertices[vid], state, int(dir_key), prev_vertex


def search_trace_digest(run, layout):
    """SHA-256 over every pop and every accepted label of one arm's run.

    Each accepted label is queued once, and each pop hands out a live
    label (see watch_search); both are read against the queue most
    recently made.
    """
    digest = hashlib.sha256()
    init = SolutionQueue.__init__
    current = []

    def recording_init(queue, *args):
        init(queue, *args)
        current[:] = [queue]

    def record(event):
        return lambda label: digest.update(f"{event} {_label_fields(current[0], label)!r}\n".encode())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SolutionQueue, "__init__", recording_init)
        watch_search(mp, on_pop=record("pop"), on_accept=record("insert"))
        try:
            run(layout)
        except UnroutableError:
            pass
    return digest.hexdigest()


def trace_digests():
    out = {}
    for draw in DRAWS:
        out[f"{draw[0]}/route"] = search_trace_digest(route_all, _layout(*draw))
        out[f"{draw[0]}/baseline"] = search_trace_digest(run_baseline, _layout(*draw))
    return out


@pytest.fixture(scope="module")
def got():
    return digests()


@pytest.fixture(scope="module")
def got_trace():
    return trace_digests()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_outcome_matches_golden_digest(got, key):
    assert got[key] == GOLDEN[key]


def test_golden_covers_every_draw(got):
    assert sorted(got) == sorted(GOLDEN)


@pytest.mark.parametrize("key", sorted(TRACE_GOLDEN))
def test_search_trace_matches_golden_digest(got_trace, key):
    assert got_trace[key] == TRACE_GOLDEN[key]


def test_trace_golden_covers_every_draw(got_trace):
    assert sorted(got_trace) == sorted(TRACE_GOLDEN)


def _print_digests(name, found):
    print(f"{name} = {{")
    for key, digest in sorted(found.items(), key=lambda kv: (int(kv[0].split("/")[0]), kv[0])):
        print(f'    "{key}": "{digest}",')
    print("}")


if __name__ == "__main__":
    _print_digests("GOLDEN", digests())
    _print_digests("TRACE_GOLDEN", trace_digests())
