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

from instances import baseline_text, route_text, watch_search
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
    "0/baseline": "1aeed2aad17a84835cd870b605956e67d3fc7b870446c60bfffd4fd31a7d3fcb",
    "0/route": "1aeed2aad17a84835cd870b605956e67d3fc7b870446c60bfffd4fd31a7d3fcb",
    "1/baseline": "ca2ea869cedebdfcd9640fc638de162a34e18538874175afed2eb1fd9412ad33",
    "1/route": "ca2ea869cedebdfcd9640fc638de162a34e18538874175afed2eb1fd9412ad33",
    "2/baseline": "aad1abcd171d3b371feb0502b3fc78f597229e2fef82748b3bbd454e59705fca",
    "2/route": "aad1abcd171d3b371feb0502b3fc78f597229e2fef82748b3bbd454e59705fca",
    "3/baseline": "4ee505ccaa9b6a76e5111053d483ff7f8cef325badf10b3e5173ae30a05bda0a",
    "3/route": "45b5b6185e1b049e2ebe9589054ae48fcb093c530a44ee67a737fca53bb6f05a",
    "4/baseline": "53edf350841f0a5b7600b412d77e82cd499b3303a6b8c6554f78955c40d48988",
    "4/route": "86a88596c0f276949aa5e73db01a203dc779e428b53d5a8ceb90c2ca339148e4",
    "5/baseline": "2983a8c0de001c17a0572ea348f0f8d923bdd1c7df564082ae169c919ba26272",
    "5/route": "cec3286191588c34e6b7e4d5853177f0a79dcd2a15c0a715694914d0bbcf16d4",
    "7/baseline": "1ece79804ab93268f5eed0db5af11935008bd662eea72aabf0c18e933483b7f7",
    "7/route": "6da87d321216fe477dfb40a62fac11c6b86a6d7bd3ccf8027a760d66d1886026",
    "8/baseline": "8a0ac2cd348882491bdcc9c893962d4eeeec82c7365789adf809f154d7e4249b",
    "8/route": "bda582d697cac5d04087c5db8db9046330290d49232121866283aa9fa8d70c21",
    "9/baseline": "7d47310985394992f579002c3ff41949f17ca2c863eb49327dc31e2da54301a9",
    "9/route": "b5bf220afa38628fe878b07e857571cf9f5ffbefda0fc8d1390d1b87398865d5",
    "20/baseline": "036d44ee1d19be62652bf0a71c846b8cd8bfff79af666efd997d926d24582ca6",
    "20/route": "e1c330a9fa95a7b6bd005a6e97365f565b5e606f6755092252b575c34125ce5a",
    "22/baseline": "a3476612817d3f0955cb44481621daa67bcb7b06cbeba34b6df9b814d136f65b",
    "22/route": "b1ae114c2598dba0467e91952075c705ed1286ddac5b89ef47b821d171f1a579",
    "25/baseline": "c342bd2ac093b6bcf340eca67f98a4d707d5728e07bcd03d5b0ebe22d937cc11",
    "25/route": "a80c5424f757b35ef3353281a3ce865100ba2ae19f78436665ffb79603368f81",
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
