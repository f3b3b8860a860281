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
    "0/baseline": "58fdaa350cd2098053551fd4a93c04904904e4d58af521088d88a7bc95912902",
    "0/route": "58fdaa350cd2098053551fd4a93c04904904e4d58af521088d88a7bc95912902",
    "1/baseline": "9584f49fac563cde1fcf4507158a2ae504557740285891e3d0947b35c8d501bc",
    "1/route": "9584f49fac563cde1fcf4507158a2ae504557740285891e3d0947b35c8d501bc",
    "2/baseline": "fae3df20b5bfbd1a3816de7c7e66c3f7157fd7c1f1a24d5001479d60206b6cea",
    "2/route": "fae3df20b5bfbd1a3816de7c7e66c3f7157fd7c1f1a24d5001479d60206b6cea",
    "3/baseline": "4ead2947728b65c2b2e4023adf85cff8ff64d7b0ac91df2cc22a76e90782bdce",
    "3/route": "88baeadb359017ad272a84304efab7fe493fe7c4b3722cf5fbf68fe63da766ba",
    "4/baseline": "68b6d21ec82f9ce7e6b41c2320330092c04f510c68d7158780a7aa0b3caf8f60",
    "4/route": "342973ca05ba0910b01b3a123d869f7cd9e130242c6e4b1a1b2949b8fe9de7da",
    "5/baseline": "13238d74bd7161b49a3ddc2b3ac9a8b8f9898e303468cc80f277dda0a493394c",
    "5/route": "57d96a0b20568464aef0f73f7e4dd1c778ef1d886969a04f4e9358aee0d5f9f0",
    "7/baseline": "c739bb1364b075e23bce79c5ae0922339cbc572719550d877da6b8ab621b990c",
    "7/route": "a86496a80d95b891f568beb9c8f1c8dc48706ebf6b34e06497506efece1f81bb",
    "8/baseline": "a7783aef7f8fb180a9836508a4d4bfd2a8ebeda3e91c6f9af471051871d324db",
    "8/route": "c71d33109fcfcfbcd1d685e93fea10e1470f43d719a799233eff8415637e48db",
    "9/baseline": "dd7997a614beafcb389f234979c18743bfc038c2793824e2537a40119dbcc832",
    "9/route": "2e95ec104968caa481f1effc581f8587882de8aa7200cab7ad92a4399a9fa3f4",
    "20/baseline": "025cc9c062e41be61739b09c38aab685a1e1cfe17ce399fe8af8d3cb4a23b4a1",
    "20/route": "36cd0bc285ddd8c754705928ca4e3e3e188cd73cb65f8ef4ca939e1399303e35",
    "22/baseline": "5f47946efd5ddf463b04d02a4dbf648cdc3c451650e6a0ac59d29d0e63fad5af",
    "22/route": "996fee23754670892fa7229589d266dd0af58eb65ae45f3da7037ff44e7c4b4d",
    "25/baseline": "cb8d12385e88d84a104c90577084ccaf69ee1f4bc4e31fc8de253441b703a6c9",
    "25/route": "83b8f43cedc1e810ab586845853b5c1119e6a4d17c74c2247fe91483538bfca2",
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
