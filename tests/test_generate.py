import hashlib
import json

import pytest

from tplroute.generate import InfeasiblePlacementError, generate_instance
from tplroute.layout import DesignRules, layout_from_dict, layout_to_dict, validate


def test_generated_instance_validates():
    layout = generate_instance(
        seed=1, width=8, height=8, layers=2, num_nets=4, pins_per_net=3, congestion=0.5
    )
    assert validate(layout) == []
    assert len(layout.nets) == 4
    assert all(len(n.pins) == 3 for n in layout.nets)


def test_exact_pin_count():
    layout = generate_instance(
        seed=2, width=8, height=8, layers=2, num_nets=5, pins_per_net=2, congestion=0.3
    )
    assert all(len(n.pins) == 2 for n in layout.nets)


def test_single_pin_nets_allowed():
    layout = generate_instance(
        seed=3, width=6, height=6, layers=1, num_nets=2, pins_per_net=1, congestion=0.2
    )
    assert validate(layout) == []
    assert all(len(n.pins) == 1 for n in layout.nets)


def test_congestion_monotonicity():
    low = generate_instance(
        seed=9, width=12, height=12, layers=2, num_nets=6, pins_per_net=3, congestion=0.1
    )
    high = generate_instance(
        seed=9, width=12, height=12, layers=2, num_nets=6, pins_per_net=3, congestion=0.9
    )
    assert len(high.obstacles) > len(low.obstacles)

    def spread(layout):
        total = 0
        for net in layout.nets:
            xs = [v[0] for p in net.pins for v in p.covered_vertices]
            ys = [v[1] for p in net.pins for v in p.covered_vertices]
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
        return total

    # higher congestion stretches nets across longer shared corridors
    assert spread(high) > spread(low)


def test_determinism():
    a = generate_instance(seed=7, width=10, height=10, layers=2, num_nets=5, pins_per_net=3, congestion=0.6)
    b = generate_instance(seed=7, width=10, height=10, layers=2, num_nets=5, pins_per_net=3, congestion=0.6)
    assert layout_to_dict(a) == layout_to_dict(b)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        generate_instance(seed=0, width=0, height=4, layers=1, num_nets=1, pins_per_net=1, congestion=0.5)
    with pytest.raises(ValueError):
        generate_instance(seed=0, width=4, height=4, layers=1, num_nets=1, pins_per_net=1, congestion=1.5)
    with pytest.raises(ValueError, match="more than"):
        generate_instance(seed=0, width=10**6, height=10**6, layers=2, num_nets=1, pins_per_net=2, congestion=0.5)


def test_pins_avoid_obstacles_and_each_other():
    layout = generate_instance(
        seed=11, width=10, height=10, layers=2, num_nets=6, pins_per_net=4, congestion=0.8
    )
    seen = set()
    for net in layout.nets:
        for pin in net.pins:
            for v in pin.covered_vertices:
                assert v not in layout.obstacles
                assert v not in seen
                seen.add(v)


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("height", [1, 2, 3, 4])
def test_narrow_grids_place_pins_on_the_grid(width, height):
    # The pin band is at most the grid's width, so every placed pin is on
    # the grid; a band too crowded to place in is the only way to fail.
    for seed in range(200):
        try:
            layout = generate_instance(
                seed=seed, width=width, height=height, layers=1,
                num_nets=1, pins_per_net=2, congestion=0,
            )
        except InfeasiblePlacementError:
            continue
        assert validate(layout) == [], (seed, validate(layout))


# perfbench's workload shapes (desk, corridor, tight; see
# perfbench/workloads.py), copied here so the draws are pinned without
# routing them. Each digest is over the sorted-key JSON of seeds 0-9, one
# line per draw. Each draw is also reloaded through the parser, as
# perfbench loads it, and must serialize back to the same line.
DRAW_DIGESTS = {
    (12, 0.6, 2): "57f986e14102bc96039e3dc13407e12e297a5d0ad919503e073017e30752afde",
    (24, 0.5, 2): "55dfe81d258b36d5db8786493065e172a561a000637d2f87718fac0cf91982c0",
    (24, 0.5, 3): "4f5ff75ae47df532f428b79a511f495f2537a61c716fab34edd093af3153a3e2",
}


@pytest.mark.parametrize("side, congestion, d_color", list(DRAW_DIGESTS))
def test_generated_draws_pinned(side, congestion, d_color):
    digest = hashlib.sha256()
    for seed in range(10):
        layout = generate_instance(
            seed=seed, width=side, height=side, layers=2, num_nets=8,
            pins_per_net=4, congestion=congestion, rules=DesignRules(d_color=d_color),
        )
        line = json.dumps(layout_to_dict(layout), sort_keys=True)
        reloaded = layout_from_dict(json.loads(line))
        assert json.dumps(layout_to_dict(reloaded), sort_keys=True) == line, seed
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == DRAW_DIGESTS[side, congestion, d_color]
