import hashlib
import json
import math
import random

import pytest

from tplroute.generate import OBSTACLE_FRACTION, InfeasiblePlacementError, _sample_ids, generate_instance
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
    # Sizes must be integers, as validate requires of a layout; a boolean
    # is not one. Each is named before any draw.
    sizes = dict(width=12, height=12, layers=2, num_nets=4, pins_per_net=3)
    for name, value in [("width", 12.0), ("height", True), ("layers", 2.0), ("num_nets", 2.5), ("pins_per_net", True)]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            generate_instance(seed=0, congestion=0.5, **{**sizes, name: value})


def test_obstacle_ids_are_random_sample_picks():
    # Every (n, k) the generator can ask for up to 400 vertices. Its k is
    # round(congestion * OBSTACLE_FRACTION * n) for a congestion in [0, 1],
    # so at most n / 20 rounded half up: where n / 20 is a tie, the float
    # product may land on either side of it. _sample_ids must pick
    # sample(range(n), k)'s ids in its order and leave the generator in
    # the same state.
    assert OBSTACLE_FRACTION == 1 / 20
    for n in range(1, 401):
        for k in range((n + 10) // 20 + 1):
            # The premise: sample takes its set path, whose rule
            # _sample_ids copies, unless it draws at most one id.
            setsize = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
            assert k <= 1 or n > setsize, (n, k)
            for seed in (0, n):
                ours, reference = random.Random(seed), random.Random(seed)
                picked = list(_sample_ids(ours.getrandbits, n, k))
                assert picked == reference.sample(range(n), k), (n, k, seed)
                assert ours.getstate() == reference.getstate(), (n, k, seed)


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


def draws_digest(shape):
    """sha256 over the sorted-key JSON of seeds 0-9 of one generator shape.

    A draw the generator cannot place contributes its error message
    instead, so which seeds fail, and how, is pinned too.
    """
    width, height, layers, num_nets, pins_per_net, congestion = shape
    digest = hashlib.sha256()
    for seed in range(10):
        try:
            layout = generate_instance(
                seed=seed, width=width, height=height, layers=layers,
                num_nets=num_nets, pins_per_net=pins_per_net, congestion=congestion,
            )
        except InfeasiblePlacementError as exc:
            line = f"InfeasiblePlacementError: {exc}"
        else:
            line = json.dumps(layout_to_dict(layout), sort_keys=True)
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


# One shape per path of the generator's bounded draws, keyed by
# (width, height, layers, num_nets, pins_per_net, congestion).
RNG_PATH_DIGESTS = {
    # One layer: the layer draw is below 1, and still takes a bit.
    (8, 8, 1, 4, 3, 0.4): "6108b0953d2d2c79e68246a8b31d4f0ace3fadaea36426fd43a1e79d041f21ae",
    # Three layers: the layer draw rejects one value in four.
    (10, 10, 3, 6, 3, 0.4): "66054eb3a6dea6253971425a6c58826f00f2aecd877285c30acf572f6c7c8c7a",
    # Widths 1 and 2: the band spans the whole width.
    (1, 6, 2, 2, 2, 0.0): "38dd740bd06357cf48296b512f63d009f1ad565bac0bfd1edf073bd6f5a0accf",
    (2, 5, 2, 3, 2, 0.5): "f8e655aef4b986f8472c9dae80eebea35acf7974c0ac31fc1abaea4307224741",
    # No obstacles, then the most.
    (12, 12, 2, 8, 4, 0.0): "a074770c4eeff64d5a8b2dbd5b487ebb285ad9da89bab6bfa1d89f3f43d88a14",
    (12, 12, 2, 8, 4, 1.0): "6d9a1fdfb3a6104e9fded58e2c4e8b1f33f1023bbc8fbcddb72a054ca74414b8",
    # Crowded bands: pins retry often, and some seeds cannot be placed.
    (8, 4, 1, 6, 3, 1.0): "307c62f4cbff63de6070e27556d0bc13ed6ac75fe24eeaa8564338bf27f1b40d",
    (6, 3, 1, 5, 3, 1.0): "2d76f5937be818f435a98f61baa9fe405724d87ff3cb804bc67bbe3c380beee8",
}


@pytest.mark.parametrize("shape", list(RNG_PATH_DIGESTS))
def test_draws_pinned_on_every_rng_path(shape):
    assert draws_digest(shape) == RNG_PATH_DIGESTS[shape]


def test_crowded_band_message():
    # Seed 1 of the last crowded shape above cannot place its pins; seed 0 can.
    shape = dict(width=6, height=3, layers=1, num_nets=5, pins_per_net=3, congestion=1.0)
    generate_instance(seed=0, **shape)
    with pytest.raises(InfeasiblePlacementError) as info:
        generate_instance(seed=1, **shape)
    assert str(info.value) == "no free pin position in a 5-wide band after 400 tries"
