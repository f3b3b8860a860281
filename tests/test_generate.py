import pytest

from tplroute.generate import generate_instance
from tplroute.layout import layout_to_dict, validate


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
