import json
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplroute.baseline import route_colorless
from tplroute.generate import generate_instance
from tplroute.layout import (
    DesignRules,
    LayoutError,
    layout_from_dict,
    layout_to_dict,
    load_layout,
    save_layout,
    validate,
)
from tplroute.negotiation import route_all

RULE_NAMES = [f.name for f in fields(DesignRules)]


def minimal_dict():
    return {
        "grid": {"width": 4, "height": 4, "layers": [{"dir": "H"}, {"dir": "V"}]},
        "rules": {
            "d_color": 2, "alpha": 1, "beta": 1, "gamma": 50, "stitch_cost": 5,
            "via_cost": 4, "wrong_way_cost": 2, "history_increment": 10,
            "max_iterations": 10,
        },
        "obstacles": [],
        "nets": [{"id": 0, "name": "n0", "pins": [[[0, 0, 0]], [[3, 3, 0]]]}],
    }


def test_minimal_layout_loads(tmp_path):
    path = tmp_path / "l.json"
    path.write_text(json.dumps(minimal_dict()))
    layout = load_layout(path)
    assert layout.num_layers == 2
    assert len(layout.nets) == 1
    assert layout.rules.d_color == 2
    assert validate(layout) == []


def test_out_of_bounds_pin_rejected():
    data = minimal_dict()
    data["grid"]["width"] = 8
    data["nets"][0]["pins"][0] = [[9, 0, 0]]
    with pytest.raises(LayoutError, match="out of bounds"):
        layout_from_dict(data)


def test_missing_rule_field_named():
    data = minimal_dict()
    del data["rules"]["d_color"]
    with pytest.raises(LayoutError, match="d_color"):
        layout_from_dict(data)


def test_unparsable_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(LayoutError, match="cannot parse"):
        load_layout(path)


def test_too_deeply_nested_file(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    with pytest.raises(LayoutError, match="cannot parse"):
        load_layout(path)


def test_non_utf8_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    with pytest.raises(LayoutError, match="cannot parse"):
        load_layout(path)


def test_duplicate_net_id():
    data = minimal_dict()
    data["nets"].append({"id": 0, "name": "dup", "pins": [[[1, 1, 0]], [[2, 2, 0]]]})
    with pytest.raises(LayoutError, match="duplicate net id 0"):
        layout_from_dict(data)


def test_empty_pin_list():
    data = minimal_dict()
    data["nets"][0]["pins"] = []
    with pytest.raises(LayoutError, match="no pins"):
        layout_from_dict(data)


def test_pin_on_obstacle():
    data = minimal_dict()
    data["obstacles"] = [[0, 0, 0]]
    with pytest.raises(LayoutError, match="obstacle"):
        layout_from_dict(data)


def test_shared_pin_vertex_rejected():
    data = minimal_dict()
    data["nets"].append({"id": 1, "name": "n1", "pins": [[[0, 0, 0]], [[2, 2, 0]]]})
    with pytest.raises(LayoutError, match="shared by nets"):
        layout_from_dict(data)


def test_non_alternating_layers_rejected():
    data = minimal_dict()
    data["grid"]["layers"] = [{"dir": "H"}, {"dir": "H"}]
    with pytest.raises(LayoutError, match="alternate"):
        layout_from_dict(data)


def test_guide_box_validation():
    data = minimal_dict()
    data["nets"][0]["guide"] = [{"layer": 0, "x0": 2, "y0": 0, "x1": 1, "y1": 3}]
    with pytest.raises(LayoutError, match="guide"):
        layout_from_dict(data)


def test_valid_guide_round_trips():
    data = minimal_dict()
    data["nets"][0]["guide"] = [{"layer": 0, "x0": 0, "y0": 0, "x1": 3, "y1": 1}]
    layout = layout_from_dict(data)
    assert layout.nets[0].guide == [(0, 0, 0, 3, 1)]
    again = layout_from_dict(layout_to_dict(layout))
    assert again.nets[0].guide == layout.nets[0].guide


@pytest.mark.parametrize("bad", [2.7, 2.0, "a", True, None])
def test_non_integer_guide_coordinate_rejected(bad):
    data = minimal_dict()
    data["nets"][0]["guide"] = [{"layer": 0, "x0": 0, "y0": 0, "x1": bad, "y1": 1}]
    with pytest.raises(LayoutError, match="guide x1 must be an integer"):
        layout_from_dict(data)


@pytest.mark.parametrize("bad", ["zero", 0.0, True, None, [0]])
def test_non_integer_net_id_rejected(bad):
    data = minimal_dict()
    data["nets"][0]["id"] = bad
    with pytest.raises(LayoutError, match="net id must be an integer"):
        layout_from_dict(data)


@pytest.mark.parametrize(
    "path, message",
    [
        ((), "layout must be an object"),
        (("grid",), "grid must be an object"),
        (("grid", "layers"), "grid layers must be a list"),
        (("grid", "layers", 0), "layer 0 must be an object"),
        (("rules",), "rules must be an object"),
        (("obstacles",), "obstacles must be a list"),
        (("nets",), "nets must be a list"),
        (("nets", 0), "net must be an object"),
        (("nets", 0, "name"), "net 0 name must be a string"),
        (("nets", 0, "pins"), "net 0 pins must be a list"),
        (("nets", 0, "pins", 0), "net 0 pin 0 must be a list"),
        (("nets", 0, "guide"), "net 0 guide must be a list"),
        (("nets", 0, "guide", 0), "net 0 guide must be an object"),
    ],
)
def test_wrong_json_type_rejected(path, message):
    # Each of these raised a bare TypeError, or was accepted (the name).
    data = minimal_dict()
    data["nets"][0]["guide"] = [{"layer": 0, "x0": 0, "y0": 0, "x1": 3, "y1": 1}]
    if path:
        *parents, last = path
        target = data
        for key in parents:
            target = target[key]
        target[last] = 5
    else:
        data = 5
    with pytest.raises(LayoutError, match=message):
        layout_from_dict(data)


@pytest.mark.parametrize("vertex", [[True, 0, 0], [0, False, 0], [0, 0, True]])
def test_boolean_vertex_coordinate_rejected(vertex):
    data = minimal_dict()
    data["nets"][0]["pins"][0] = [vertex]
    with pytest.raises(LayoutError, match="non-integer vertex"):
        layout_from_dict(data)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_generated_layouts(seed):
    layout = generate_instance(
        seed=seed, width=8, height=8, layers=2,
        num_nets=3, pins_per_net=2, congestion=0.4,
    )
    again = layout_from_dict(layout_to_dict(layout))
    assert layout_to_dict(again) == layout_to_dict(layout)
    assert validate(again) == []


def test_save_and_reload(tmp_path):
    layout = generate_instance(
        seed=5, width=6, height=6, layers=2,
        num_nets=2, pins_per_net=2, congestion=0.3,
    )
    path = tmp_path / "inst.json"
    save_layout(layout, path)
    again = load_layout(path)
    assert layout_to_dict(again) == layout_to_dict(layout)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1, "3", True])
@pytest.mark.parametrize("name", RULE_NAMES)
def test_bad_rule_value_rejected(name, bad):
    data = minimal_dict()
    data["rules"][name] = bad
    with pytest.raises(LayoutError, match=name):
        layout_from_dict(data)


@pytest.mark.parametrize(
    "section, key, bad",
    [
        ("rules", "d_color", 2.7),
        ("rules", "max_iterations", 3.0),
        ("grid", "width", "6"),
        ("grid", "height", 4.0),
        ("grid", "width", True),
    ],
)
def test_non_integer_sizes_rejected(section, key, bad):
    data = minimal_dict()
    data[section][key] = bad
    with pytest.raises(LayoutError, match="integer"):
        layout_from_dict(data)


def test_float_rules_read_json_integers_as_floats():
    layout = layout_from_dict(minimal_dict())
    assert type(layout.rules.stitch_cost) is float
    assert type(layout.rules.d_color) is int
    assert layout_to_dict(layout)["rules"]["stitch_cost"] == 5.0
    assert layout.rules.off_guide_penalty == DesignRules().off_guide_penalty


def test_off_guide_penalty_is_the_only_optional_rule():
    data = minimal_dict()
    data["rules"]["off_guide_penalty"] = 1.5
    assert layout_from_dict(data).rules.off_guide_penalty == 1.5
    assert set(layout_to_dict(layout_from_dict(data))["rules"]) == set(RULE_NAMES)


@pytest.mark.parametrize("arm", [route_all, route_colorless])
def test_routing_entry_points_reject_nan_rules(arm):
    layout = layout_from_dict(minimal_dict())
    layout.rules = replace(layout.rules, alpha=float("nan"))
    with pytest.raises(LayoutError, match="alpha"):
        arm(layout)
