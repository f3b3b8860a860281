import copy
import hashlib
import json
import math
import re
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tplroute.baseline import route_colorless, run_baseline
from tplroute.generate import generate_instance
from tplroute.layout import (
    COST_RULE_MAX,
    MAX_GRID_VERTICES,
    MAX_ITERATIONS,
    RULE_TYPES,
    DesignRules,
    Layout,
    LayoutError,
    Net,
    Pin,
    layout_from_dict,
    layout_to_dict,
    load_layout,
    require_valid,
    save_layout,
    validate,
)
from tplroute.negotiation import route_all

RULE_NAMES = [f.name for f in fields(DesignRules)]
COST_RULES = [name for name, kind in RULE_TYPES.items() if kind is float]


def set_at(data, path, value):
    """Replace the entry that a path of keys leads to in nested data."""
    *parents, last = path
    for key in parents:
        data = data[key]
    data[last] = value


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


# Where each located vertex array sits in three_net_dict: net 0 pin 0 and a
# later pin of a later net, so a location built only on error must still
# name the right net and pin.
PIN_PATHS = {"net 0 pin 0": ("nets", 0, "pins", 0), "net 2 pin 3": ("nets", 2, "pins", 3)}


def three_net_dict():
    """minimal_dict with nets 1 and 2 added, valid as it stands.

    Net 2 has five pins and holds tuples, as a code-built dict may: pin 1
    is a tuple array, and pin 2 a list holding a tuple vertex. Nets 1 and
    2 sit at x >= 2, off the square x, y in 0..1 that the vertex tests
    write into.
    """
    data = minimal_dict()
    data["nets"] += [
        {"id": 1, "name": "n1", "pins": [[[2, 0, 1]], [[2, 3, 1]]]},
        {
            "id": 2,
            "name": "n2",
            "pins": [[[3, 0, 1]], ((3, 1, 1),), [(3, 2, 1)], [[2, 2, 0]], [[2, 1, 0]]],
            "guide": [{"layer": 0, "x0": 2, "y0": 0, "x1": 3, "y1": 3}],
        },
    ]
    return data


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


@pytest.mark.parametrize("width, height, ok", [(2**11, 2**10, True), (2**11 + 1, 2**10, False), (10**6, 10**6, False)])
def test_grid_vertex_cap(width, height, ok):
    # 2**11 x 2**10 x 2 layers is exactly MAX_GRID_VERTICES.
    data = minimal_dict()
    data["grid"]["width"], data["grid"]["height"] = width, height
    assert MAX_GRID_VERTICES == 2**22
    if ok:
        assert layout_from_dict(data).width == width
    else:
        with pytest.raises(LayoutError, match="more than 4194304 vertices"):
            layout_from_dict(data)


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


def test_layer_direction_checked_by_validate():
    # A layout built in code must meet the same rule as a loaded one, or
    # save_layout would write a file that load_layout rejects.
    layout = generate_instance(seed=1, width=6, height=6, layers=2, num_nets=2, pins_per_net=2, congestion=0.2)
    assert validate(layout) == []
    layout.layers = ["H", "diagonal"]
    assert validate(layout) == ["layer 1 direction must be 'H' or 'V', got 'diagonal'"]
    with pytest.raises(LayoutError, match="direction must be 'H' or 'V'"):
        require_valid(layout)
    data = layout_to_dict(replace(layout, layers=["H", "V"]))
    data["grid"]["layers"][1]["dir"] = "diagonal"
    with pytest.raises(LayoutError, match="layer 1 direction must be 'H' or 'V'"):
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
    message = f"net 0 guide box (0, 0, 0, {bad!r}, 1) is not five integers"
    with pytest.raises(LayoutError, match=re.escape(message)):
        layout_from_dict(data)


@pytest.mark.parametrize("bad", ["zero", 0.0, True, None, [0], float("nan")])
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
        (("nets", 2), "net must be an object"),
        (("nets", 2, "name"), "net 2 name must be a string"),
        (("nets", 2, "pins"), "net 2 pins must be a list"),
        (("nets", 2, "pins", 3), "net 2 pin 3 must be a list"),
        (("nets", 2, "guide"), "net 2 guide must be a list"),
        (("nets", 2, "guide", 0), "net 2 guide must be an object"),
    ],
)
def test_wrong_json_type_rejected(path, message):
    # Each of these raised a bare TypeError, or was accepted (the name).
    data = three_net_dict()
    data["nets"][0]["guide"] = [{"layer": 0, "x0": 0, "y0": 0, "x1": 3, "y1": 1}]
    if path:
        set_at(data, path, 5)
    else:
        data = 5
    with pytest.raises(LayoutError, match=message):
        layout_from_dict(data)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("nets", 0, "pins", 0, 0), [0, 0], r"bad vertex \[0, 0\] in net 0 pin 0"),
        (("grid", "layers"), [], "grid needs at least one layer"),
        (("grid", "width"), 0, "grid dimensions must be positive, got 0x4"),
        (("obstacles",), [[9, 0, 0]], r"obstacle \(9, 0, 0\) out of bounds"),
        (("nets", 0, "pins", 0), [], "net 0 pin 0 covers no vertices"),
        (("nets", 2, "pins", 3, 0), [0, 0], r"bad vertex \[0, 0\] in net 2 pin 3"),
        (("nets", 2, "pins", 3), [], "net 2 pin 3 covers no vertices"),
        (("nets", 2, "guide", 0, "x1"), 3.0, r"net 2 guide box \(0, 2, 0, 3\.0, 3\) is not five integers"),
        (("nets", 2, "guide", 0), {"layer": 0}, "missing field 'x0' in net 2 guide"),
        (("nets", 2), {"id": 2, "name": "n2"}, "missing field 'pins' in net 2"),
    ],
)
def test_bad_geometry_rejected(path, value, message):
    data = three_net_dict()
    set_at(data, path, value)
    with pytest.raises(LayoutError, match=message):
        layout_from_dict(data)


def test_net_id_name_and_guide_faults_are_named_together():
    # The parser shapes these values and validate judges them, so one
    # error names a fault in each of three nets, not only the first.
    data = three_net_dict()
    data["nets"][0]["id"] = "zero"
    data["nets"][1]["name"] = 5
    set_at(data, ("nets", 2, "guide", 0, "x1"), 3.0)
    with pytest.raises(LayoutError) as excinfo:
        layout_from_dict(json.loads(json.dumps(data)))
    assert str(excinfo.value) == (
        "net id must be an integer, got 'zero'; net 1 name must be a string, got 5; "
        "net 2 guide box (0, 2, 0, 3.0, 3) is not five integers"
    )


def test_nan_net_id_sharing_a_pin_is_rejected():
    # json reads the NaN literal, and NaN equals no id, not even itself:
    # the shared-pin test must neither flag a NaN net against itself nor
    # crash naming its claim.
    data = three_net_dict()
    data["nets"][0]["id"] = float("nan")
    data["nets"][1]["pins"][0] = [[0, 0, 0]]
    text = json.dumps(data)
    assert '"id": NaN' in text
    with pytest.raises(LayoutError) as excinfo:
        layout_from_dict(json.loads(text))
    assert str(excinfo.value) == (
        "net id must be an integer, got nan; pin vertex (0, 0, 0) shared by nets nan and 1"
    )


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


def _edit_base_text():
    """A 6x5x2 draw's JSON text, net 0 given one guide box."""
    data = layout_to_dict(generate_instance(
        seed=0, width=6, height=5, layers=2, num_nets=2, pins_per_net=2, congestion=0.5,
    ))
    data["nets"][0]["guide"] = [{"layer": 0, "x0": 0, "y0": 0, "x1": 5, "y1": 4}]
    return json.dumps(data)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**20), 10**20) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _paths(data, path=()):
    """The path of keys to every value in nested JSON data, the root's () first."""
    yield path
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_edited_layout_json_is_rejected_or_valid(data):
    # One to three edits anywhere in a valid layout's JSON, each replacing
    # a value with any JSON value, deleting it, or duplicating it (next to
    # itself in an array, onto a sibling key in an object). The parser
    # raises LayoutError or returns a layout that validate accepts.
    doc = json.loads(_edit_base_text())
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = data.draw(JSON_VALUES)
            continue
        *parents, key = path
        parent = doc
        for step in parents:
            parent = parent[step]
        edit = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if edit == "replace":
            parent[key] = data.draw(JSON_VALUES)
        elif edit == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[data.draw(st.sampled_from(sorted(parent)))] = copy.deepcopy(parent[key])
    doc = json.loads(json.dumps(doc))
    try:
        layout = layout_from_dict(doc)
    except LayoutError:
        return
    assert validate(layout) == []


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


@pytest.mark.parametrize("bad", [math.nextafter(COST_RULE_MAX, math.inf), 1e308])
@pytest.mark.parametrize("name", COST_RULES)
def test_cost_rule_above_cap_rejected(name, bad):
    data = minimal_dict()
    data["rules"][name] = bad
    with pytest.raises(LayoutError, match=f"rule {name} must be at most 4096"):
        layout_from_dict(data)


@pytest.mark.parametrize("name", RULE_NAMES)
def test_integer_rule_past_float_range(name):
    # 10**400 overflowed float() in the parser and math.isfinite in
    # validate. It is an integer, so d_color (uncapped: Grid clamps it)
    # takes it, and every other rule is over its cap.
    data = minimal_dict()
    data["rules"][name] = 10**400
    if name == "d_color":
        assert validate(layout_from_dict(data)) == []
    else:
        with pytest.raises(LayoutError, match=f"^rule {name} must be at most .*, got 10{{400}}$"):
            layout_from_dict(data)


def test_integer_past_the_digit_limit_is_a_parse_error(tmp_path):
    # json.loads raises a plain ValueError for an integer longer than
    # sys.get_int_max_str_digits() allows (4300 by default).
    path = tmp_path / "long.json"
    path.write_text(json.dumps(minimal_dict()).replace('"width": 4', '"width": ' + "9" * 5000))
    with pytest.raises(LayoutError, match="cannot parse"):
        load_layout(path)


def test_max_iterations_capped():
    # The cap itself loads and validates; one more is rejected, and so is
    # 10**12, which would hold a draw whose conflict never clears for years.
    data = minimal_dict()
    data["rules"]["max_iterations"] = MAX_ITERATIONS
    layout = layout_from_dict(data)
    assert validate(layout) == []
    for bad in (MAX_ITERATIONS + 1, 10**12):
        data["rules"]["max_iterations"] = bad
        with pytest.raises(LayoutError, match=f"rule max_iterations must be at most {MAX_ITERATIONS}, got {bad}"):
            layout_from_dict(data)
        assert validate(replace(layout, rules=replace(layout.rules, max_iterations=bad))) == [
            f"rule max_iterations must be at most {MAX_ITERATIONS}, got {bad}"
        ]


def _cap_draw(rules):
    # The draw on which alpha = 1e308 once overflowed every path cost to
    # inf and failed with "net 1: pins [1] unreachable".
    return generate_instance(
        seed=1, width=6, height=6, layers=2, num_nets=2, pins_per_net=2,
        congestion=0.0, rules=rules,
    )


def test_huge_alpha_rejected_before_routing():
    with pytest.raises(LayoutError, match="rule alpha must be at most 4096"):
        route_all(_cap_draw(DesignRules(alpha=1e308)))


@settings(max_examples=40, deadline=None)
@given(st.fixed_dictionaries({name: st.integers(-12, 12) for name in COST_RULES}))
@example({name: 12 for name in COST_RULES})
def test_cost_rules_up_to_the_cap_route(exponents):
    # Each cost rule log-uniform between 2**-12 and the cap: the open
    # draw routes every net at a finite cost.
    rules = DesignRules(**{name: 2.0**e for name, e in exponents.items()})
    layout = _cap_draw(rules)
    result = route_all(layout)
    assert sorted(result.routes) == sorted(net.id for net in layout.nets)
    assert all(math.isfinite(tree.total_cost) for tree in result.routes.values())


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


@pytest.mark.parametrize(
    "entry, message",
    [
        ([True, 0, 0], "non-integer vertex [True, 0, 0]"),
        ([0.0, 0, 0], "non-integer vertex [0.0, 0, 0]"),
        ([0, 0], "bad vertex [0, 0]"),
        ([0, 0, 0, 0], "bad vertex [0, 0, 0, 0]"),
        ("x", "bad vertex 'x'"),
        (None, "bad vertex None"),
        ([[0], 0, 0], "non-integer vertex [[0], 0, 0]"),
    ],
)
@pytest.mark.parametrize("where", ["obstacles", *PIN_PATHS])
def test_malformed_vertex_message(where, entry, message):
    # A well-formed entry precedes the bad one, so the whole list is walked.
    data = three_net_dict()
    set_at(data, PIN_PATHS.get(where, ("obstacles",)), [[1, 1, 1], entry])
    with pytest.raises(LayoutError) as info:
        layout_from_dict(data)
    assert str(info.value) == f"{message} in {where}"


def test_tuple_vertices_accepted():
    data = three_net_dict()
    data["obstacles"] = [(1, 1, 1)]
    data["nets"][0]["pins"][0] = [(0, 0, 0), [1, 0, 0]]
    layout = layout_from_dict(data)
    assert layout.obstacles == {(1, 1, 1)}
    assert layout.nets[0].pins[0].covered_vertices == [(0, 0, 0), (1, 0, 0)]
    assert [pin.covered_vertices for pin in layout.nets[2].pins] == [
        [(3, 0, 1)], [(3, 1, 1)], [(3, 2, 1)], [(2, 2, 0)], [(2, 1, 0)]
    ]


def test_out_of_bounds_obstacles_listed_in_sorted_order():
    layout = Layout(
        width=4, height=3, layers=["H", "V"], rules=DesignRules(),
        obstacles={
            (5, 0, 0), (-1, 2, 1), (0, 0, 0), (0, 3, 0), (3, 2, 2),
            (4, 0, 0), (1, 1, 1), (0, -1, 0), (2, 2, 1),
        },
    )
    assert validate(layout) == [
        "obstacle (-1, 2, 1) out of bounds",
        "obstacle (0, -1, 0) out of bounds",
        "obstacle (0, 3, 0) out of bounds",
        "obstacle (3, 2, 2) out of bounds",
        "obstacle (4, 0, 0) out of bounds",
        "obstacle (5, 0, 0) out of bounds",
    ]


def guided_layout():
    """Three layers, two obstacles, a guided net with a two-vertex pin, an unguided net."""
    return Layout(
        width=7, height=5, layers=["H", "V", "H"],
        rules=DesignRules(off_guide_penalty=2.5),
        obstacles={(4, 0, 2), (3, 2, 1)},
        nets=[
            Net(
                id=0, name="clk", pins=[Pin([(0, 0, 0), (0, 1, 0)]), Pin([(6, 4, 2)])],
                guide=[(0, 0, 0, 6, 1), (2, 5, 0, 6, 4)],
            ),
            Net(id=1, name="d1", pins=[Pin([(2, 4, 0)]), Pin([(5, 2, 1)])]),
        ],
    )


def test_saved_guided_layout_bytes_pinned(tmp_path):
    # Saved layouts are pinned by digest (CI checks a generated one), so
    # their bytes may not move: this digest covers the layers, the guide
    # boxes, an absent guide and the optional rule.
    path = tmp_path / "guided.json"
    save_layout(guided_layout(), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "b8dffad4d78c8d7e960fdb37220dcc9ce04b451761a7948d947e3d5839b9cb1b"
    canonical = json.loads(path.read_text())
    assert layout_to_dict(layout_from_dict(canonical)) == canonical


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda lay: lay.obstacles.add((1.5, 0, 0)),
            "obstacle (1.5, 0, 0) is not a tuple of three integers",
        ),
        (
            lambda lay: lay.obstacles.add((True, 0, 0)),
            "obstacle (True, 0, 0) is not a tuple of three integers",
        ),
        (
            lambda lay: lay.nets[1].pins[0].covered_vertices.append((0.0, 3, 0)),
            "net 1 pin 0 vertex (0.0, 3, 0) is not a tuple of three integers",
        ),
        (
            lambda lay: lay.nets[1].pins[0].covered_vertices.append((0, 0)),
            "net 1 pin 0 vertex (0, 0) is not a tuple of three integers",
        ),
        (
            lambda lay: lay.nets[1].pins[1].covered_vertices.append([1, 1, 0]),
            "net 1 pin 1 vertex [1, 1, 0] is not a tuple of three integers",
        ),
        (
            lambda lay: lay.nets[0].guide.append((0, 0, 0, 3.0, 3)),
            "net 0 guide box (0, 0, 0, 3.0, 3) is not five integers",
        ),
        (
            lambda lay: lay.nets[0].guide.append((0, 0, 0, 3)),
            "net 0 guide box (0, 0, 0, 3) is not five integers",
        ),
    ],
)
@pytest.mark.parametrize("arm", [route_all, run_baseline])
def test_routing_entry_points_reject_non_integer_coordinates(arm, edit, message):
    # A layout built in code skips the parser's type tests, so validate
    # must name each of these; unchecked, they crash both arms.
    layout = guided_layout()
    assert validate(layout) == []
    edit(layout)
    assert validate(layout) == [message]
    with pytest.raises(LayoutError) as info:
        arm(layout)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "edit, messages",
    [
        (lambda lay: setattr(lay.nets[0], "id", None), ["net id must be an integer, got None"]),
        (lambda lay: setattr(lay.nets[0], "id", "x"), ["net id must be an integer, got 'x'"]),
        (lambda lay: setattr(lay.nets[0], "id", [1]), ["net id must be an integer, got [1]"]),
        (lambda lay: setattr(lay.nets[1], "id", True), ["net id must be an integer, got True"]),
        (lambda lay: setattr(lay.nets[0], "name", 5), ["net 0 name must be a string, got 5"]),
        (
            # Two bad ids are each named once, and not as duplicates.
            lambda lay: [setattr(net, "id", None) for net in lay.nets],
            ["net id must be an integer, got None"] * 2,
        ),
    ],
)
@pytest.mark.parametrize("arm", [route_all, run_baseline])
def test_routing_entry_points_reject_bad_net_id_or_name(arm, edit, messages):
    # Unchecked, a bad id crashed both arms in their sort by net_order_key
    # (or validate itself, unhashable), and a bad name saved a file that
    # load_layout rejects.
    layout = guided_layout()
    edit(layout)
    assert validate(layout) == messages
    with pytest.raises(LayoutError) as info:
        arm(layout)
    assert str(info.value) == "; ".join(messages)


def reference_vertex(raw, where):
    """The parser's former per-vertex check: the reference its one-pass walk must match."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise LayoutError(f"bad vertex {raw!r} in {where}")
    x, y, l = raw
    if type(x) is not int or type(y) is not int or type(l) is not int:
        raise LayoutError(f"non-integer vertex {raw!r} in {where}")
    return (x, y, l)


# JSON-like vertex entries. Integer coordinates stay in 0..1: on the 4x4x2
# grid of minimal_dict and off the test's pins at x >= 2, so a list the
# parser accepts always validates too.
coordinates = st.one_of(
    st.integers(0, 1), st.booleans(), st.floats(), st.none(), st.text(max_size=2),
    st.lists(st.integers(0, 1), max_size=3),
)
vertex_entries = st.one_of(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)).map(list),
    # Three entries that pass the length test but may fail the type test.
    st.lists(st.one_of(st.integers(0, 1), st.booleans(), st.just(1.0)), min_size=3, max_size=3),
    coordinates,
    st.lists(coordinates, max_size=4),
    st.lists(coordinates, max_size=4).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(vertex_entries, min_size=1, max_size=5),
    where=st.sampled_from(["obstacles", *PIN_PATHS]),
    as_tuple=st.booleans(),
)
def test_vertex_arrays_parse_like_the_per_vertex_check(entries, where, as_tuple):
    data = three_net_dict()
    data["nets"][0]["pins"] = [[[3, 3, 0]], [[3, 2, 0]]]
    set_at(data, PIN_PATHS.get(where, ("obstacles",)), tuple(entries) if as_tuple else entries)
    try:
        expected = [reference_vertex(v, where) for v in entries]
    except LayoutError as exc:
        with pytest.raises(LayoutError) as info:
            layout_from_dict(data)
        assert str(info.value) == str(exc)
        return
    layout = layout_from_dict(data)
    if where == "obstacles":
        parsed = sorted(layout.obstacles)
        expected = sorted(set(expected))
    else:
        _, net, _, pin = PIN_PATHS[where]
        parsed = layout.nets[net].pins[pin].covered_vertices
    assert parsed == expected
    assert all(type(v) is tuple for v in parsed)
