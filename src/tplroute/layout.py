"""Routing problem ingestion: grid description, rules, nets, obstacles.

The on-disk format is a single JSON object:

    {"grid": {"width": W, "height": H, "layers": [{"dir": "H"|"V"}, ...]},
     "rules": {<one key per DesignRules field>},
     "obstacles": [[x, y, l], ...],
     "nets": [{"id": ..., "name": ..., "pins": [[[x, y, l], ...], ...],
               "guide": [{"layer": l, "x0": ..., "y0": ..., "x1": ..., "y1": ...}, ...]}]}

In memory, Layout.layers is the list of those directions, indexed by
layer; a vertex is an (x, y, l) tuple of ints; a Pin is only its
covered_vertices (the Net holding it gives the id); a guide box is a
tuple of ints in GUIDE_KEYS order.

Coordinates are abstract grid tracks. "guide" is optional per net. Every
rules key is required except "off_guide_penalty", the soft penalty for
leaving the guide (default 4.0). Rules typed int in DesignRules must be
JSON integers; the rest are cost rules and may be any JSON number from 0
to COST_RULE_MAX (4096), stored as float.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

Vertex = tuple[int, int, int]

# The most vertices (width * height * layers) a grid may have. A Grid and
# one net's SolutionQueue take about 144 bytes per vertex (tracemalloc,
# 256x256x2: the grid's history and keep-out template 16, its per-mask
# counts 24, the move table 80, the queue's settled, pin_at and live 24),
# so this keeps them near 0.6 GB; larger inputs are rejected before any
# per-vertex array is built.
MAX_GRID_VERTICES = 2**22


class LayoutError(ValueError):
    """Malformed or inconsistent layout input."""


@dataclass
class DesignRules:
    """Spacing threshold, cost weights, and negotiation knobs."""

    d_color: int = 2
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 50.0
    stitch_cost: float = 5.0
    via_cost: float = 4.0
    wrong_way_cost: float = 2.0
    history_increment: float = 10.0
    max_iterations: int = 10
    off_guide_penalty: float = 4.0


@dataclass
class Pin:
    covered_vertices: list[Vertex]


# A guide box's fields: the order of its tuple and the keys of its JSON object.
GUIDE_KEYS = ("layer", "x0", "y0", "x1", "y1")


@dataclass
class Net:
    id: int
    name: str
    pins: list[Pin]
    # Guide boxes as GUIDE_KEYS tuples, inclusive bounds. None and an
    # empty list both mean no guide.
    guide: list[tuple[int, int, int, int, int]] | None = None


@dataclass
class Layout:
    width: int
    height: int
    layers: list[str]  # each layer's preferred direction, "H" or "V"
    rules: DesignRules
    obstacles: set[Vertex] = field(default_factory=set)
    nets: list[Net] = field(default_factory=list)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def in_bounds(self, v: Vertex) -> bool:
        x, y, l = v
        return 0 <= x < self.width and 0 <= y < self.height and 0 <= l < self.num_layers


# Rule name -> its type (int or float), taken from the field defaults.
RULE_TYPES: dict[str, type] = {f.name: type(f.default) for f in fields(DesignRules)}

# The largest value a cost rule (every float rule) may take. A move's
# rule terms, alpha * (1 + wrong_way_cost + via_cost + off_guide_penalty)
# + beta * stitch_cost, then stay below 2**27, so over a path through
# every vertex of a MAX_GRID_VERTICES grid they sum to below 2**49: far
# from overflow, and 16 times below 2**53, past which adding a unit step
# would round. That margin is for the terms that grow with the run
# rather than with the rules: history, and gamma per conflicting commit.
# The int rules (d_color, max_iterations) price nothing themselves.
COST_RULE_MAX = 2.0**12
# The most negotiation iterations a run may ask for, 100 times the
# default. An iteration on a conflict that never clears reroutes its
# nets and costs about the same each time: 15.7 ms on the 24x24x2 draw
# generate_instance(seed=34, num_nets=8, pins_per_net=4, congestion=0.5,
# d_color=3) (200 iterations in 3.1 s, 2-core Xeon), so the cap holds
# that draw to about 16 s where 10**12 iterations held it for years.
MAX_ITERATIONS = 1000
_OPTIONAL_RULES = {"off_guide_penalty"}
_RULE_MINIMUMS = {"d_color": 1, "max_iterations": 1}
_RULE_MAXIMUMS = {"max_iterations": MAX_ITERATIONS}


# Each check below names where its value sits with a str.format template
# and a tuple of the template's arguments, for example "net {} pins" and
# (net_id,). The location is built only when the check raises, so a valid
# layout builds none. (A tuple, not *args: star calls cost twice as much.)


def _object(raw: Any, where: str, args: tuple = ()) -> dict:
    """raw itself when it is a JSON object."""
    if not isinstance(raw, dict):
        raise LayoutError(f"{where.format(*args)} must be an object, got {raw!r}")
    return raw


def _array(raw: Any, where: str, args: tuple = ()) -> list:
    """raw itself when it is a JSON array."""
    if not isinstance(raw, (list, tuple)):
        raise LayoutError(f"{where.format(*args)} must be a list, got {raw!r}")
    return raw


def _require(obj: Any, key: str, where: str, args: tuple = ()) -> Any:
    if key not in _object(obj, where, args):
        raise LayoutError(f"missing field '{key}' in {where.format(*args)}")
    return obj[key]


def _vertex_arrays(raw_arrays: list, where: str, args: tuple = ()) -> list[list[Vertex]]:
    """The (x, y, l) tuples of each JSON array of vertices, in one pass.

    Array i is located by where.format(*args, i): a net's pins pass
    "net {} pin {}" and (net_id,), and the obstacles pass their one array
    with the template "obstacles", which str.format leaves as it is.
    """
    arrays = []
    for i, raw in enumerate(raw_arrays):
        if not isinstance(raw, (list, tuple)):
            raise LayoutError(f"{where.format(*args, i)} must be a list, got {raw!r}")
        vertices = []
        for v in raw:
            if not isinstance(v, (list, tuple)) or len(v) != 3:
                raise LayoutError(f"bad vertex {v!r} in {where.format(*args, i)}")
            x, y, l = v
            # Exact type tests: they reject booleans and keep parsing cheap.
            if type(x) is not int or type(y) is not int or type(l) is not int:
                raise LayoutError(f"non-integer vertex {v!r} in {where.format(*args, i)}")
            vertices.append((x, y, l))
        arrays.append(vertices)
    return arrays


def _integer(raw: Any, what: str, args: tuple = ()) -> int:
    """raw itself when it is a JSON integer (booleans are not)."""
    if not _is_int(raw):
        raise LayoutError(f"{what.format(*args)} must be an integer, got {raw!r}")
    return raw


def layout_from_dict(data: dict) -> Layout:
    """Build and validate a Layout from parsed JSON."""
    grid = _require(data, "grid", "layout")
    width = _require(grid, "width", "grid")
    height = _require(grid, "height", "grid")
    raw_layers = _array(_require(grid, "layers", "grid"), "grid layers")
    if not raw_layers:
        raise LayoutError("grid needs at least one layer")
    layers = [_require(entry, "dir", "layer {}", (i,)) for i, entry in enumerate(raw_layers)]

    raw_rules = _object(_require(data, "rules", "layout"), "rules")
    rules = DesignRules(
        **{
            name: _rule_value(_require(raw_rules, name, "rules"), kind)
            for name, kind in RULE_TYPES.items()
            if name in raw_rules or name not in _OPTIONAL_RULES
        }
    )

    obstacles = set(_vertex_arrays([data.get("obstacles", [])], "obstacles")[0])

    nets = []
    for raw_net in _array(_require(data, "nets", "layout"), "nets"):
        net_id = _integer(_require(raw_net, "id", "net"), "net id")
        at = (net_id,)
        name = _require(raw_net, "name", "net {}", at)
        if not isinstance(name, str):
            raise LayoutError(f"net {net_id} name must be a string, got {name!r}")
        raw_pins = _array(_require(raw_net, "pins", "net {}", at), "net {} pins", at)
        pins = list(map(Pin, _vertex_arrays(raw_pins, "net {} pin {}", at)))
        guide = None
        raw_guide = raw_net.get("guide")
        if raw_guide is not None and _array(raw_guide, "net {} guide", at):
            guide = [
                tuple(
                    _integer(_require(box, key, "net {} guide", at), "net {} guide {}", (net_id, key))
                    for key in GUIDE_KEYS
                )
                for box in raw_guide
            ]
        nets.append(Net(net_id, name, pins, guide))

    layout = Layout(
        width=width,
        height=height,
        layers=layers,
        rules=rules,
        obstacles=obstacles,
        nets=nets,
    )
    require_valid(layout)
    return layout


def _rule_value(value: Any, kind: type) -> Any:
    """JSON integers become floats in float rules; anything else is left for validate."""
    if kind is float and type(value) is int:
        return float(value)
    return value


def load_layout(path: str | Path) -> Layout:
    """Load a layout file, raising LayoutError on any parse or validation problem."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise LayoutError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested deeper than the parser's stack.
        raise LayoutError(f"cannot parse {path}: {exc}") from exc
    return layout_from_dict(data)


def validate(layout: Layout) -> list[str]:
    """All invariant violations, one message per offense. Empty means valid."""
    problems: list[str] = []
    if not (_is_int(layout.width) and _is_int(layout.height)):
        # Every bounds check below compares against the dimensions.
        problems.append(
            f"grid dimensions must be integers, got {layout.width!r}x{layout.height!r}"
        )
        return problems + _rule_problems(layout.rules)
    if layout.width < 1 or layout.height < 1:
        problems.append(f"grid dimensions must be positive, got {layout.width}x{layout.height}")
    elif layout.width * layout.height * layout.num_layers > MAX_GRID_VERTICES:
        problems.append(
            f"grid {layout.width}x{layout.height}x{layout.num_layers} has more than"
            f" {MAX_GRID_VERTICES} vertices"
        )
    for i, direction in enumerate(layout.layers):
        if direction not in ("H", "V"):
            problems.append(f"layer {i} direction must be 'H' or 'V', got {direction!r}")
    for i in range(1, layout.num_layers):
        if layout.layers[i - 1] == layout.layers[i]:
            problems.append(f"layers {i - 1} and {i} do not alternate preferred direction")
    problems.extend(_rule_problems(layout.rules))

    # A vertex is a tuple of three ints, tested inline with exact types as
    # the parser does, before the inline bounds test compares it.
    width, height, num_layers = layout.width, layout.height, layout.num_layers
    malformed, out_of_bounds = [], []
    for o in layout.obstacles:
        if type(o) is not tuple or len(o) != 3 or not (type(o[0]) is type(o[1]) is type(o[2]) is int):
            malformed.append(o)
        elif not (0 <= o[0] < width and 0 <= o[1] < height and 0 <= o[2] < num_layers):
            out_of_bounds.append(o)
    for o in sorted(malformed, key=repr):
        problems.append(f"obstacle {o!r} is not a tuple of three integers")
    for o in sorted(out_of_bounds):
        problems.append(f"obstacle {o} out of bounds")

    seen_ids: set[int] = set()
    pin_claims: dict[Vertex, int] = {}
    for net in layout.nets:
        # An id that is not an integer may be unhashable or unordered, so
        # it gets no duplicate test (and would break net_order_key).
        if not _is_int(net.id):
            problems.append(f"net id must be an integer, got {net.id!r}")
        elif net.id in seen_ids:
            problems.append(f"duplicate net id {net.id}")
        else:
            seen_ids.add(net.id)
        if not isinstance(net.name, str):
            problems.append(f"net {net.id} name must be a string, got {net.name!r}")
        if not net.pins:
            problems.append(f"net {net.id} has no pins")
        for p, pin in enumerate(net.pins):
            if not pin.covered_vertices:
                problems.append(f"net {net.id} pin {p} covers no vertices")
            for v in pin.covered_vertices:
                if type(v) is not tuple or len(v) != 3 or not (type(v[0]) is type(v[1]) is type(v[2]) is int):
                    problems.append(f"net {net.id} pin {p} vertex {v!r} is not a tuple of three integers")
                elif not (0 <= v[0] < width and 0 <= v[1] < height and 0 <= v[2] < num_layers):
                    problems.append(f"net {net.id} pin {p} vertex {v} out of bounds")
                elif v in layout.obstacles:
                    problems.append(f"net {net.id} pin {p} vertex {v} sits on an obstacle")
                elif pin_claims.get(v, net.id) != net.id:
                    problems.append(
                        f"pin vertex {v} shared by nets {pin_claims[v]} and {net.id}"
                    )
                else:
                    pin_claims[v] = net.id
        if net.guide:
            for box in net.guide:
                if type(box) not in (tuple, list) or len(box) != 5 or any(type(c) is not int for c in box):
                    problems.append(f"net {net.id} guide box {box!r} is not five integers")
                    continue
                l, x0, y0, x1, y1 = box
                if not (0 <= l < layout.num_layers) or x0 > x1 or y0 > y1:
                    problems.append(f"net {net.id} guide box {box} is malformed")
                elif not (layout.in_bounds((x0, y0, l)) and layout.in_bounds((x1, y1, l))):
                    problems.append(f"net {net.id} guide box {box} out of bounds")
    return problems


def require_valid(layout: Layout) -> None:
    """Raise LayoutError naming every violation validate finds."""
    problems = validate(layout)
    if problems:
        raise LayoutError("; ".join(problems))


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _rule_problems(rules: DesignRules) -> list[str]:
    """Type, finiteness and range checks, driven by each field's type."""
    problems = []
    for name, kind in RULE_TYPES.items():
        value = getattr(rules, name)
        most = _RULE_MAXIMUMS.get(name, COST_RULE_MAX if kind is float else math.inf)
        if kind is int and not _is_int(value):
            problems.append(f"rule {name} must be an integer, got {value!r}")
        elif not (_is_int(value) or isinstance(value, float)):
            problems.append(f"rule {name} must be a number, got {value!r}")
        elif not math.isfinite(value):
            problems.append(f"rule {name} must be finite, got {value!r}")
        elif name in _RULE_MINIMUMS and value < _RULE_MINIMUMS[name]:
            problems.append(f"{name} must be >= {_RULE_MINIMUMS[name]}, got {value}")
        elif value < 0:
            problems.append(f"rule {name} must be non-negative, got {value}")
        elif value > most:
            problems.append(f"rule {name} must be at most {most:g}, got {value}")
    return problems


def layout_to_dict(layout: Layout) -> dict:
    """Serialize back to the JSON schema (stable ordering for byte determinism)."""
    nets = []
    for net in layout.nets:
        entry = {
            "id": net.id,
            "name": net.name,
            "pins": [list(map(list, pin.covered_vertices)) for pin in net.pins],
        }
        if net.guide:
            entry["guide"] = [dict(zip(GUIDE_KEYS, box)) for box in net.guide]
        nets.append(entry)
    return {
        "grid": {
            "width": layout.width,
            "height": layout.height,
            "layers": [{"dir": direction} for direction in layout.layers],
        },
        "rules": {name: getattr(layout.rules, name) for name in RULE_TYPES},
        "obstacles": list(map(list, sorted(layout.obstacles))),
        "nets": nets,
    }


def save_layout(layout: Layout, path: str | Path) -> None:
    Path(path).write_text(json.dumps(layout_to_dict(layout), indent=2, sort_keys=True) + "\n")
