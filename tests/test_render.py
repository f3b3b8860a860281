from xml.etree import ElementTree

from instances import congested_layout
from tplroute.layout import DesignRules, Layout, Net, Pin
from tplroute.negotiation import detect_conflicts, route_all
from tplroute.render import render_layers


def test_render_produces_valid_svg_per_layer():
    layout = congested_layout(1)
    result = route_all(layout)
    conflicts = detect_conflicts(result.grid, layout.rules)
    svgs = render_layers(layout, result.routes, conflicts)
    assert sorted(svgs) == list(range(layout.num_layers))
    for text in svgs.values():
        root = ElementTree.fromstring(text)
        assert root.tag.endswith("svg")


def test_markers_match_counts():
    layout = congested_layout(1)
    result = route_all(layout)
    conflicts = detect_conflicts(result.grid, layout.rules)
    svgs = render_layers(layout, result.routes, conflicts)
    stitch_total = sum(len(t.stitches) for t in result.routes.values())
    diamond_total = sum(text.count('<path d="M') for text in svgs.values())
    assert diamond_total == stitch_total
    star_total = sum(text.count("<polygon") for text in svgs.values())
    assert star_total == len(conflicts)
    obstacle_markers = sum(text.count('fill="#888"') for text in svgs.values())
    assert obstacle_markers == len(layout.obstacles)


def test_conflicts_drawn_as_stars():
    # gamma = 0 with a single iteration leaves the two parallel nets both RED
    rules = DesignRules(gamma=0.0, max_iterations=1)
    layout = Layout(
        width=6, height=4, layers=["H"],
        rules=rules,
        nets=[
            Net(id=0, name="a", pins=[Pin([(0, 1, 0)]), Pin([(5, 1, 0)])]),
            Net(id=1, name="b", pins=[Pin([(0, 2, 0)]), Pin([(5, 2, 0)])]),
        ],
    )
    result = route_all(layout)
    conflicts = detect_conflicts(result.grid, layout.rules)
    assert conflicts
    svgs = render_layers(layout, result.routes, conflicts)
    stars = svgs[0].count('fill="#f5c518"')
    assert stars == len(conflicts)
