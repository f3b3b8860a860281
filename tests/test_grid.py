import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instances import commit_or_refusal, empty_grid, random_colored_grid
from tplroute import oracle
from tplroute.color_state import COLOR_ORDER, Color
from tplroute.grid import VIA_DIRECTIONS, CollisionError, Direction
from tplroute.layout import DesignRules


def test_neighbors_center_two_layers():
    grid = empty_grid(4, 4, ("H", "V"))
    rows, _ = grid.move_table()
    dirs = [d for d, _, _, _ in rows[grid.vid((1, 1, 0))]]
    assert dirs == [Direction.F, Direction.B, Direction.R, Direction.L, Direction.U]  # four planar plus up


def test_neighbors_corner_single_layer():
    grid = empty_grid(4, 4, ("H",))
    rows, _ = grid.move_table()
    assert len(rows[grid.vid((0, 0, 0))]) == 2


def test_neighbors_ringed_by_obstacles():
    grid = empty_grid(3, 3, ("H",), obstacles={(0, 1, 0), (2, 1, 0), (1, 0, 0), (1, 2, 0)})
    assert oracle.neighbors(grid, (1, 1, 0)) == []


def test_neighbors_never_out_of_bounds_or_obstacle():
    grid = empty_grid(5, 4, ("H", "V"), obstacles={(2, 2, 0), (0, 1, 1)})
    for l in range(2):
        for y in range(4):
            for x in range(5):
                for t in oracle.neighbors(grid, (x, y, l)):
                    assert grid.in_bounds(t)
                    assert t not in grid.obstacles


def test_direction_semantics_respect_preferred_axis():
    grid = empty_grid(4, 4, ("H", "V"))
    # H layer: F/B along x, R/L along y
    assert oracle.step(grid, (1, 1, 0), Direction.F) == (2, 1, 0)
    assert oracle.step(grid, (1, 1, 0), Direction.R) == (1, 2, 0)
    # V layer: F/B along y, R/L along x
    assert oracle.step(grid, (1, 1, 1), Direction.F) == (1, 2, 1)
    assert oracle.step(grid, (1, 1, 1), Direction.R) == (2, 1, 1)
    assert oracle.step(grid, (1, 1, 0), Direction.U) == (1, 1, 1)
    assert oracle.step(grid, (1, 1, 1), Direction.D) == (1, 1, 0)


def _check_move_table(grid):
    """Each vid's moves, in F,B,R,L,U,D order, reach oracle.neighbors (the
    grid is obstacle-free and has no history) at oracle.move_cost."""
    rows, vertices = grid.move_table()
    assert len(rows) == len(vertices) == grid.width * grid.height * grid.num_layers
    for vid, (row, v) in enumerate(zip(rows, vertices)):
        assert grid.vid(v) == vid
        targets = [vertices[vid + dvid] for _, dvid, _, _ in row]
        assert sorted(targets) == sorted(oracle.neighbors(grid, v))
        assert [d for d, _, _, _ in row] == sorted(d for d, _, _, _ in row)
        for (d, _, planar, base_trad), t in zip(row, targets):
            assert oracle.step(grid, v, d) == t
            assert planar == (d not in VIA_DIRECTIONS)
            assert base_trad == oracle.move_cost(grid, grid.rules, v, t, None)


def test_move_table_matches_oracle_moves():
    rules = DesignRules(wrong_way_cost=2.5, via_cost=4.0)
    stacks = [("H",), ("V",), ("H", "V"), ("V", "V"), ("H", "V", "H"), ("V", "H", "H")]
    for width in range(1, 6):
        for height in range(1, 6):
            for dirs in stacks:
                _check_move_table(empty_grid(width, height, dirs, rules))


def test_move_table_rows_are_shared():
    rows, _ = empty_grid(30, 20, ("H", "V")).move_table()
    # per layer: interior, four edges and four corners
    assert len({id(row) for row in rows}) <= 18


def test_move_table_keyed_by_move_costs():
    # Two grids of one shape but other wrong-way and via costs get their own tables.
    cheap = empty_grid(4, 3, ("H", "V"), DesignRules(wrong_way_cost=1.0, via_cost=2.0))
    dear = empty_grid(4, 3, ("H", "V"), DesignRules(wrong_way_cost=3.0, via_cost=5.0))
    _check_move_table(cheap)
    _check_move_table(dear)
    assert cheap.move_table() != dear.move_table()
    assert dear.move_table() is empty_grid(4, 3, ("H", "V"), dear.rules).move_table()


def _move(grid, v, direction):
    """The target vid and base_trad of v's move-table entry in a direction."""
    rows, _ = grid.move_table()
    vid = grid.vid(v)
    ((dvid, base_trad),) = [(dvid, base_trad) for d, dvid, _, base_trad in rows[vid] if d == direction]
    return vid + dvid, base_trad


class TestTradCost:
    """The search's trad term: base_trad + history + off-guide penalty at the target."""

    def test_preferred_direction_unit_cost(self):
        grid = empty_grid(4, 4, ("H",))
        i, base_trad = _move(grid, (0, 0, 0), Direction.F)
        assert base_trad + grid.history[i] == 1.0

    def test_via_cost(self):
        # 1 + via_cost, recomposed term by term
        rules = DesignRules(via_cost=4.0)
        grid = empty_grid(4, 4, ("H", "V"), rules)
        expected = 1.0 + rules.via_cost
        i, base_trad = _move(grid, (1, 1, 0), Direction.U)
        assert base_trad + grid.history[i] == expected == 5.0

    def test_wrong_way_plus_history(self):
        rules = DesignRules(wrong_way_cost=2.0)
        grid = empty_grid(4, 4, ("H",), rules)
        grid.add_history((1, 2, 0), 3.0)
        expected = 1.0 + rules.wrong_way_cost + 3.0
        i, base_trad = _move(grid, (1, 1, 0), Direction.R)
        assert i == grid.vid((1, 2, 0))
        assert base_trad + grid.history[i] == expected == 6.0

    def test_off_guide_penalty(self):
        grid = empty_grid(6, 6, ("H",))
        off_guide = grid.off_guide([(0, 0, 0, 2, 2)])
        i_on, on = _move(grid, (1, 1, 0), Direction.F)
        i_off, off = _move(grid, (2, 1, 0), Direction.F)
        assert on + grid.history[i_on] + off_guide[i_on] == 1.0
        assert off + grid.history[i_off] + off_guide[i_off] == 1.0 + grid.rules.off_guide_penalty


class TestColorCost:
    def test_empty_grid_is_free(self):
        grid = empty_grid(5, 5, ("H",))
        for c in Color:
            assert grid.color_cost((2, 2, 0), Direction.F, c, net_id=0) == 0.0

    def test_single_foreign_commit(self):
        rules = DesignRules(d_color=2, gamma=10.0)
        grid = empty_grid(5, 5, ("H",), rules)
        grid.commit_route(9, [((3, 3, 0), Color.RED)])
        # moving from (1,3) to (2,3): target at distance 1 from the red vertex
        assert grid.color_cost((1, 3, 0), Direction.F, Color.RED, net_id=0) == 10.0
        assert grid.color_cost((1, 3, 0), Direction.F, Color.GREEN, net_id=0) == 0.0

    def test_own_net_never_conflicts(self):
        grid = empty_grid(5, 5, ("H",))
        grid.commit_route(0, [((3, 3, 0), Color.RED)])
        assert grid.color_cost((1, 3, 0), Direction.F, Color.RED, net_id=0) == 0.0

    def test_other_layer_never_conflicts(self):
        grid = empty_grid(5, 5, ("H", "V"))
        grid.commit_route(9, [((2, 3, 1), Color.RED)])
        assert grid.color_cost((1, 3, 0), Direction.F, Color.RED, net_id=0) == 0.0

    def test_symmetry_under_swapped_roles(self):
        # committing A and querying from B mirrors committing B and querying from A
        rng = random.Random(5)
        rules = DesignRules(d_color=3, gamma=9.0)
        for _ in range(40):
            p = (rng.randrange(6), rng.randrange(6), 0)
            q = (rng.randrange(6), rng.randrange(6), 0)
            if p == q:
                continue
            color = rng.choice(list(Color))
            ga = empty_grid(6, 6, ("H",), rules)
            ga.commit_route(1, [(p, color)])
            gb = empty_grid(6, 6, ("H",), rules)
            gb.commit_route(2, [(q, color)])
            k = COLOR_ORDER.index(color)
            assert ga.foreign_counts(2)[k][ga.vid(q)] == gb.foreign_counts(1)[k][gb.vid(p)]

    def test_matches_brute_force_scan(self):
        rng = random.Random(3)
        rules = DesignRules(d_color=3, gamma=7.0)
        committed = {}
        for i in range(12):
            v = (rng.randrange(6), rng.randrange(6), 0)
            committed.setdefault(v, (rng.randrange(3) + 10, rng.choice(list(Color))))
        grid = replace(empty_grid(6, 6, ("H",), rules), committed=committed)
        for x in range(5):
            for c in Color:
                got = grid.color_cost((x, 2, 0), Direction.F, c, net_id=0)
                want = oracle.conflict_costs(grid, rules, (x + 1, 2, 0), 0)[COLOR_ORDER.index(c)]
                assert got == want


    @pytest.mark.parametrize("width, height, d_color", [(9, 7, 3), (3, 3, 3), (9, 7, 10**6)])
    def test_counts_match_scan_on_either_spread_path(self, width, height, d_color):
        # At d_color 3 a 9x7 grid has vertices two tracks from every edge,
        # which spread through the stencil's vid offsets; a 3x3 grid, and any
        # grid past the clamp, has none, so every vertex takes the checked walk.
        rng = random.Random(width * height + d_color)
        rules = DesignRules(d_color=d_color, gamma=5.0)
        grid = empty_grid(width, height, ("H", "V"), rules)
        cells = [(x, y, l) for l in range(2) for y in range(height) for x in range(width)]
        _, vertices = grid.move_table()

        def assert_counts_match():
            for net_id in range(4):
                counts = grid.foreign_counts(net_id)
                for vid, v in enumerate(vertices):
                    got = tuple(rules.gamma * c[vid] for c in counts)
                    assert got == oracle.conflict_costs(grid, rules, v, net_id), (v, net_id)

        # The first round is spread when the counts are built, the later
        # ones by commit_route, then recolors and a rip-up take counts out.
        for _ in range(3):
            for net_id in range(4):
                free = [v for v in cells if v not in grid.committed]
                grid.commit_route(net_id, [(v, rng.choice(COLOR_ORDER)) for v in rng.sample(free, len(free) // 8)])
            assert_counts_match()
        for v, (net_id, _) in rng.sample(sorted(grid.committed.items()), 6):
            grid.commit_route(net_id, [(v, rng.choice(COLOR_ORDER))])
        grid.rip_up(2)
        assert_counts_match()


class TestOccupancy:
    def test_commit_and_dump(self):
        grid = empty_grid(3, 1, ("H",))
        grid.commit_route(1, [((0, 0, 0), Color.RED), ((1, 0, 0), Color.GREEN), ((2, 0, 0), Color.BLUE)])
        assert grid.committed == {
            (0, 0, 0): (1, Color.RED), (1, 0, 0): (1, Color.GREEN), (2, 0, 0): (1, Color.BLUE)
        }

    def test_commit_collision(self):
        grid = empty_grid(3, 3, ("H",))
        grid.commit_route(1, [((1, 1, 0), Color.RED)])
        with pytest.raises(CollisionError, match="committed to net 1"):
            grid.commit_route(2, [((1, 1, 0), Color.RED)])

    def test_commit_collision_part_way_commits_nothing(self):
        grid = empty_grid(4, 2, ("H",), DesignRules(d_color=2))
        grid.commit_route(1, [((2, 0, 0), Color.RED)])

        def state():
            # Copies: foreign_counts hands out the grid's own lists for a net with no commits.
            counts = [[list(c) for c in grid.foreign_counts(net)] for net in (1, 2)]
            return dict(grid.committed), set(grid._owned.get(2, ())), counts

        before = state()
        with pytest.raises(CollisionError, match="committed to net 1"):
            grid.commit_route(2, [((0, 0, 0), Color.RED), ((1, 0, 0), Color.RED), ((2, 0, 0), Color.RED)])
        assert state() == before

    def test_commit_idempotent_same_net(self):
        grid = empty_grid(3, 3, ("H",))
        grid.commit_route(1, [((1, 1, 0), Color.RED)])
        grid.commit_route(1, [((1, 1, 0), Color.RED)])
        assert grid.committed[(1, 1, 0)] == (1, Color.RED)

    def test_rip_up_inverse_of_commit(self):
        grid = empty_grid(4, 4, ("H",))
        before = dict(grid.committed)
        path = [((0, 0, 0), Color.RED), ((1, 0, 0), Color.RED)]
        grid.commit_route(1, path)
        grid.rip_up(1)
        assert grid.committed == before
        grid.rip_up(1)  # no-op on unrouted net
        assert grid.committed == before

    def test_rip_up_keeps_history(self):
        grid = empty_grid(4, 4, ("H",))
        grid.commit_route(1, [((0, 0, 0), Color.RED)])
        grid.add_history((0, 0, 0), 5.0)
        grid.rip_up(1)
        assert grid.history[grid.vid((0, 0, 0))] == 5.0

    def test_add_history_rejects_off_grid_vertex(self):
        # (4, 0, 0) would alias (0, 1, 0) by the vid formula.
        grid = empty_grid(4, 3, ("H", "V"))
        for v in ((4, 0, 0), (-1, 0, 0), (0, 3, 1), (0, 0, 2)):
            with pytest.raises(ValueError, match="off the grid"):
                grid.add_history(v, 5.0)
        assert not any(grid.history)

    def test_add_history_rejects_negative_or_non_finite_amount(self):
        grid = empty_grid(4, 3, ("H",))
        for amount in (-5.0, -1e-9, float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="finite and non-negative"):
                grid.add_history((1, 1, 0), amount)
        assert not any(grid.history)
        grid.add_history((1, 1, 0), 0.0)
        grid.add_history((1, 1, 0), 2.5)
        assert grid.history[grid.vid((1, 1, 0))] == 2.5

    def test_pin_keep_out(self):
        grid = replace(empty_grid(4, 4, ("H",)), pin_owners={(1, 1, 0): 7})
        assert grid.keep_outs(0)[grid.vid((1, 1, 0))] == -math.inf
        assert grid.keep_outs(7)[grid.vid((1, 1, 0))] == math.inf

    def test_rip_up_keeps_own_pin_a_foreign_keep_out(self):
        grid = replace(empty_grid(4, 4, ("H",)), pin_owners={(1, 1, 0): 7})
        grid.commit_route(7, [((1, 1, 0), Color.RED), ((2, 1, 0), Color.RED)])
        grid.rip_up(7)
        assert grid.keep_outs(0)[grid.vid((1, 1, 0))] == -math.inf
        assert grid.keep_outs(0)[grid.vid((2, 1, 0))] == math.inf

    def test_commit_refuses_foreign_pin_and_off_grid_vertex(self):
        grid = replace(empty_grid(4, 3, ("H", "V"), obstacles={(3, 2, 1)}), pin_owners={(1, 1, 0): 7})
        before = dict(grid.committed), grid.keep_outs(0)
        with pytest.raises(CollisionError, match="pin of net 7"):
            grid.commit_route(0, [((0, 1, 0), Color.RED), ((1, 1, 0), Color.RED)])
        with pytest.raises(CollisionError, match="obstacle"):
            grid.commit_route(0, [((0, 1, 0), Color.RED), ((3, 2, 1), Color.RED)])
        # (4, 0, 0) would alias (0, 1, 0) by the vid formula.
        for v in ((4, 0, 0), (-1, 0, 0), (0, 3, 1), (0, 0, 2)):
            with pytest.raises(ValueError, match="off the grid"):
                grid.commit_route(0, [((0, 1, 0), Color.RED), (v, Color.RED)])
        assert (dict(grid.committed), grid.keep_outs(0)) == before


    def test_commit_checks_only_keep_outs_and_keeps_their_messages(self):
        # commit_route looks up the obstacle, pin and commit of a vertex only
        # where the keep-out template holds -inf; each refusal writes nothing.
        grid = replace(empty_grid(4, 3, ("H",), obstacles={(3, 2, 0)}), pin_owners={(1, 1, 0): 7, (2, 1, 0): 5})
        grid.commit_route(5, [((2, 1, 0), Color.RED), ((2, 2, 0), Color.RED)])
        grid.foreign_counts(0)  # build the counts, so a refused commit would have spread them
        refusals = [
            ((3, 2, 0), "vertex (3, 2, 0) is an obstacle"),
            ((1, 1, 0), "vertex (1, 1, 0) is a pin of net 7, not 0"),
            ((2, 2, 0), "vertex (2, 2, 0) already committed to net 5, not 0"),
        ]
        before = dict(grid.committed), grid.keep_outs(0), [list(c) for c in grid.foreign_counts(0)]
        for v, message in refusals:
            with pytest.raises(CollisionError) as raised:
                grid.commit_route(0, [((0, 0, 0), Color.RED), (v, Color.RED)])
            assert str(raised.value) == message
            assert (dict(grid.committed), grid.keep_outs(0), [list(c) for c in grid.foreign_counts(0)]) == before
        # A net's own pin, its own commit recolored and a free vertex go through.
        grid.commit_route(5, [((2, 1, 0), Color.GREEN), ((2, 2, 0), Color.BLUE), ((0, 0, 0), Color.RED)])
        assert grid.committed == {(2, 1, 0): (5, Color.GREEN), (2, 2, 0): (5, Color.BLUE), (0, 0, 0): (5, Color.RED)}
        grid.commit_route(7, [((1, 1, 0), Color.RED)])
        assert grid.committed[(1, 1, 0)] == (7, Color.RED)

    def test_commit_message_precedence_on_a_committed_pin(self):
        # Net 7 has committed its own pin (1, 1, 0). A vertex already the
        # committing net's skips the obstacle and pin lookups; any other
        # net is refused in the old order: obstacle, pin, then commit.
        grid = replace(empty_grid(4, 3, ("H",), obstacles={(3, 2, 0)}), pin_owners={(1, 1, 0): 7})
        grid.commit_route(7, [((1, 1, 0), Color.RED), ((2, 1, 0), Color.RED)])
        grid.foreign_counts(3)  # build the counts, so a refused commit would have spread them
        refusals = [
            (3, (1, 1, 0), "vertex (1, 1, 0) is a pin of net 7, not 3"),
            (3, (2, 1, 0), "vertex (2, 1, 0) already committed to net 7, not 3"),
            (7, (3, 2, 0), "vertex (3, 2, 0) is an obstacle"),
        ]
        for net_id, v, message in refusals:
            before = dict(grid.committed), grid.keep_outs(net_id), [list(c) for c in grid.foreign_counts(net_id)]
            with pytest.raises(CollisionError) as raised:
                grid.commit_route(net_id, [((0, 0, 0), Color.RED), (v, Color.BLUE)])
            assert str(raised.value) == message
            assert (dict(grid.committed), grid.keep_outs(net_id), [list(c) for c in grid.foreign_counts(net_id)]) == before
        # Net 7 recolors its pin and its other commit.
        grid.commit_route(7, [((1, 1, 0), Color.BLUE), ((2, 1, 0), Color.GREEN)])
        assert grid.committed == {(1, 1, 0): (7, Color.BLUE), (2, 1, 0): (7, Color.GREEN)}
        assert list(grid.foreign_counts(3)) == list(replace(grid).foreign_counts(3))


@pytest.mark.parametrize(
    "fields, match",
    [
        (dict(obstacles={(4, 0, 0)}), r"vertex \(4, 0, 0\) is off the grid"),
        (dict(pin_owners={(0, 3, 0): 1}), "off the grid"),
        (dict(committed={(0, 0, 2): (1, Color.RED)}), "off the grid"),
        (dict(obstacles={(1, 1, 0)}, pin_owners={(1, 1, 0): 1}), "sit on obstacles"),
        (dict(obstacles={(1, 1, 0)}, committed={(1, 1, 0): (1, Color.RED)}), "is an obstacle"),
        (dict(pin_owners={(1, 1, 0): 2}, committed={(1, 1, 0): (1, Color.RED)}), "pin of net 2"),
        (dict(history=[0.0] * 23), "history has 23 entries for 24 vertices"),
    ],
)
def test_construction_refuses_bad_geometry(fields, match):
    with pytest.raises(ValueError, match=match):
        replace(empty_grid(4, 3, ("H", "V")), **fields)


def test_geometry_cannot_be_rebound():
    grid = replace(empty_grid(3, 1, ("H",)), pin_owners={(2, 0, 0): 1})
    with pytest.raises(AttributeError, match="obstacles is fixed"):
        grid.obstacles |= {(1, 0, 0)}
    for name, value in (("width", 4), ("height", 2), ("layer_dirs", ["V"]), ("pin_owners", {})):
        with pytest.raises(AttributeError, match=f"{name} is fixed"):
            setattr(grid, name, value)
    assert (grid.width, grid.height, grid.layer_dirs) == (3, 1, ("H",))
    _, vertices = grid.move_table()
    assert grid.keep_outs(0) == [math.inf if oracle.usable(grid, v, 0) else -math.inf for v in vertices]
    assert grid.keep_outs(0) == [math.inf, math.inf, -math.inf]
    grid.rules = DesignRules(gamma=0.0)  # the rules stay assignable
    assert replace(grid, obstacles={(1, 0, 0)}).keep_outs(0) == [math.inf, -math.inf, -math.inf]


def test_geometry_cannot_be_changed_in_place():
    # The pin map and the layer directions are read-only too, so the
    # keep-out template and the move table cannot fall out of step.
    grid = replace(empty_grid(3, 1, ("H",)), pin_owners={(2, 0, 0): 1})
    keep_outs, moves = grid.keep_outs(0), grid.move_table()
    with pytest.raises(TypeError):
        grid.pin_owners[(2, 0, 0)] = 2
    with pytest.raises(TypeError):
        grid.pin_owners |= {(0, 0, 0): 2}
    with pytest.raises(TypeError):
        grid.layer_dirs[0] = "V"
    assert dict(grid.pin_owners) == {(2, 0, 0): 1} and grid.layer_dirs == ("H",)
    assert grid.keep_outs(0) == keep_outs == [math.inf, math.inf, -math.inf]
    assert grid.move_table() == moves


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=9999))
def test_rip_commit_round_trip_random(seed):
    rng = random.Random(seed)
    grid = empty_grid(6, 6, ("H", "V"))
    cells = [(rng.randrange(6), rng.randrange(6), rng.randrange(2)) for _ in range(8)]
    path = [(v, rng.choice(list(Color))) for v in dict.fromkeys(cells)]
    grid.commit_route(3, path)
    grid.rip_up(3)
    assert grid.committed == {}


def test_close_pairs_match_naive_cross_net_scan():
    """Every cross-net same-layer pair below d_color, whatever its colors, once each.

    Checked against a scan of every commit pair, at d_color values up to
    and far past the clamp (width + height - 1).
    """
    mixed = 0
    for seed in range(10):
        grid, rules = random_colored_grid(seed)
        items = sorted(grid.committed.items())
        for d_color in (1, 2, rules.d_color, 4, grid.width + grid.height, 10**6):
            naive = []
            for i, (a, entry_a) in enumerate(items):
                for b, entry_b in items[i + 1 :]:
                    distance = abs(a[0] - b[0]) + abs(a[1] - b[1])
                    if entry_a[0] != entry_b[0] and a[2] == b[2] and distance < d_color:
                        naive.append((a, b, distance, entry_a, entry_b))
            assert sorted(grid.close_pairs(d_color)) == naive, (seed, d_color)
            mixed += sum(entry_a[1] != entry_b[1] for _, _, _, entry_a, entry_b in naive)
    assert mixed  # pairs of different colors are covered too


def _keep_out_grid(rng, check=lambda grid: None):
    """A grid <= 6x5x3 with obstacles, and pins and commits of nets 0-3.

    About one drawn entry in five lies just off the grid, where
    (width, y, 0) would alias (0, y + 1, 0) by the vid formula. A grid
    built with such an entry, or with a pin on an obstacle, must raise
    ValueError, and is then built without the offending entries. Each
    commit must go through or be refused with nothing written
    (commit_or_refusal); check(grid) runs after every one.
    """
    width, height, layers = rng.randint(1, 6), rng.randint(1, 5), rng.randint(1, 3)
    base = empty_grid(width, height, ("H", "V", "H")[:layers])

    def vertex():
        if rng.random() < 0.2:
            off = ((width, rng.randrange(height), 0), (-1, 0, 0), (0, height, 0), (0, 0, layers))
            return rng.choice(off)
        return (rng.randrange(width), rng.randrange(height), rng.randrange(layers))

    obstacles = {vertex() for _ in range(rng.randint(0, 6))}
    pin_owners = {vertex(): rng.randrange(4) for _ in range(rng.randint(0, 8))}
    bad = {v for v in obstacles | pin_owners.keys() if not base.in_bounds(v)} | (obstacles & pin_owners.keys())
    if bad:
        with pytest.raises(ValueError):
            replace(base, obstacles=obstacles, pin_owners=pin_owners)
    pin_owners = {v: net_id for v, net_id in pin_owners.items() if v not in bad}
    grid = replace(base, obstacles=obstacles - bad, pin_owners=pin_owners)
    check(grid)
    for _ in range(rng.randint(0, 8)):
        commit_or_refusal(grid, rng.randrange(4), [(vertex(), rng.choice(list(Color)))])
        check(grid)
    return grid


def _check_keep_outs(grid):
    _, vertices = grid.move_table()
    for net_id in range(-1, 5):  # every owner, and nets owning nothing
        expected = [math.inf if oracle.usable(grid, v, net_id) else -math.inf for v in vertices]
        assert grid.keep_outs(net_id) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=99_999))
def test_keep_outs_match_reference(seed):
    rng = random.Random(seed)
    grid = _keep_out_grid(rng, _check_keep_outs)
    with pytest.raises(AttributeError):  # the geometry is fixed when the grid is built
        grid.obstacles.add((0, 0, 0))
    for _ in range(3):
        grid.rip_up(rng.randrange(4))
        _check_keep_outs(grid)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=99_999))
def test_off_guide_matches_point_check(seed):
    rng = random.Random(seed)
    grid = _keep_out_grid(rng)
    grid.rules = DesignRules(off_guide_penalty=rng.choice((0.5, 4.0)))
    guide = []
    for _ in range(rng.randint(0, 3)):
        x0, y0 = rng.randint(-2, grid.width), rng.randint(-2, grid.height)
        layer = rng.randint(-1, grid.num_layers)
        guide.append((layer, x0, y0, x0 + rng.randint(-1, 3), y0 + rng.randint(-1, 3)))
    _, vertices = grid.move_table()
    want = [
        0.0
        if any(l == gl and x0 <= x <= x1 and y0 <= y <= y1 for gl, x0, y0, x1, y1 in guide)
        else grid.rules.off_guide_penalty
        for x, y, l in vertices
    ]
    # No boxes is no guide, as None is: no vertex pays the penalty.
    assert grid.off_guide(guide) == (want if guide else None)
    assert grid.off_guide(None) is None
    assert grid.off_guide([]) is None
