"""The relocation search: tasks, blockers, critical sets, scores, parking
candidates and the beam search itself.

``gen_relocation_points`` builds a window's candidates as arrays.  The
per-cell loop it replaced is kept below as the reference
(``ref_gen_relocation_points``), and the two must return equal Pose2 lists:
on every call planning makes on m_block_12/16 at seeds 0-4 and on the
relocation suite, and on hand-built boundaries (footprints flush with a goal
rect or overlapping one by exactly EPS, footprint edges within 1e-9 of an
avoid cell, avoid cells off the grid, windows clipped by the grid edge,
clearance ties, a budget beyond the candidates).
"""
import math
import random

import pytest

from rearrange2d import grids, planner
from rearrange2d import guided_search as gs
from rearrange2d.bench import make_scene
from rearrange2d.grids import GridSpec, rasterize_gom, reachability
from rearrange2d.motion import SIDES, grasp_pose
from rearrange2d.world import EPS, Pose2, Rect, collides, rect_at, rects_overlap

from conftest import goal_obj, obstacle, robot, scene, wall, wedged_scene


def _gap_scene(blocker=True):
    """Vertical wall with a 1.6 tall gap at (5, 5); g1 must pass through."""
    bodies = [
        robot(2.0, 5.0),
        wall("wn", 5.0, 7.9, 0.4, 4.2),
        wall("ws", 5.0, 2.1, 0.4, 4.2),
        goal_obj("g1", 3.0, 5.0),
    ]
    if blocker:
        bodies.append(obstacle("b1", 5.0, 5.0))
    return scene(bodies, {"g1": Pose2(8.0, 5.0)})


def _two_lane_scene():
    """Wide corridor with two staggered blockers leaving opposite gaps."""
    bodies = [
        robot(2.0, 5.0),
        wall("wn", 5.0, 7.0, 8.0, 2.0),
        wall("ws", 5.0, 3.0, 8.0, 2.0),
        goal_obj("g1", 8.0, 5.0),
        obstacle("A", 4.0, 4.5),
        obstacle("B", 6.0, 5.5),
    ]
    return scene(bodies, {"g1": Pose2(8.5, 5.0)})


class TestTaskBuilders:
    def test_pick_task(self, simple_scene):
        spec = GridSpec.from_scene(simple_scene)
        t = gs.pick_task(simple_scene, "g1", Pose2(8.0, 2.0), 0, spec)
        assert t.kind == "pick"
        assert t.object_id == "g1"
        assert t.waypoints[0] == simple_scene.robot.pose
        assert t.waypoints[-1] == Pose2(8.0, 2.0)
        assert t.cells
        assert t.cells[0] in spec.cells_of_rect(rect_at(simple_scene.robot.pose, 0.4, 0.4))

    def test_place_task(self, simple_scene):
        spec = GridSpec.from_scene(simple_scene)
        wps = (Pose2(3.0, 3.0), Pose2(8.0, 3.0))
        t = gs.place_task(simple_scene, "g1", wps, spec)
        assert t.kind == "place"
        assert t.waypoints == wps
        start_cells = spec.cells_of_rect(rect_at(Pose2(3.0, 3.0), 0.6, 0.6))
        assert start_cells <= set(t.cells)


class TestFindColliding:
    def test_order_and_exclusions(self):
        sc = _two_lane_scene()
        spec = GridSpec.from_scene(sc)
        t = gs.pick_task(sc, "g1", Pose2(7.5, 5.0), 0, spec)
        hits = gs.find_colliding(sc, t, spec)
        assert hits == ["A", "B"]

    def test_off_route_ignored(self, simple_scene):
        spec = GridSpec.from_scene(simple_scene)
        t = gs.place_task(simple_scene, "g1", (Pose2(3, 3), Pose2(3, 8)), spec)
        assert gs.find_colliding(simple_scene, t, spec) == []

    def test_task_object_never_reported(self):
        sc = _gap_scene()
        spec = GridSpec.from_scene(sc)
        t = gs.place_task(sc, "g1", (Pose2(3, 5), Pose2(8, 5)), spec)
        hits = gs.find_colliding(sc, t, spec)
        assert "g1" not in hits
        assert hits == ["b1"]


class TestTaskFeasible:
    def test_place_blocked_then_unblocked(self):
        sc = _gap_scene()
        spec = GridSpec.from_scene(sc)
        t = gs.place_task(sc, "g1", (Pose2(3, 5), Pose2(8, 5)), spec)
        assert not gs.task_feasible(sc, t, frozenset(), spec)
        assert gs.task_feasible(sc, t, frozenset({"b1"}), spec)

    def test_pick_uses_grid_detours(self):
        sc = _two_lane_scene()
        spec = GridSpec.from_scene(sc)
        t = gs.pick_task(sc, "g1", Pose2(7.5, 5.0), 0, spec)
        # the staggered blockers leave a zigzag for the robot
        assert gs.task_feasible(sc, t, frozenset(), spec)

    def test_statics_block_regardless(self):
        sc = _gap_scene(blocker=False)
        sealed = scene(
            list(sc.bodies) + [wall("cap", 5.0, 5.0, 0.4, 1.8)],
            dict(sc.goals),
        )
        spec = GridSpec.from_scene(sealed)
        t = gs.place_task(sealed, "g1", (Pose2(3, 5), Pose2(8, 5)), spec)
        assert not gs.task_feasible(sealed, t, frozenset(), spec)


class TestSelectCritical:
    def test_single_blocker(self):
        sc = _gap_scene()
        spec = GridSpec.from_scene(sc)
        t = gs.place_task(sc, "g1", (Pose2(3, 5), Pose2(8, 5)), spec)
        crit = gs.select_critical(sc, t, gs.find_colliding(sc, t, spec), spec=spec)
        assert crit == ("b1",)

    def test_skip_count_walks_the_subsets(self):
        sc = _two_lane_scene()
        spec = GridSpec.from_scene(sc)
        t = gs.pick_task(sc, "g1", Pose2(7.5, 5.0), 0, spec)
        cols = gs.find_colliding(sc, t, spec)
        # a zigzag already exists, so every subset including the empty
        # detour case is feasible; subsets come in cardinality order
        assert gs.select_critical(sc, t, cols, 0, spec=spec) == ("A",)
        assert gs.select_critical(sc, t, cols, 1, spec=spec) == ("B",)
        assert gs.select_critical(sc, t, cols, 2, spec=spec) == ("A", "B")
        assert gs.select_critical(sc, t, cols, 3, spec=spec) is None

    def test_none_when_statics_block(self):
        sc = _gap_scene()
        sealed = scene(
            list(sc.bodies) + [wall("cap", 6.5, 5.0, 0.4, 10.0)],
            dict(sc.goals),
        )
        spec = GridSpec.from_scene(sealed)
        t = gs.place_task(sealed, "g1", (Pose2(3, 5), Pose2(8, 5)), spec)
        cols = gs.find_colliding(sealed, t, spec)
        assert gs.select_critical(sealed, t, cols, spec=spec) is None

    def test_prefixes_beyond_cap(self, monkeypatch):
        monkeypatch.setattr(gs, "CARDINALITY_CAP", 0)
        sc = _gap_scene()
        spec = GridSpec.from_scene(sc)
        t = gs.place_task(sc, "g1", (Pose2(3, 5), Pose2(8, 5)), spec)
        crit = gs.select_critical(sc, t, gs.find_colliding(sc, t, spec), spec=spec)
        assert crit == ("b1",)


class TestScores:
    def test_score_scene_counts_free_reachable_mass(self, empty_scene):
        spec = GridSpec.from_scene(empty_scene)
        gom = rasterize_gom(empty_scene, [(5, 5), (6, 5)], spec)
        reach = reachability(empty_scene, spec)
        # the border ring of cell centers puts the 0.4 robot outside the
        # workspace, so the reachable interior is 62x62; the two interior
        # task cells count 3.0 instead of 1.0
        assert gs.score_scene(gom, reach) == pytest.approx(62 * 62 + 2 * 2.0)

    def test_score_node(self):
        assert gs.score_node(10.0, 0, 25.0) == pytest.approx(35.0)
        assert gs.score_node(10.0, 3, 25.0) == pytest.approx(10.0 + 25.0 / 2.0)

    def test_weight_objects(self):
        sc = scene(
            [robot(1, 1), obstacle("big", 4, 4, w=1.0, h=1.0), obstacle("small", 7, 7, w=0.5, h=0.5)]
        )
        w = gs.weight_objects(sc, ("big", "small"))
        assert w["big"] == pytest.approx(1.0)
        assert w["small"] == pytest.approx(0.25)

    def test_decay_weight(self):
        w = {"a": 0.8, "b": 0.08}
        out = gs.decay_weight(w, "a")
        assert out["a"] == pytest.approx(0.4)
        assert w["a"] == 0.8
        floored = gs.decay_weight(w, "b")
        assert floored["b"] == pytest.approx(0.05)
        assert gs.decay_weight(w, "zz") == w


class TestGenRelocationPoints:
    def test_candidates_are_valid(self):
        sc = _gap_scene()
        spec = GridSpec.from_scene(sc)
        pts = gs.gen_relocation_points(sc, "b1", 8, spec=spec)
        assert 0 < len(pts) <= 8
        goal_rect = rect_at(sc.goal_of("g1"), 0.6, 0.6)
        for p in pts:
            assert not collides(sc, "b1", p)
            assert not rects_overlap(rect_at(p, 0.6, 0.6), goal_rect)

    def test_ranked_by_clearance(self):
        sc = _gap_scene()
        spec = GridSpec.from_scene(sc)
        from rearrange2d.grids import edt, occupancy_mask

        clearance = edt(occupancy_mask(sc, spec, exclude=frozenset({"b1"})))
        pts = gs.gen_relocation_points(sc, "b1", 8, spec=spec)
        cls = [clearance[spec.cell_of(p)[1], spec.cell_of(p)[0]] for p in pts]
        assert all(a >= b - 1e-9 for a, b in zip(cls, cls[1:]))
        assert all(c >= 2.0 for c in cls)

    def test_avoid_cells(self):
        sc = _gap_scene()
        spec = GridSpec.from_scene(sc)
        base = gs.gen_relocation_points(sc, "b1", 4, spec=spec)
        avoid = frozenset(
            c for p in base for c in spec.cells_of_rect(rect_at(p, 0.6, 0.6))
        )
        rest = gs.gen_relocation_points(sc, "b1", 4, spec=spec, avoid_cells=avoid)
        for p in rest:
            assert spec.cells_of_rect(rect_at(p, 0.6, 0.6)).isdisjoint(avoid)

    def test_window_retry_when_cramped(self, monkeypatch):
        # slab right above the object starves the near window at high
        # clearance demands; the retry window reaches open floor
        monkeypatch.setattr(gs, "CLEARANCE_MIN", 10.0)
        sc = scene(
            [robot(1, 1), obstacle("o", 5, 5), wall("slab", 5, 6.75, 3.0, 2.5)]
        )
        spec = GridSpec.from_scene(sc)
        near = gs.gen_relocation_points(sc, "o", 6, spec=spec)
        assert near
        # every survivor sits outside the 1.5x window
        hx = 1.5 * 0.6
        assert all(
            abs(p.x - 5.0) > hx + 1e-9 or abs(p.y - 5.0) > hx + 1e-9 for p in near
        )

    def test_deterministic(self):
        sc = _gap_scene()
        spec = GridSpec.from_scene(sc)
        a = gs.gen_relocation_points(sc, "b1", 6, spec=spec)
        b = gs.gen_relocation_points(sc, "b1", 6, spec=spec)
        assert a == b


class TestExpandCrit:
    def test_highest_count_wins(self):
        sc = scene([robot(1, 1), obstacle("a", 3, 3), obstacle("b", 5, 5)])
        assert gs.expand_crit(sc, (), {"a": 3, "b": 1}) == "a"

    def test_tie_prefers_larger_then_smaller_id(self):
        sc = scene(
            [robot(1, 1), obstacle("a", 3, 3, w=0.5, h=0.5), obstacle("b", 5, 5)]
        )
        assert gs.expand_crit(sc, (), {"a": 2, "b": 2}) == "b"
        sc2 = scene([robot(1, 1), obstacle("a", 3, 3), obstacle("b", 5, 5)])
        assert gs.expand_crit(sc2, (), {"a": 2, "b": 2}) == "a"

    def test_filters(self):
        sc = scene([robot(1, 1), obstacle("a", 3, 3), obstacle("b", 5, 5)])
        assert gs.expand_crit(sc, ("a",), {"a": 5, "b": 0}) is None
        assert gs.expand_crit(sc, (), {"gone": 4}) is None


class TestPlanRelocation:
    def test_moves_object(self, simple_scene):
        spec = GridSpec.from_scene(simple_scene)
        out = gs.plan_relocation(simple_scene, "b1", Pose2(6.0, 8.5), 0, spec=spec)
        assert out is not None
        plan, after = out
        assert plan.purpose == "relocation"
        assert plan.object_id == "b1"
        assert after.body("b1").pose == Pose2(6.0, 8.5)
        assert after.robot.pose == plan.pairs[-1].place.waypoints[-1]

    def test_unreachable_object_fails(self):
        cx = 5.0
        sc = scene(
            [
                robot(1, 1),
                obstacle("o", cx, cx),
                wall("wl", cx - 0.65, cx, 0.5, 1.8),
                wall("wr", cx + 0.65, cx, 0.5, 1.8),
                wall("wb", cx, cx - 0.65, 1.8, 0.5),
                wall("wt", cx, cx + 0.65, 1.8, 0.5),
            ]
        )
        assert gs.plan_relocation(sc, "o", Pose2(8, 8), 0, spec=GridSpec.from_scene(sc)) is None


class TestSearchRelocations:
    def test_unblocks_gap(self):
        sc = _gap_scene()
        spec = GridSpec.from_scene(sc)
        t = gs.place_task(sc, "g1", (Pose2(3, 5), Pose2(8, 5)), spec)
        res = gs.search_relocations(sc, t, seed=0, spec=spec)
        assert res.success
        assert res.plans
        assert res.trace["initial_crit"] == ["b1"]
        assert gs.task_feasible(res.scene, t, frozenset(), spec)
        # the blocker really moved off the gap
        assert res.scene.body("b1").pose != Pose2(5.0, 5.0)
        assert res.iterations >= 1

    def test_trivially_feasible(self, simple_scene):
        spec = GridSpec.from_scene(simple_scene)
        t = gs.place_task(simple_scene, "g1", (Pose2(3, 3), Pose2(3, 8)), spec)
        res = gs.search_relocations(simple_scene, t, seed=0, spec=spec)
        assert res.success
        assert res.plans == ()
        assert res.iterations == 0

    def test_statics_blocked_reports_reason(self):
        sc = _gap_scene(blocker=False)
        sealed = scene(
            list(sc.bodies) + [wall("cap", 5.0, 5.0, 0.4, 1.8)],
            dict(sc.goals),
        )
        spec = GridSpec.from_scene(sealed)
        t = gs.place_task(sealed, "g1", (Pose2(3, 5), Pose2(8, 5)), spec)
        res = gs.search_relocations(sealed, t, seed=0, spec=spec)
        assert not res.success
        assert res.reason == "blocked by statics"

    def test_unreachable_critical_set_ends_at_once(self, monkeypatch):
        # the wedged robot has no grid anchor, so it reaches no grasp of the
        # critical slab; nothing can move, and every iteration would repeat
        # the first
        sc = wedged_scene()
        spec = GridSpec.from_scene(sc)
        t = gs.pick_task(sc, "g1", grasp_pose(sc.body("g1").pose, "W", 0.6, 0.6, 0.4), 0, spec)
        res = gs.search_relocations(sc, t, seed=0, spec=spec)
        assert res.trace["initial_crit"] == ["slab"]
        assert res.iterations == 1
        assert res.reason == "no critical object reachable"
        assert res.trace["candidates"] == 0
        # the full 40 iterations of a search that moves nothing: the slab
        # passes the reachability test but has no parking pose
        monkeypatch.setattr(gs, "reachable_sides", lambda *a: True)
        monkeypatch.setattr(gs, "gen_relocation_points", lambda *a, **k: [])
        full = gs.search_relocations(sc, t, seed=0, spec=spec)
        assert full.iterations == gs.ITERATION_LIMIT
        assert full.reason == "iteration limit"
        assert (res.success, res.scene, res.plans, res.failed_attempts) == (
            full.success, full.scene, full.plans, full.failed_attempts,
        )
        assert res.scene is sc

    def test_deterministic(self):
        sc = _gap_scene()
        spec = GridSpec.from_scene(sc)
        t = gs.place_task(sc, "g1", (Pose2(3, 5), Pose2(8, 5)), spec)
        r1 = gs.search_relocations(sc, t, seed=4, spec=spec)
        r2 = gs.search_relocations(sc, t, seed=4, spec=spec)
        assert r1.success == r2.success
        assert [p.object_id for p in r1.plans] == [p.object_id for p in r2.plans]
        assert r1.scene.body("b1").pose == r2.scene.body("b1").pose


def _flush_scene(rng: random.Random):
    """Walls and objects on a 0.25 lattice, with the robot flush against one
    side of one object (as it is right after a place)."""
    snap = lambda v: round(v * 4) / 4  # noqa: E731
    bodies = []
    for i in range(rng.randint(0, 3)):
        vertical = rng.random() < 0.5
        w, h = (0.5, snap(rng.uniform(1.0, 6.0))) if vertical else (snap(rng.uniform(1.0, 6.0)), 0.5)
        bodies.append(wall(f"w{i}", snap(rng.uniform(1, 9)), snap(rng.uniform(1, 9)), w, h))
    for i in range(rng.randint(1, 8)):
        x, y = snap(rng.uniform(1.0, 9.0)), snap(rng.uniform(1.0, 9.0))
        w, h = snap(rng.uniform(0.25, 1.25)), snap(rng.uniform(0.25, 1.25))
        make = goal_obj if rng.random() < 0.5 else obstacle
        bodies.append(make(f"o{i}", x, y, w, h))
    b = rng.choice(bodies[-1:] + [x for x in bodies if x.id.startswith("o")])
    rs = rng.choice((0.4, 0.5, 0.75))
    p = grasp_pose(b.pose, rng.choice(SIDES), b.w, b.h, rs)
    return scene([robot(p.x, p.y, rs)] + bodies)


def _ref_reachable_sides(sc, oid, spec):
    """The per-side form: one grid_connected call, and one snap of the
    robot cell, per grasp side."""
    robot = sc.robot
    free = grids.fit_mask(sc, spec, robot.w, robot.h, frozenset({robot.id}))
    rc = spec.cell_of(robot.pose)
    b = sc.body(oid)
    return any(
        grids.grid_connected(free, rc, spec.cell_of(grasp_pose(b.pose, side, b.w, b.h, robot.w)), spec)
        for side in SIDES
    )


def test_reachable_sides_matches_per_side_grid_connected():
    rng = random.Random(7400)
    verdicts = []
    own_cell_blocked = 0
    for _ in range(160):
        sc = _flush_scene(rng)
        spec = GridSpec.from_scene(sc, rng.choice((16, 32, 64)))
        robot = sc.robot
        free = grids.fit_mask(sc, spec, robot.w, robot.h, frozenset({robot.id}))
        rx, ry = spec.cell_of(robot.pose)
        own_cell_blocked += not free[ry, rx]
        for b in sc.movables:
            want = _ref_reachable_sides(sc, b.id, spec)
            assert gs.reachable_sides(sc, b.id, spec) == want, b.id
            verdicts.append(want)
    assert own_cell_blocked >= 40
    assert True in verdicts and False in verdicts


# -- gen_relocation_points against the per-cell loop ---------------------------


def ref_gen_relocation_points(scene, object_id, k, *, spec, clearance_min=2.0, avoid_cells=frozenset()):
    """The per-cell loop gen_relocation_points replaced: one rect_at,
    cells_of_rect, rects_overlap per goal and exact collides per window
    cell, sorted by (-clearance, iy, ix)."""
    body = scene.body(object_id)
    occ = grids.occupancy_mask(scene, spec, exclude=frozenset({object_id}))
    free = grids.fit_mask(scene, spec, body.w, body.h, frozenset({object_id}))
    goal_rects = [
        rect_at(scene.goal_of(oid), scene.body(oid).w, scene.body(oid).h)
        for oid in sorted(scene.goals)
        if oid != object_id
    ]

    def window_candidates(scale):
        hx, hy = scale * body.w, scale * body.h
        win = Rect(body.pose.x - hx, body.pose.y - hy, body.pose.x + hx, body.pose.y + hy)
        ix0, ix1, iy0, iy1 = spec.rect_cells(win)
        clearance = grids.edt(occ, (ix0, ix1, iy0, iy1)).tolist()
        found = []
        for iy in range(iy0, iy1 + 1):
            for ix in range(ix0, ix1 + 1):
                if not free[iy, ix] or clearance[iy - iy0][ix - ix0] < clearance_min:
                    continue
                p = spec.center((ix, iy))
                r = rect_at(p, body.w, body.h)
                if avoid_cells and not spec.cells_of_rect(r).isdisjoint(avoid_cells):
                    continue
                if any(rects_overlap(r, gr) for gr in goal_rects):
                    continue
                if collides(scene, object_id, p):
                    continue
                found.append((-clearance[iy - iy0][ix - ix0], iy, ix))
        return found

    cands = window_candidates(1.5)
    if not cands:
        cands = window_candidates(3.0)
    cands.sort()
    return [spec.center((ix, iy)) for _, iy, ix in cands[:k]]


@pytest.mark.parametrize("name", ["m_block_12", "m_block_16", "doorway", "nested_blockers", "swap_pocket"])
def test_candidates_match_the_loop_in_planning(monkeypatch, name):
    # every call the planner makes, spied from inside the search, at the
    # seeds the scale (0-4) and relocation (0-9) workloads plan; the
    # verdicts are collected, not asserted, so nothing in the planner can
    # swallow a mismatch
    seeds = range(5) if name.startswith("m_block") else range(10)
    inner = gs.gen_relocation_points
    calls = []

    def spy(sc, oid, k, **kw):
        got = inner(sc, oid, k, **kw)
        calls.append((got == ref_gen_relocation_points(sc, oid, k, **kw), len(got)))
        return got

    monkeypatch.setattr(gs, "gen_relocation_points", spy)
    for s in seeds:
        planner.plan_rearrangement(make_scene(name, s), planner.PlannerConfig(seed=s))
    assert calls
    assert all(same for same, _ in calls)
    assert any(n for _, n in calls)


CW = 10.0 / 64  # the cell side on the 10 x 10 workspace's 64-cell grid
UNDER, OVER = 2.0**-34, 2.0**-28  # 3.7e-10 and 2.4e-8 cells: either side of 1e-9


def c(i):
    """GridSpec.center's coordinate of cell i."""
    return (i + 0.5) * CW


def assert_matches(sc, oid, k, **kw):
    """gen_relocation_points must equal the reference at the module's
    clearance; returns its poses."""
    spec = GridSpec.from_scene(sc)
    got = gs.gen_relocation_points(sc, oid, k, spec=spec, **kw)
    want = ref_gen_relocation_points(sc, oid, k, spec=spec, clearance_min=gs.CLEARANCE_MIN, **kw)
    assert got == want
    assert all(type(p.x) is float and type(p.y) is float for p in got)
    return got


def test_candidate_flush_with_a_goal_rect():
    # g's goal rect starts on x = 34 cells, where the footprint of a
    # candidate at cell 32 ends; the candidate one cell east overlaps it
    o = obstacle("o", c(32), c(32), 3 * CW, 3 * CW)
    sc = scene([robot(9.0, 1.0), o, goal_obj("g", 1.0, 9.0, 3 * CW, 3 * CW)], {"g": Pose2(c(35), c(32))})
    got = assert_matches(sc, "o", 1000)
    assert Pose2(c(32), c(32)) in got
    assert Pose2(c(33), c(32)) not in got
    assert Pose2(c(31), c(32)) in got


@pytest.mark.parametrize("half", [EPS, math.nextafter(EPS, 1.0)])
def test_candidate_overlapping_a_goal_rect_by_eps(half):
    # g's goal rect is a sliver on x = 0 reaching x = half; the candidate
    # at cell 0 starts on x = 0, so it overlaps the sliver by half: exactly
    # EPS is free, one ulp more is not
    sc = scene(
        [robot(9.0, 1.0), obstacle("o", c(1), c(32), CW, CW), goal_obj("g", 5.0, 9.0, 2 * half, CW)],
        {"g": Pose2(0.0, c(32))},
    )
    assert rect_at(Pose2(0.0, c(32)), 2 * half, CW).xmax == half
    got = assert_matches(sc, "o", 1000)
    assert (Pose2(c(0), c(32)) in got) == (half == EPS)
    assert Pose2(c(0), c(31)) in got


@pytest.mark.parametrize("extra", [UNDER, OVER], ids=["under", "over"])
@pytest.mark.parametrize("line", ["x34", "x30", "y34", "y30"])
def test_footprint_edge_within_1e9_of_an_avoid_cell(extra, line):
    # the footprint at cell (32, 32) reaches extra past cells 31-33 on both
    # axes; rect_cells counts cell 30 or 34 only past 1e-9 cells
    w = 3 * CW + 2 * extra
    sc = scene([robot(9.0, 1.0), obstacle("o", c(32), c(32), w, w)])
    i = int(line[1:])
    avoid = frozenset((i, j) if line[0] == "x" else (j, i) for j in range(64))
    got = assert_matches(sc, "o", 1000, avoid_cells=avoid)
    assert (Pose2(c(32), c(32)) in got) == (extra == UNDER)


def test_avoid_cells_off_the_grid():
    sc = _gap_scene()
    off = frozenset({(-1, 32), (64, 32), (32, -1), (32, 64), (-5, -5), (100, 3)})
    base = assert_matches(sc, "b1", 50)
    assert base
    assert assert_matches(sc, "b1", 50, avoid_cells=off) == base
    # mixed with cells on the grid, which still count
    on = frozenset(grids.GridSpec.from_scene(sc).cells_of_rect(rect_at(base[0], 0.6, 0.6)))
    mixed = assert_matches(sc, "b1", 50, avoid_cells=off | on)
    assert base[0] not in mixed


@pytest.mark.parametrize("corner", [(0.3, 0.3), (9.7, 0.3), (0.3, 9.7), (9.7, 9.7)])
def test_window_clipped_by_the_grid_edge(corner, monkeypatch):
    monkeypatch.setattr(gs, "CLEARANCE_MIN", 1.0)
    sc = scene([robot(5.0, 5.0), obstacle("o", *corner), wall("w", 5.0, 8.0, 2.0, 0.5)])
    got = assert_matches(sc, "o", 1000)
    assert got


def test_no_other_goals():
    # no goals at all, and only the object's own goal
    bodies = [robot(1.0, 1.0), goal_obj("o", 5.0, 5.0), wall("w", 5.0, 6.5, 3.0, 0.5)]
    bare = assert_matches(scene(bodies), "o", 1000)
    assert bare
    assert assert_matches(scene(bodies, {"o": Pose2(5.0, 5.0)}), "o", 1000) == bare


def test_robot_row_still_counts():
    # the robot is in no raster, so only the exact test keeps a candidate
    # off it
    far = assert_matches(scene([robot(9.0, 1.0), obstacle("o", c(32), c(32))]), "o", 1000)
    near = assert_matches(scene([robot(c(34), c(32)), obstacle("o", c(32), c(32))]), "o", 1000)
    assert Pose2(c(34), c(32)) in far
    assert Pose2(c(34), c(32)) not in near


def test_clearance_ties_go_by_row_then_column():
    # with nothing occupied the clearance is the distance to the frame, so
    # many window cells tie
    sc = scene([robot(9.0, 1.0), obstacle("o", c(20), c(24), 0.6, 0.6)])
    spec = GridSpec.from_scene(sc)
    got = assert_matches(sc, "o", 1000)
    clearance = grids.edt(grids.occupancy_mask(sc, spec, exclude=frozenset({"o"})))
    keys = []
    for p in got:
        ix, iy = spec.cell_of(p)
        keys.append((-clearance[iy, ix], iy, ix))
    assert keys == sorted(keys)
    assert len({k for k, _, _ in keys}) < len(keys) - 10
    # a budget that cuts a tie group keeps its first cells
    for k in (1, 3, 7, 20):
        assert assert_matches(sc, "o", k) == got[:k]


def test_k_beyond_the_candidates():
    sc = _gap_scene()
    every = assert_matches(sc, "b1", 10**6)
    assert 0 < len(every) < 10**6
    assert assert_matches(sc, "b1", len(every) + 1) == every
