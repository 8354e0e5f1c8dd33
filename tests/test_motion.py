import math
from dataclasses import replace

import pytest

from rearrange2d import bench, grids, motion, planner
from rearrange2d.motion import (
    InfeasibleLeg,
    Path,
    PendingPlan,
    Subgoal,
    SubgoalBlocked,
    birrt,
    compound_parts,
    grasp_pose,
    plan_object_path,
    plan_pick_place,
    refine_subgoals,
    select_subgoals,
    side_offset,
    solve_pick_config,
    sweep_clear,
)
from rearrange2d.grids import GridSpec
from rearrange2d.world import Pose2, footprint_collides

from conftest import goal_obj, obstacle, robot, scene, wall, wedged_scene


class TestGraspGeometry:
    def test_side_offsets(self):
        ow, oh, rs = 0.6, 0.8, 0.4
        assert side_offset("E", ow, oh, rs) == pytest.approx((0.5, 0.0))
        assert side_offset("W", ow, oh, rs) == pytest.approx((-0.5, 0.0))
        assert side_offset("N", ow, oh, rs) == pytest.approx((0.0, 0.6))
        assert side_offset("S", ow, oh, rs) == pytest.approx((0.0, -0.6))

    def test_grasp_pose_flush(self):
        gp = grasp_pose(Pose2(5.0, 5.0), "W", 0.6, 0.6, 0.4)
        assert (gp.x, gp.y) == pytest.approx((4.5, 5.0))

    def test_compound_parts(self):
        parts = compound_parts("N", 0.6, 0.6, 0.4)
        assert parts[0] == (0.0, 0.0, 0.6, 0.6)
        assert parts[1] == pytest.approx((0.0, 0.5, 0.4, 0.4))


def test_path_invariants():
    with pytest.raises(ValueError):
        Path((Pose2(0, 0),))
    p = Path((Pose2(0, 0), Pose2(3, 4), Pose2(3, 0)))
    assert p.length == pytest.approx(9.0)


class TestSweepClear:
    def test_clear_line(self, empty_scene):
        parts = ((0.0, 0.0, 0.4, 0.4),)
        assert sweep_clear(
            empty_scene, parts, [Pose2(1, 1), Pose2(9, 9)], frozenset({"robot"})
        )

    def test_blocked_line(self, simple_scene):
        parts = ((0.0, 0.0, 0.4, 0.4),)
        assert not sweep_clear(
            simple_scene, parts, [Pose2(2, 6), Pose2(9, 6)], frozenset({"robot"})
        )

    def test_flush_slide_is_clear(self, simple_scene):
        # obstacle b1 at (6, 6), 0.6 square: a 0.4 robot sliding along
        # y = 6.5 touches the inflated boundary exactly and passes
        parts = ((0.0, 0.0, 0.4, 0.4),)
        assert sweep_clear(
            simple_scene, parts, [Pose2(2, 6.5), Pose2(9, 6.5)], frozenset({"robot"})
        )
        assert not sweep_clear(
            simple_scene, parts, [Pose2(2, 6.49), Pose2(9, 6.49)], frozenset({"robot"})
        )

    def test_vertex_collision(self, simple_scene):
        parts = ((0.0, 0.0, 0.4, 0.4),)
        assert not sweep_clear(
            simple_scene, parts, [Pose2(6, 6), Pose2(9, 9)], frozenset({"robot"})
        )

    def test_ignore(self, simple_scene):
        parts = ((0.0, 0.0, 0.4, 0.4),)
        assert sweep_clear(
            simple_scene,
            parts,
            [Pose2(2, 6), Pose2(9, 6)],
            frozenset({"robot", "b1"}),
        )

    def test_multi_part_footprint(self, simple_scene):
        # robot alone fits under b1, the side-car part does not
        solo = ((0.0, 0.0, 0.4, 0.4),)
        wide = solo + ((0.0, 0.6, 0.6, 0.6),)
        poly = [Pose2(2, 5.0), Pose2(9, 5.0)]
        ig = frozenset({"robot"})
        assert sweep_clear(simple_scene, solo, poly, ig)
        assert not sweep_clear(simple_scene, wide, poly, ig)


class TestBirrt:
    def test_straight_shot(self, empty_scene):
        a, b = Pose2(1, 1), Pose2(8, 8)
        p = birrt(
            empty_scene, empty_scene.robot.footprint, a, b, 0,
            ignore=frozenset({"robot"}), spec=GridSpec.from_scene(empty_scene),
        )
        assert p is not None
        assert p.waypoints == (a, b)

    def test_deterministic(self, walled_scene):
        a, b = Pose2(2, 2), Pose2(8, 2)
        kw = dict(ignore=frozenset({"robot", "g1"}), spec=GridSpec.from_scene(walled_scene))
        p1 = birrt(walled_scene, walled_scene.robot.footprint, a, b, 7, **kw)
        p2 = birrt(walled_scene, walled_scene.robot.footprint, a, b, 7, **kw)
        assert p1 is not None
        assert p1.waypoints == p2.waypoints

    def test_endpoints_exact(self, walled_scene):
        a, b = Pose2(2, 2), Pose2(8, 2)
        p = birrt(
            walled_scene, walled_scene.robot.footprint, a, b, 7,
            ignore=frozenset({"robot", "g1"}), spec=GridSpec.from_scene(walled_scene),
        )
        assert p.waypoints[0] == a and p.waypoints[-1] == b

    def test_path_is_collision_free(self, walled_scene):
        a, b = Pose2(2, 2), Pose2(8, 2)
        p = birrt(
            walled_scene, walled_scene.robot.footprint, a, b, 7,
            ignore=frozenset({"robot", "g1"}), spec=GridSpec.from_scene(walled_scene),
        )
        assert sweep_clear(
            walled_scene, ((0.0, 0.0, 0.4, 0.4),), p.waypoints, frozenset({"robot", "g1"})
        )

    def test_disconnected_returns_none(self):
        sc = scene([robot(1, 5), wall("bar", 5, 5, 0.4, 10.0)])
        p = birrt(
            sc, sc.robot.footprint, Pose2(1, 5), Pose2(9, 5), 0,
            ignore=frozenset({"robot"}), spec=GridSpec.from_scene(sc),
        )
        assert p is None

    def test_narrow_corridor(self):
        # 0.5 wide gap for a 0.4 robot
        sc = scene(
            [
                robot(1, 5),
                wall("top", 5, 7.75, 0.4, 4.5),
                wall("bot", 5, 2.5, 0.4, 5.0),
            ]
        )
        p = birrt(
            sc, sc.robot.footprint, Pose2(1, 5), Pose2(9, 5), 3,
            ignore=frozenset({"robot"}), spec=GridSpec.from_scene(sc),
        )
        assert p is not None
        assert sweep_clear(sc, ((0.0, 0.0, 0.4, 0.4),), p.waypoints, frozenset({"robot"}))

    def test_ignore_respected(self, simple_scene):
        a, b = Pose2(2, 6), Pose2(9, 6)
        p = birrt(
            simple_scene, simple_scene.robot.footprint, a, b, 0,
            ignore=frozenset({"robot", "b1"}), spec=GridSpec.from_scene(simple_scene),
        )
        assert p.waypoints == (a, b)

    def test_wedged_start_samples_its_way_out(self):
        # no cell near the start admits its footprint, so the grid calls
        # the query disconnected; the start is exactly free all the same,
        # and birrt samples instead of rejecting it at the precheck
        sc = wedged_scene()
        spec = GridSpec.from_scene(sc)
        r = sc.robot
        goal = Pose2(5.0, 5.0)
        free = grids.fit_mask(sc, spec, r.footprint, frozenset({r.id}))
        assert not grids.grid_connected(free, spec.cell_of(r.pose), spec.cell_of(goal), spec)
        for seed in range(3):
            p = birrt(sc, r.footprint, r.pose, goal, seed, ignore=frozenset({r.id}), spec=spec)
            assert p is not None
            assert p.waypoints[0] == r.pose and p.waypoints[-1] == goal
            assert sweep_clear(sc, r.footprint, p.waypoints, frozenset({r.id}))

    def test_invalid_endpoint(self, simple_scene):
        # start colliding with an obstacle that is not ignored
        p = birrt(
            simple_scene, simple_scene.robot.footprint, Pose2(6, 6), Pose2(9, 9), 0,
            ignore=frozenset({"robot"}), spec=GridSpec.from_scene(simple_scene),
        )
        assert p is None


    def test_inflates_only_past_the_endpoint_tests(self, simple_scene, monkeypatch):
        calls = []
        inner = motion.inflate

        def spy(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(motion, "inflate", spy)
        sc = simple_scene
        kw = dict(ignore=frozenset({"robot"}), spec=GridSpec.from_scene(sc))
        # the start, then the goal, inside obstacle b1
        for a, b in ((Pose2(6, 6), Pose2(9, 9)), (Pose2(9, 9), Pose2(6, 6))):
            assert birrt(sc, sc.robot.footprint, a, b, 0, **kw) is None
        assert calls == []
        a, b = Pose2(1, 1), Pose2(1, 5)
        assert birrt(sc, sc.robot.footprint, a, b, 0, **kw).waypoints == (a, b)
        assert len(calls) == 1

class TestSolvePickConfig:
    def test_picks_nearest_side(self, simple_scene):
        # robot at (1, 1), object b1 at (6, 6): W and S tie by distance, W sorts first
        sg = solve_pick_config(simple_scene, "b1")
        assert sg is not None
        assert sg.grasp_side in ("W", "S")
        assert sg.object_pose == Pose2(6.0, 6.0)
        gp = grasp_pose(sg.object_pose, sg.grasp_side, 0.6, 0.6, 0.4)
        assert not footprint_collides(
            simple_scene, ((0.0, 0.0, 0.4, 0.4),), gp, frozenset({"robot"})
        )

    def test_blocked_side_skipped(self):
        sc = scene(
            [robot(1, 5), obstacle("o", 5, 5), wall("w", 4.3, 5, 0.4, 2.0)]
        )
        sg = solve_pick_config(sc, "o")
        assert sg is not None
        assert sg.grasp_side != "W"

    def test_preferred_side(self):
        # the side nearest the robot is preferred
        sc = scene([robot(6, 9), obstacle("b1", 6, 6)])
        sg = solve_pick_config(sc, "b1")
        assert sg.grasp_side == "N"

    def test_boxed_object_returns_none(self):
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
        assert solve_pick_config(sc, "o") is None


class TestPlanObjectPath:
    def test_straight(self, simple_scene):
        mu = plan_object_path(simple_scene, "g1", Pose2(8, 8), 0, spec=GridSpec.from_scene(simple_scene))
        assert isinstance(mu, Path)
        assert mu.waypoints[0] == Pose2(3, 3)
        assert mu.waypoints[-1] == Pose2(8, 8)

    def test_target_outside_workspace(self, simple_scene):
        assert plan_object_path(simple_scene, "g1", Pose2(11, 5), 0, spec=GridSpec.from_scene(simple_scene)) is None

    def test_movables_are_transparent(self, simple_scene):
        # b1 sits on the straight line; the object path still goes straight
        mu = plan_object_path(simple_scene, "g1", Pose2(9, 9), 0, spec=GridSpec.from_scene(simple_scene))
        assert len(mu.waypoints) == 2

    def test_routes_around_walls(self, walled_scene):
        mu = plan_object_path(walled_scene, "g1", Pose2(8, 8), 1, spec=GridSpec.from_scene(walled_scene))
        assert mu is not None
        # must clear the divider: some waypoint above the wall top
        assert max(p.y for p in mu.waypoints) > 8.0 - 0.3


class TestSelectSubgoals:
    def _straight(self, length=8.0):
        sc = scene([robot(1, 4), goal_obj("o", 1, 5)], {"o": Pose2(9, 5)})
        mu = Path((Pose2(1, 5), Pose2(1 + length, 5)))
        return sc, mu

    def test_endpoints_and_spacing(self):
        sc, mu = self._straight()
        sgs = select_subgoals(mu, sc, object_id="o", spec=GridSpec.from_scene(sc))
        assert sgs[0].object_pose == Pose2(1, 5)
        assert sgs[-1].object_pose == Pose2(9, 5)
        rs = 0.4
        gaps = [
            a.object_pose.dist(b.object_pose) for a, b in zip(sgs, sgs[1:])
        ]
        assert all(g <= 4.0 * rs + 1e-9 for g in gaps)
        assert all(g >= 0.5 * rs - 1e-9 for g in gaps[:-1])

    def test_denser_near_walls(self):
        open_sc, mu = self._straight()
        near = scene(
            [robot(1, 4), goal_obj("o", 1, 5), wall("w", 5, 6.0, 8.0, 0.6)],
            {"o": Pose2(9, 5)},
        )
        n_open = len(select_subgoals(mu, open_sc, object_id="o", spec=GridSpec.from_scene(open_sc)))
        n_wall = len(select_subgoals(mu, near, object_id="o", spec=GridSpec.from_scene(near)))
        assert n_wall > n_open

    def test_via_points_cover_bends(self):
        sc = scene([robot(1, 4), goal_obj("o", 1, 5)], {"o": Pose2(5, 9)})
        mu = Path((Pose2(1, 5), Pose2(5, 5), Pose2(5, 9)))
        sgs = select_subgoals(mu, sc, object_id="o", spec=GridSpec.from_scene(sc))
        seq = [sgs[0].object_pose]
        for sg in sgs[1:]:
            seq.extend(sg.via)
            seq.append(sg.object_pose)
        # the reconstructed polyline passes through the bend exactly once
        assert sum(1 for p in seq if p == Pose2(5, 5)) == 1
        # and is monotone along mu: total length equals mu length
        total = sum(a.dist(b) for a, b in zip(seq, seq[1:]))
        assert total == pytest.approx(mu.length)

    def test_each_leg_side_is_assigned_once(self, monkeypatch):
        calls = []
        inner = motion.assign_leg_side

        def spy(scene, poly, *args):
            calls.append((poly[0], poly[-1]))
            return inner(scene, poly, *args)

        monkeypatch.setattr(motion, "assign_leg_side", spy)
        sc, mu = self._straight()
        sgs = select_subgoals(mu, sc, object_id="o", spec=GridSpec.from_scene(sc))
        legs = [(a.object_pose, b.object_pose) for a, b in zip(sgs, sgs[1:])]
        assert len(legs) > 1 and calls == legs
        assert sgs[0].grasp_side == sgs[1].grasp_side
        # a zero-length path keeps its one degenerate leg
        calls.clear()
        sgs = select_subgoals(Path((Pose2(1, 5), Pose2(1, 5))), sc, object_id="o", spec=GridSpec.from_scene(sc))
        assert len(sgs) == 1 and calls == [(Pose2(1, 5), Pose2(1, 5))]

    def test_blocked_grasp_raises(self):
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
        mu = Path((Pose2(cx, cx), Pose2(cx, 8.0)))
        with pytest.raises(SubgoalBlocked) as ei:
            select_subgoals(mu, sc, object_id="o", spec=GridSpec.from_scene(sc))
        assert ei.value.subgoal == 0

    @pytest.mark.parametrize("fail", [1, 2, 3])
    def test_blocked_leg_reports_its_subgoal(self, monkeypatch, fail):
        # leg k runs from subgoal k - 1 to subgoal k; a first leg with no
        # side leaves subgoal 0 (the initial grasp) without one, a later
        # leg its own end
        legs = []
        inner = motion.assign_leg_side

        def spy(scene, poly, *args):
            legs.append((poly[0], poly[-1]))
            return None if len(legs) == fail else inner(scene, poly, *args)

        monkeypatch.setattr(motion, "assign_leg_side", spy)
        sc, mu = self._straight()
        with pytest.raises(SubgoalBlocked) as ei:
            select_subgoals(mu, sc, object_id="o", spec=GridSpec.from_scene(sc))
        assert len(legs) == fail
        subgoal, pose = (0, legs[0][0]) if fail == 1 else (fail, legs[-1][1])
        assert (ei.value.subgoal, ei.value.pose) == (subgoal, pose)
        assert str(ei.value).startswith(f"no feasible grasp side for subgoal {subgoal} at (")

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            Path(())


class TestRefineSubgoals:
    def test_straight_line_merges_to_two(self):
        sc = scene([robot(1, 4), goal_obj("o", 1, 5)], {"o": Pose2(9, 5)})
        mu = Path((Pose2(1, 5), Pose2(9, 5)))
        sgs = select_subgoals(mu, sc, object_id="o", spec=GridSpec.from_scene(sc))
        assert len(sgs) > 2
        out = refine_subgoals(sgs, sc, object_id="o")
        assert len(out) == 2
        assert out[0].object_pose == Pose2(1, 5)
        assert out[-1].object_pose == Pose2(9, 5)
        # dropped subgoals survive as via points, in order
        seq = [out[-1].via[i].x for i in range(len(out[-1].via))]
        assert seq == sorted(seq)

    def test_wall_stops_merging(self):
        # legs grasped by one side merge; two subgoals are one leg, which
        # stays as it is
        sc = scene([robot(1, 4), goal_obj("o", 1, 5)], {"o": Pose2(9, 5)})
        mu = Path((Pose2(1, 5), Pose2(9, 5)))
        sgs = select_subgoals(mu, sc, object_id="o", spec=GridSpec.from_scene(sc))
        sides = {sg.grasp_side for sg in sgs[1:]}
        if len(sides) == 1:
            out = refine_subgoals(sgs, sc, object_id="o")
            assert len(out) == 2
        short = refine_subgoals(sgs[:2], sc, object_id="o")
        assert short == sgs[:2]


def ref_refine_subgoals(subgoals, scene, epsilon, *, object_id):
    """refine_subgoals as it was when each subgoal carried its world-frame
    contact point (the centre of its grasped face), with epsilon the
    caller's, half the robot side in planning: two legs' grasps agree when
    the contact points' offsets from their object poses lie within
    epsilon."""
    if len(subgoals) <= 2:
        return list(subgoals)
    body = scene.body(object_id)
    rs = scene.robot.w
    ignore = frozenset({object_id, scene.robot.id})

    def local_cp(sg):
        dx, dy = motion._SIDE_DIR[sg.grasp_side]
        p = sg.object_pose
        cp = Pose2(p.x + dx * body.w / 2.0, p.y + dy * body.h / 2.0)
        return (cp.x - p.x, cp.y - p.y)

    out = list(subgoals)
    merged = True
    while merged:
        merged = False
        for k in range(1, len(out) - 1):
            a, b = out[k], out[k + 1]
            ca, cb = local_cp(a), local_cp(b)
            if math.hypot(ca[0] - cb[0], ca[1] - cb[1]) >= epsilon:
                continue
            poly = [out[k - 1].object_pose, *a.via, a.object_pose, *b.via, b.object_pose]
            if not motion._leg_side_ok(scene, b.grasp_side, body.w, body.h, rs, poly, ignore):
                continue
            out[k + 1] = replace(b, via=a.via + (a.object_pose,) + b.via)
            del out[k]
            merged = True
            break
    return out


# the desk and relocation suites and m_block_16, each at seeds 0-9
REFINED = list(dict.fromkeys(bench.SUITES["desk"] + bench.SUITES["relocation"] + ("m_block_16",)))


@pytest.mark.parametrize("name", REFINED)
def test_refinement_merges_as_the_contact_point_rule(monkeypatch, name):
    calls = merges = 0
    inner = motion.refine_subgoals

    def spy(subgoals, scene, *, object_id):
        nonlocal calls, merges
        out = inner(subgoals, scene, object_id=object_id)
        assert out == ref_refine_subgoals(subgoals, scene, 0.5 * scene.robot.w, object_id=object_id)
        calls += 1
        merges += len(subgoals) - len(out)
        return out

    monkeypatch.setattr(motion, "refine_subgoals", spy)
    for seed in range(10):
        planner.plan_rearrangement(bench.make_scene(name, seed), planner.PlannerConfig(seed=seed))
    assert calls and merges


def test_thin_object_merges_across_sides():
    # faces of a 0.1 x 0.1 object lie 0.07 or 0.1 apart, within half the
    # 0.4 robot side, so legs grasped by different sides merge; a 0.6
    # object's faces lie at least 0.42 apart and keep their legs
    poses = [Pose2(2, 5), Pose2(4, 5), Pose2(6, 5), Pose2(8, 5)]
    sgs = [Subgoal(p, side) for p, side in zip(poses, ["W", "W", "N", "E"])]
    for size, legs in ((0.1, 1), (0.6, 3)):
        sc = scene([robot(1, 1), goal_obj("o", 2, 5, size, size)], {"o": Pose2(8, 5)})
        out = refine_subgoals(sgs, sc, object_id="o")
        assert out == ref_refine_subgoals(sgs, sc, 0.2, object_id="o")
        assert len(out) - 1 == legs


class TestPlanPickPlace:
    def _plan(self, seed=0):
        sc = scene([robot(1, 5), goal_obj("o", 3, 5)], {"o": Pose2(7, 5)})
        mu = Path((Pose2(3, 5), Pose2(7, 5)))
        sgs = select_subgoals(mu, sc, object_id="o", spec=GridSpec.from_scene(sc))
        sgs = refine_subgoals(sgs, sc, object_id="o")
        return sc, plan_pick_place(sc, "o", sgs, seed=seed, spec=GridSpec.from_scene(sc))

    def test_reaches_target(self):
        sc, (plan, final) = self._plan()
        assert plan.object_id == "o"
        assert plan.pnp_count >= 1
        assert final.body("o").pose == Pose2(7, 5)
        assert final.robot.pose == plan.pairs[-1].place.waypoints[-1]

    def test_pick_starts_at_robot(self):
        sc, (plan, _) = self._plan()
        assert plan.pairs[0].pick.waypoints[0] == sc.robot.pose

    def test_rigid_attachment(self):
        _, (plan, _) = self._plan()
        for pair in plan.pairs:
            off = pair.robot_offset
            assert len(pair.place.waypoints) == len(pair.object_waypoints)
            for rp, op in zip(pair.place.waypoints, pair.object_waypoints):
                assert abs(rp.x - (op.x + off[0])) <= 1e-12
                assert abs(rp.y - (op.y + off[1])) <= 1e-12

    def test_leg_chaining(self):
        _, (plan, _) = self._plan()
        for prev, cur in zip(plan.pairs, plan.pairs[1:]):
            # the next pick leaves from where the place ended
            assert cur.pick.waypoints[0] == prev.place.waypoints[-1]
            # and the object stays put in between
            assert cur.object_waypoints[0] == prev.object_waypoints[-1]

    def test_deterministic(self):
        _, (p1, _) = self._plan(seed=5)
        _, (p2, _) = self._plan(seed=5)
        assert p1 == p2

    def test_no_subgoals_rejected(self, simple_scene):
        with pytest.raises(ValueError):
            plan_pick_place(simple_scene, "b1", [], spec=GridSpec.from_scene(simple_scene))

    def test_first_subgoal_off_the_object_rejected(self):
        # a transport starts where its object is, with or without defer
        sc = scene([robot(1, 5), goal_obj("o", 3, 5)], {"o": Pose2(7, 5)})
        sgs = [Subgoal(Pose2(3.5, 5), "W"), Subgoal(Pose2(7, 5), "W")]
        for defer in (False, True):
            with pytest.raises(ValueError, match="first subgoal is not where o is"):
                plan_pick_place(sc, "o", sgs, spec=GridSpec.from_scene(sc), defer=defer)

    def test_blocked_corridor_raises_infeasible(self):
        sc = scene(
            [
                robot(1, 5),
                goal_obj("o", 2.5, 5),
                wall("top", 5, 6.0, 7.0, 1.0),
                wall("bot", 5, 4.0, 7.0, 1.0),
                obstacle("blk", 5, 5),
            ],
            {"o": Pose2(7.5, 5)},
        )
        mu = Path((Pose2(2.5, 5), Pose2(7.5, 5)))
        sgs = select_subgoals(mu, sc, object_id="o", spec=GridSpec.from_scene(sc))
        with pytest.raises(InfeasibleLeg) as ei:
            plan_pick_place(sc, "o", sgs, spec=GridSpec.from_scene(sc))
        e = ei.value
        assert (e.object_id, e.leg) == ("o", 3)
        # one record per side, in the order tried: W's transport runs into
        # blk, and blk or a wall covers the other sides' grasps
        assert [(part, side) for part, side, _, _ in e.tried] == [
            ("place", "W"), ("grasp", "N"), ("grasp", "E"), ("grasp", "S"),
        ]
        prev, cur = sgs[2].object_pose, sgs[3].object_pose
        assert e.tried[0][2:] == (prev, cur)
        for _, side, start, goal in e.tried[1:]:
            assert start == e.tried[1][2]
            assert goal == grasp_pose(prev, side, 0.6, 0.6, 0.4)
            assert footprint_collides(sc, sc.robot.footprint, goal, frozenset({"robot"}))


    def test_sweeps_only_legs_with_via_points(self, monkeypatch):
        # a leg with via points takes one sweep_clear per side tried; one
        # without goes to birrt alone, straight (the first) or around the
        # wall (the second)
        sc = scene([robot(1, 1), goal_obj("o", 2, 5), wall("w", 5, 5, 0.4, 2.0)], {"o": Pose2(5, 8.5)})
        sgs = [
            Subgoal(Pose2(2, 5), "W"),
            Subgoal(Pose2(3.5, 5), "W"),
            Subgoal(Pose2(6.5, 5), "W"),
            Subgoal(Pose2(8, 8), "S", via=(Pose2(8, 5),)),
            Subgoal(Pose2(5, 8.5), "E", via=(Pose2(6.5, 8.5),)),
        ]
        sweeps, routes = [], []
        sweep, route = motion.sweep_clear, motion.birrt

        def sweep_spy(scene, parts, poses, ignore=frozenset()):
            sweeps.append(tuple(poses))
            return sweep(scene, parts, poses, ignore)

        def birrt_spy(scene, parts, start, goal, *args, **kwargs):
            if len(parts) == 2:
                routes.append((start, goal))
            return route(scene, parts, start, goal, *args, **kwargs)

        monkeypatch.setattr(motion, "sweep_clear", sweep_spy)
        monkeypatch.setattr(motion, "birrt", birrt_spy)
        plan, final = plan_pick_place(sc, "o", sgs, spec=GridSpec.from_scene(sc))
        assert sweeps == [(Pose2(6.5, 5), Pose2(8, 5), Pose2(8, 8)), (Pose2(8, 8), Pose2(6.5, 8.5), Pose2(5, 8.5))]
        assert routes == [(Pose2(2, 5), Pose2(3.5, 5)), (Pose2(3.5, 5), Pose2(6.5, 5))]
        assert plan.pairs[0].object_waypoints == (Pose2(2, 5), Pose2(3.5, 5))
        assert len(plan.pairs[1].object_waypoints) > 2
        assert final.body("o").pose == Pose2(5, 8.5)


class TestDeferredLegs:
    """A relocation of an object behind a 0.6 door in a 3-unit wall: the
    pick leg takes from tens to thousands of Bi-RRT iterations, and at
    every seed it passes birrt's prechecks and is deferred."""

    def _relocation(self, robot_pose=(2, 2)):
        h = 5.0 - 0.3
        sc = scene([robot(*robot_pose), wall("wn", 5, 10 - h / 2, 3, h), wall("ws", 5, h / 2, 3, h), obstacle("o", 8, 8)])
        sg0 = solve_pick_config(sc, "o")
        target = Pose2(8, 6)
        sg1 = Subgoal(target, sg0.grasp_side)
        return sc, [sg0, sg1], GridSpec.from_scene(sc)

    def _pending(self):
        sc, sgs, spec = self._relocation()
        for seed in range(20):
            plan, _ = plan_pick_place(sc, "o", sgs, seed, spec=spec, defer=True)
            if isinstance(plan, PendingPlan):
                return plan
        raise AssertionError("no seed deferred a leg")

    def test_deferred_plans_resolve_to_the_eager_plan(self):
        sc, sgs, spec = self._relocation()
        for seed in range(20):
            want, want_after = plan_pick_place(sc, "o", sgs, seed, spec=spec)
            got, after = plan_pick_place(sc, "o", sgs, seed, spec=spec, defer=True)
            assert after == want_after
            # the pick through the door is deferred, the place is straight
            assert isinstance(got, PendingPlan)
            ((_, _, pick, route, _),) = got.legs
            assert isinstance(pick, motion.DeferredLeg) and isinstance(route, Path)
            assert got.after == after
            assert got.resolve() == want
        # the robot by the object: both legs straight, so nothing is deferred
        sc, sgs, spec = self._relocation(robot_pose=(8, 7))
        want = plan_pick_place(sc, "o", sgs, 0, spec=spec)
        got = plan_pick_place(sc, "o", sgs, 0, spec=spec, defer=True)
        assert isinstance(got[0], motion.MotionPlan)
        assert got == want

    def test_resolve_checks_the_predicted_scene(self):
        plan = self._pending()
        moved = replace(plan, after=plan.after.with_pose("o", Pose2(8, 6.5)))
        with pytest.raises(RuntimeError, match="another scene"):
            moved.resolve()

    def test_a_deferred_leg_that_fails_raises(self, monkeypatch):
        plan = self._pending()
        monkeypatch.setattr(motion, "birrt", lambda *a, **k: None)
        with pytest.raises(RuntimeError, match="found no path"):
            plan.resolve()


def test_mix_seed_stable_and_distinct():
    a = motion._mix_seed(3, 1, "E", 0)
    assert a == motion._mix_seed(3, 1, "E", 0)
    assert a != motion._mix_seed(3, 1, "E", 1)
    assert a != motion._mix_seed(4, 1, "E", 0)
