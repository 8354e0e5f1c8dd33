import json
import math
import random

import pytest

from rearrange2d import bench, scenario
from rearrange2d.world import (
    KIND_GOAL,
    KIND_OBSTACLE,
    KIND_ROBOT,
    Body,
    Pose2,
    Rect,
    SceneError,
    collides,
    default_tolerance,
    footprint_collides,
    left_sum,
    rect_at,
    rects_overlap,
    segment_hits_rect,
    verify_placements,
)

from conftest import goal_obj, obstacle, robot, scene, wall


def test_left_sum_is_a_left_fold_from_int_zero():
    rng = random.Random(5)
    for n in range(40):
        xs = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(n)]
        if n % 3 == 1:
            xs[0] = -0.0
        total = 0
        for x in xs:
            total = total + x
        got = left_sum(iter(xs))
        assert type(got) is type(total)
        assert float(got).hex() == float(total).hex()
    # 0 + -0.0 is 0.0, as in sum() up to Python 3.11
    assert math.copysign(1.0, left_sum([-0.0])) == 1.0
    assert left_sum([]) == 0 and type(left_sum([])) is int
    # not compensated: the 1.0 is lost, as it was in sum() up to 3.11
    assert left_sum([1e16, 1.0, -1e16]) == 0.0


def test_pose_dist():
    assert Pose2(0.0, 0.0).dist(Pose2(3.0, 4.0)) == pytest.approx(5.0)
    assert Pose2(1.0, 1.0).dist(Pose2(1.0, 1.0)) == 0.0


def test_rect_extents_and_containment():
    r = Rect(1.0, 2.0, 4.0, 6.0)
    assert r.width == pytest.approx(3.0)
    assert r.height == pytest.approx(4.0)
    assert r.contains_point(Pose2(1.0, 2.0))
    assert r.contains_point(Pose2(4.0, 6.0))
    assert not r.contains_point(Pose2(4.01, 6.0))
    assert r.contains_rect(Rect(1.0, 2.0, 4.0, 6.0))
    # tiny overhang within EPS still counts as contained
    assert r.contains_rect(Rect(1.0 - 1e-12, 2.0, 4.0, 6.0))
    assert not r.contains_rect(Rect(0.5, 2.0, 4.0, 6.0))


def test_rect_at_centering():
    r = rect_at(Pose2(2.0, 3.0), 1.0, 0.5)
    assert (r.xmin, r.ymin, r.xmax, r.ymax) == pytest.approx((1.5, 2.75, 2.5, 3.25))


def test_rects_overlap_strict_interior():
    a = Rect(0.0, 0.0, 1.0, 1.0)
    assert rects_overlap(a, Rect(0.5, 0.5, 1.5, 1.5))
    # flush edge contact is not overlap
    assert not rects_overlap(a, Rect(1.0, 0.0, 2.0, 1.0))
    assert not rects_overlap(a, Rect(0.0, 1.0, 1.0, 2.0))
    # corner touch is not overlap
    assert not rects_overlap(a, Rect(1.0, 1.0, 2.0, 2.0))
    assert not rects_overlap(a, Rect(2.0, 0.0, 3.0, 1.0))


def test_body_rect_area_min_side():
    b = Body("x", 2.0, 0.5, KIND_OBSTACLE, Pose2(1.0, 1.0))
    assert b.area == pytest.approx(1.0)
    assert b.min_side == pytest.approx(0.5)
    r = b.rect()
    assert (r.xmin, r.ymax) == pytest.approx((0.0, 1.25))


class TestSceneInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(SceneError):
            scene([robot(1, 1), obstacle("a", 3, 3), obstacle("a", 5, 5)])

    def test_exactly_one_robot(self):
        with pytest.raises(SceneError):
            scene([obstacle("a", 3, 3)])
        with pytest.raises(SceneError):
            bodies = [robot(1, 1), Body("r2", 0.4, 0.4, KIND_ROBOT, Pose2(5, 5))]
            scene(bodies)

    def test_positive_extents(self):
        with pytest.raises(SceneError):
            scene([robot(1, 1), Body("a", 0.0, 1.0, KIND_OBSTACLE, Pose2(3, 3))])

    def test_robot_must_be_square(self):
        with pytest.raises(SceneError, match="not square"):
            scene([Body("robot", 0.4, 0.5, KIND_ROBOT, Pose2(1, 1))])
        # other bodies may be any rectangle
        sc = scene([robot(1, 1), Body("a", 0.4, 0.5, KIND_OBSTACLE, Pose2(3, 3))])
        assert sc.robot.footprint == ((0.0, 0.0, 0.4, 0.4),)
        assert sc.body("a").footprint == ((0.0, 0.0, 0.4, 0.5),)

    def test_goal_only_on_goal_bodies(self):
        with pytest.raises(SceneError):
            scene([robot(1, 1), obstacle("a", 3, 3)], {"a": Pose2(5, 5)})
        # and never for unknown ids
        with pytest.raises(SceneError):
            scene([robot(1, 1)], {"ghost": Pose2(5, 5)})

    def test_lookup_and_errors(self, simple_scene):
        assert simple_scene.body("g1").kind == KIND_GOAL
        assert simple_scene.has_body("b1")
        assert not simple_scene.has_body("nope")
        with pytest.raises(SceneError):
            simple_scene.body("nope")
        assert simple_scene.goal_of("g1") == Pose2(8.0, 8.0)
        with pytest.raises(SceneError):
            simple_scene.goal_of("b1")

    def test_robot_accessor(self, simple_scene):
        assert simple_scene.robot.kind == KIND_ROBOT


def test_with_pose_is_functional(simple_scene):
    moved = simple_scene.with_pose("b1", Pose2(7.0, 7.0))
    assert moved.body("b1").pose == Pose2(7.0, 7.0)
    assert simple_scene.body("b1").pose == Pose2(6.0, 6.0)
    # goals carry over
    assert moved.goal_of("g1") == Pose2(8.0, 8.0)


def test_without_removes_and_protects_robot(simple_scene):
    reduced = simple_scene.without({"b1"})
    assert not reduced.has_body("b1")
    with pytest.raises(SceneError):
        simple_scene.without({simple_scene.robot.id})


def test_statics_only(walled_scene):
    s = walled_scene.statics_only()
    assert s.has_body("divider") and s.has_body("robot")
    assert not s.has_body("g1")
    kept = walled_scene.statics_only(keep="g1")
    assert kept.has_body("g1")


@pytest.mark.parametrize("name", [*bench.BUILTIN_SCENES, "m_block_8"])
def test_robot_is_the_robot_body_through_successors(name):
    sc = bench.make_scene(name)
    rid = sc.robot.id
    moved = Pose2(sc.robot.pose.x + 0.1, sc.robot.pose.y)
    obj = sc.movables[0]
    successors = [
        sc.with_pose(rid, moved),
        sc.with_pose(obj.id, Pose2(obj.pose.x, obj.pose.y + 0.1)),
        sc.without({obj.id}),
        sc.statics_only(),
        sc.statics_only(keep=obj.id),
    ]
    for s in [sc, *successors, successors[0].without({obj.id}).with_pose(rid, sc.robot.pose)]:
        assert s.robot is s.body(rid)
        assert [b for b in s.bodies if b.kind == KIND_ROBOT] == [s.robot]
    assert successors[0].robot.pose == moved
    assert successors[1].robot is sc.robot


def test_validate_reports_problems():
    ok = scene([robot(1, 1), obstacle("a", 5, 5)])
    assert ok.validate() == []
    # object poking outside the workspace
    bad = scene([robot(1, 1), obstacle("a", 9.9, 5)])
    assert any("a" in p for p in bad.validate())
    # overlapping non-robot bodies
    bad2 = scene([robot(1, 1), obstacle("a", 5, 5), obstacle("b", 5.3, 5.3)])
    assert bad2.validate()
    # goal outside the workspace
    bad3 = scene([robot(1, 1), goal_obj("g", 5, 5)], {"g": Pose2(9.95, 5.0)})
    assert bad3.validate()


def test_validate_reports_robot_overlap():
    # the robot centred inside a wall, or partly inside an obstacle
    inside = scene([robot(5, 5), wall("w", 5, 5, 2, 2)])
    assert inside.validate() == ["robot overlaps w"]
    partial = scene([robot(1, 1), obstacle("a", 1.4, 1.0)])
    assert partial.validate() == ["robot overlaps a"]
    # flush contact is not an overlap
    flush = scene([robot(1, 1), obstacle("a", 1.5, 1.0), wall("w", 0.6, 0.6, 0.8, 0.4)])
    assert flush.validate() == []


class TestCollides:
    def test_basic_hit_and_miss(self, simple_scene):
        assert collides(simple_scene, "robot", Pose2(6.0, 6.0))
        assert not collides(simple_scene, "robot", Pose2(4.5, 4.5))

    def test_ignore_set(self, simple_scene):
        # the queried body is the only one skipped
        b1 = simple_scene.body("b1")
        assert not collides(simple_scene, "b1", b1.pose)
        assert collides(simple_scene, "robot", b1.pose)

    def test_walls_cannot_be_ignored(self, walled_scene):
        pose = Pose2(5.0, 4.0)
        assert collides(walled_scene, "robot", pose)

    def test_outside_workspace_collides(self, empty_scene):
        assert collides(empty_scene, "robot", Pose2(-1.0, 5.0))
        assert collides(empty_scene, "robot", Pose2(0.1, 5.0))


def test_footprint_collides_parts(simple_scene):
    # footprint of robot holding an object to its east
    rs = simple_scene.robot.w
    parts = ((0.0, 0.0, rs, rs), (0.5, 0.0, 0.6, 0.6))
    ignore = frozenset({"robot"})
    assert footprint_collides(simple_scene, parts, Pose2(5.5, 6.0), ignore)
    assert not footprint_collides(simple_scene, parts, Pose2(4.0, 4.5), ignore)
    # unlike collides(), footprint ignore honors any id including walls
    assert not footprint_collides(
        simple_scene, parts, Pose2(5.5, 6.0), ignore | frozenset({"b1"})
    )


class TestSegmentHitsRect:
    R = Rect(2.0, 2.0, 4.0, 4.0)

    def test_crossing(self):
        assert segment_hits_rect(Pose2(0, 3), Pose2(6, 3), self.R)

    def test_miss(self):
        assert not segment_hits_rect(Pose2(0, 5), Pose2(6, 5), self.R)

    def test_contained(self):
        assert segment_hits_rect(Pose2(2.5, 2.5), Pose2(3.5, 3.5), self.R)

    def test_endpoint_inside(self):
        assert segment_hits_rect(Pose2(0, 0), Pose2(3, 3), self.R)

    def test_boundary_graze_is_not_a_hit(self):
        # sliding along an edge
        assert not segment_hits_rect(Pose2(0, 2.0), Pose2(6, 2.0), self.R)
        assert not segment_hits_rect(Pose2(4.0, 0), Pose2(4.0, 6), self.R)
        # grazing exactly one corner
        assert not segment_hits_rect(Pose2(2.0, 6.0), Pose2(6.0, 2.0), self.R)

    def test_degenerate_segment(self):
        assert segment_hits_rect(Pose2(3, 3), Pose2(3, 3), self.R)
        assert not segment_hits_rect(Pose2(5, 5), Pose2(5, 5), self.R)

    def test_random_against_sampling(self):
        # dense sampling agrees with the exact test away from tangencies
        rng = random.Random(7)
        rect = Rect(3.0, 3.0, 6.0, 5.0)
        for _ in range(300):
            a = Pose2(rng.uniform(0, 10), rng.uniform(0, 10))
            b = Pose2(rng.uniform(0, 10), rng.uniform(0, 10))
            exact = segment_hits_rect(a, b, rect)
            n = 400
            sampled = any(
                rect.xmin + 1e-7 < a.x + (b.x - a.x) * t / n < rect.xmax - 1e-7
                and rect.ymin + 1e-7 < a.y + (b.y - a.y) * t / n < rect.ymax - 1e-7
                for t in range(n + 1)
            )
            if sampled:
                assert exact
            if not exact:
                assert not sampled


class TestVerifyPlacements:
    def test_requires_positive_tol(self, simple_scene):
        with pytest.raises(ValueError):
            verify_placements(simple_scene, 0.0)

    def test_returns_objects_within_tolerance(self, simple_scene):
        at_goal = simple_scene.with_pose("g1", Pose2(8.05, 7.95))
        assert verify_placements(at_goal, 0.1) == {"g1"}
        assert verify_placements(at_goal, 0.01) == set()
        assert verify_placements(simple_scene, 0.1) == set()


def test_default_tolerance():
    s = scene([robot(1, 1), goal_obj("g", 5, 5, w=0.8, h=0.6)], {"g": Pose2(8, 8)})
    assert default_tolerance(s) == pytest.approx(0.15)
    lone = scene([robot(1, 1)])
    assert default_tolerance(lone) == pytest.approx(0.1)


class TestScenarioIO:
    def test_round_trip(self, tmp_path, walled_scene):
        p = tmp_path / "scene.json"
        scenario.save_scene(walled_scene, p)
        back = scenario.load_scene(p)
        assert back.workspace == walled_scene.workspace
        assert {b.id for b in back.bodies} == {b.id for b in walled_scene.bodies}
        for b in walled_scene.bodies:
            assert back.body(b.id).pose == b.pose
            assert back.body(b.id).kind == b.kind
        assert back.goals == walled_scene.goals
        assert "seed" not in json.loads(p.read_text())

    @pytest.mark.parametrize("name", [*bench.BUILTIN_SCENES, "m_block_8", "m_block_24"])
    def test_shipped_scenes_read_back_unchanged(self, name):
        text = scenario.scene_to_json(bench.make_scene(name, 3))
        assert scenario.scene_to_json(scenario.parse_scene(text)) == text

    def test_seed_field_rejected(self):
        # planning takes its seed from the config, so a scenario seed would
        # be silently ignored
        with pytest.raises(scenario.ScenarioError, match="seed"):
            scenario.parse_scene(_scenario_text().replace('"walls"', '"seed": 7, "walls"'))

    @pytest.mark.parametrize("old,new", [
        ('"x": 3', '"x": NaN'),
        ('"xmax": 10', '"xmax": Infinity'),
        ('"side": 0.4', '"side": -Infinity'),
        ('"y": 7', '"y": 1' + "0" * 400),
    ], ids=["nan", "infinity", "minus-infinity", "past-float-range"])
    def test_non_finite_numbers_rejected(self, old, new):
        with pytest.raises(scenario.ScenarioError, match="finite"):
            scenario.parse_scene(_scenario_text().replace(old, new, 1))

    @pytest.mark.parametrize("old,new,problem", [
        ('"x": 3', '"x": 9.8', "o1 outside workspace"),
        ('"walls": []', '"walls": [{"w": 1, "h": 1, "x": 3.5, "y": 3}]', "overlaps"),
        ('"y": 7', '"y": 9.9', "goal of o1 outside workspace"),
    ], ids=["body-outside", "overlap", "goal-outside"])
    def test_invalid_scene_rejected(self, old, new, problem):
        scenario.parse_scene(_scenario_text())
        with pytest.raises(scenario.ScenarioError, match=problem):
            scenario.parse_scene(_scenario_text().replace(old, new, 1))

    def test_missing_fields_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"workspace": {"xmin": 0, "ymin": 0, "xmax": 10}}')
        with pytest.raises(scenario.ScenarioError):
            scenario.load_scene(p)

    def test_unknown_fields_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(
            '{"workspace": {"xmin": 0, "ymin": 0, "xmax": 10, "ymax": 10},'
            ' "robot": {"side": 0.4, "x": 1, "y": 1}, "movables": [], "walls": [],'
            ' "frobnicate": 1}'
        )
        with pytest.raises(scenario.ScenarioError):
            scenario.load_scene(p)

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(scenario.ScenarioError):
            scenario.load_scene(p)

    def test_degenerate_workspace_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(
            '{"workspace": {"xmin": 0, "ymin": 0, "xmax": 0, "ymax": 10},'
            ' "robot": {"side": 0.4, "x": 1, "y": 1}, "movables": [], "walls": []}'
        )
        with pytest.raises(scenario.ScenarioError):
            scenario.load_scene(p)


def _scenario_text():
    """A valid scenario document: one goal object and the robot."""
    return (
        '{"workspace": {"xmin": 0, "ymin": 0, "xmax": 10, "ymax": 10}, "walls": [],'
        ' "movables": [{"id": "o1", "w": 1, "h": 1, "x": 3, "y": 3, "goal": {"x": 7, "y": 7}}],'
        ' "robot": {"side": 0.4, "x": 1, "y": 1}}'
    )
