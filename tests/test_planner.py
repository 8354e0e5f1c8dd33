import dataclasses
import inspect
import json
import math
import os
import re
import sys
from pathlib import Path as FilePath

import pytest

import rearrange2d
from rearrange2d import bench, cli, guided_search, motion, planner, scenario, sequencer
from rearrange2d.guided_search import RelocationSearchResult
from rearrange2d.grids import GridSpec
from rearrange2d.motion import InfeasibleLeg, MotionPlan, Path, PendingPlan, PickPlacePair
from rearrange2d.planner import (
    ConfigError,
    PlannerConfig,
    count_metrics,
    gen_motion_plan,
    plan_rearrangement,
    replay_plans,
    serialize_result,
)
from rearrange2d.world import Pose2, verify_placements

from conftest import goal_obj, obstacle, robot, scene, slot_scene, wall, wedged_scene


class TestPlannerConfig:
    def test_defaults(self):
        cfg = PlannerConfig()
        assert cfg.grid_n == 64
        assert cfg.lazy_rounds == 5
        assert cfg.time_limit == 120.0
        assert cfg.tol is None
        assert cfg.refine and not cfg.random_sequence

    def test_merged_rejects_unknown(self):
        with pytest.raises(ConfigError):
            PlannerConfig().merged({"frobnicate": 1})

    def test_merged_type_checks(self):
        cfg = PlannerConfig().merged({"time_limit": 30, "refine": False, "tol": None})
        assert cfg.time_limit == 30.0 and cfg.refine is False and cfg.tol is None
        with pytest.raises(ConfigError):
            PlannerConfig().merged({"refine": 1})
        with pytest.raises(ConfigError):
            PlannerConfig().merged({"grid_n": 3.5})
        with pytest.raises(ConfigError):
            PlannerConfig().merged({"time_limit": "fast"})

    def test_layering_order(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text('{"time_limit": 10, "cycle_cap": 9}')
        cfg = PlannerConfig.from_layers(
            file=str(f), env={"REARRANGE2D_TIME_LIMIT": "15"}, cli={"time_limit": 20}
        )
        assert cfg.time_limit == 20.0
        assert cfg.cycle_cap == 9
        cfg2 = PlannerConfig.from_layers(file=str(f), env={"REARRANGE2D_TIME_LIMIT": "15"})
        assert cfg2.time_limit == 15.0
        cfg3 = PlannerConfig.from_layers(file=str(f), env={})
        assert cfg3.time_limit == 10.0

    def test_env_parsing(self):
        cfg = PlannerConfig.from_layers(
            env={
                "REARRANGE2D_REFINE": "off",
                "REARRANGE2D_RANDOM_SEQUENCE": "1",
                "REARRANGE2D_TOL": "none",
                "REARRANGE2D_SEED": "12",
                "PATH": "/usr/bin",
            }
        )
        assert cfg.refine is False
        assert cfg.random_sequence is True
        assert cfg.tol is None
        assert cfg.seed == 12

    def test_env_errors(self):
        with pytest.raises(ConfigError):
            PlannerConfig.from_layers(env={"REARRANGE2D_NOPE": "1"})
        with pytest.raises(ConfigError):
            PlannerConfig.from_layers(env={"REARRANGE2D_REFINE": "maybe"})
        with pytest.raises(ConfigError):
            PlannerConfig.from_layers(env={"REARRANGE2D_SEED": "1.5"})

    def test_bad_file(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text("{broken")
        with pytest.raises(ConfigError):
            PlannerConfig.from_layers(file=str(f))
        f.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            PlannerConfig.from_layers(file=str(f))


# (key, values out of range, a value in range)
RANGE_RULES = [
    ("grid_n", (0, -3), 1),
    ("tol", (0.0, -1.0), 1e-3),
    ("time_limit", (math.nan,), 0.0),
    ("rrt_max_iters", (-1,), 0),
    ("lazy_rounds", (-2,), 0),
    ("cycle_cap", (-5,), 0),
]


@pytest.mark.parametrize("key,bad,good", RANGE_RULES, ids=[r[0] for r in RANGE_RULES])
def test_out_of_range_value_is_a_config_error(key, bad, good, tmp_path, capsys):
    path = tmp_path / "scene.json"
    scenario.save_scene(bench.make_scene("four_blocks"), path)
    for v in bad:
        with pytest.raises(ConfigError, match=key):
            PlannerConfig(**{key: v})
        with pytest.raises(ConfigError, match=key):
            PlannerConfig().merged({key: v})
        with pytest.raises(ConfigError, match=key):
            PlannerConfig.from_layers(env={f"REARRANGE2D_{key.upper()}": str(v)})
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({key: v}))
        with pytest.raises(ConfigError, match=key):
            PlannerConfig.from_layers(file=str(f), env={})
        # before the rule these ended in a traceback (exit 1), and for a
        # NaN time_limit in a run with no time limit; kappa and delta_min,
        # whose zero values once made a subgoal loop that never ended, are
        # constants now, so that run can no longer be configured
        assert cli.main(["plan", str(path), "--set", f"{key}={v}"]) == 2
        assert key in capsys.readouterr().err
    assert getattr(PlannerConfig(**{key: good}), key) == good


# (key, string, value) as the environment and --set must both read it
STRINGS = [
    ("refine", "yes", True),
    ("refine", "OFF", False),
    ("refine", "1", True),
    ("random_sequence", "true", True),
    ("tol", "none", None),
    ("tol", "null", None),
    ("tol", " 0.25 ", 0.25),
    ("grid_n", "32", 32),
    ("time_limit", "30", 30.0),
    ("seed", "7", 7),
]
BAD_STRINGS = [("refine", "maybe"), ("seed", "1.5"), ("grid_n", "32.0"), ("time_limit", "fast"), ("tol", "[]")]


def _set_config(key, raw):
    args = cli.build_parser().parse_args(["plan", "scene.json", "--set", f"{key}={raw}"])
    return cli._build_config(args)


@pytest.mark.parametrize("key,raw,value", STRINGS)
def test_string_layers_read_alike(monkeypatch, key, raw, value):
    # --set sits on top of the real environment; keep it out of the comparison
    for name in [k for k in os.environ if k.startswith("REARRANGE2D_")]:
        monkeypatch.delenv(name)
    from_env = PlannerConfig.from_layers(env={f"REARRANGE2D_{key.upper()}": raw})
    from_set = _set_config(key, raw)
    assert from_env == from_set
    assert getattr(from_set, key) == value


@pytest.mark.parametrize("key,raw", BAD_STRINGS)
def test_string_layers_reject_alike(key, raw):
    with pytest.raises(ConfigError, match=key):
        PlannerConfig.from_layers(env={f"REARRANGE2D_{key.upper()}": raw})
    with pytest.raises(ConfigError, match=key):
        _set_config(key, raw)


def test_kinds_follow_the_annotations():
    kinds = {f.name: f.type for f in dataclasses.fields(PlannerConfig)}
    assert set(kinds.values()) == {"int", "float", "bool", "float | None"}
    assert {k for k, t in kinds.items() if t == "float | None"} == {"tol"}
    # every key reads its own default back from a string
    default = PlannerConfig()
    raw = {k: "none" if getattr(default, k) is None else str(getattr(default, k)) for k in kinds}
    got = planner.parse_overrides((k, v, "test") for k, v in raw.items())
    assert got == dataclasses.asdict(default)
    assert all(type(got[k]) is type(getattr(default, k)) for k in kinds)


REMOVED_KEYS = (
    "alpha_m",
    "beta_m",
    "alpha_r",
    "beta_r",
    "rrt_step",
    "rrt_goal_bias",
    "rrt_shortcut_attempts",
    "literal_exploration",
    "euclidean_only",
    "static_sequence",
    "delta_max",
    "relocation_iteration_limit",
    "stall_limit",
    "iter_max_offset",
    "kappa",
    "delta_min",
    "epsilon",
    "c0",
    "k_max",
    "beam_width",
    "clearance_min",
    "alt_crit_limit",
    "cardinality_cap",
    "skip_max_divisor",
)


class TestConfigLiveness:
    def test_every_field_is_read(self):
        src = FilePath(rearrange2d.__file__).parent
        read = set()
        for f in src.glob("*.py"):
            read.update(re.findall(r"\bcfg\.(\w+)", f.read_text(encoding="utf-8")))
        names = [f.name for f in dataclasses.fields(PlannerConfig)]
        assert len(names) == 10
        assert [n for n in names if n not in read] == []

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_is_unknown(self, key, tmp_path, capsys):
        with pytest.raises(ConfigError, match="unknown config key"):
            PlannerConfig().merged({key: 1})
        with pytest.raises(ConfigError, match="unknown config key"):
            PlannerConfig.from_layers(env={f"REARRANGE2D_{key.upper()}": "1"})
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({key: 1}))
        with pytest.raises(ConfigError, match="unknown config key"):
            PlannerConfig.from_layers(file=str(f), env={})
        path = tmp_path / "scene.json"
        scenario.save_scene(bench.make_scene("four_blocks"), path)
        assert cli.main(["plan", str(path), "--set", f"{key}=1"]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_every_birrt_call_gets_rrt_max_iters(monkeypatch):
    # every caller looks birrt up on the motion module at call time, so the
    # spy sees them all; it records the calling function and max_iters
    orig = motion.birrt
    sig = inspect.signature(orig)
    calls = []

    def spy(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((sys._getframe(1).f_code.co_name, bound.arguments["max_iters"]))
        return orig(*args, **kwargs)

    monkeypatch.setattr(motion, "birrt", spy)
    plan_rearrangement(_pocket_scene(), PlannerConfig(seed=1, rrt_max_iters=4999))
    assert "pick_task" in {caller for caller, _ in calls}
    assert {iters for _, iters in calls} == {4999}


def _toy_plan():
    pick = Path((Pose2(0, 0), Pose2(3, 4)))
    place = Path((Pose2(3, 4), Pose2(3, 10)))
    pair = PickPlacePair(pick, place, (Pose2(3, 4.5), Pose2(3, 10.5)), "S", (0.0, -0.5))
    return MotionPlan("x", (pair,))


def test_count_metrics():
    plan = _toy_plan()
    m = count_metrics([plan, plan], failures=2, regenerations=1)
    assert m.pnp == 2
    assert m.replanning == 3
    assert m.travel_distance == pytest.approx(2 * (5.0 + 6.0))
    assert m.wall_time == 0.0


def _compensated_sum(values, start=0):
    """sum() as Python 3.12 and later add floats: Neumaier-compensated."""
    it = iter(values)
    total = start
    for v in it:
        total = total + v
        if isinstance(total, float):
            break
    else:
        return total
    c = 0.0
    for x in it:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


# desk results whose travel distance changes in its last bits when the
# planner's float totals are compensated sums
@pytest.mark.parametrize("name,seed", [("four_blocks", 1), ("narrow_room", 2), ("triple_swap", 1), ("m_block_8", 1)])
def test_results_do_not_depend_on_the_python_sum(monkeypatch, name, seed):
    def run():
        res = plan_rearrangement(bench.make_scene(name, seed), PlannerConfig(seed=seed))
        return json.dumps(serialize_result(res), sort_keys=True)

    want = run()
    for mod in (motion, planner, sequencer):
        monkeypatch.setattr(mod, "sum", _compensated_sum, raising=False)
    assert run() == want


class TestGenMotionPlan:
    def test_direct_transport(self):
        sc = scene(
            [robot(1, 1), goal_obj("g1", 3, 3), obstacle("b1", 6, 2)],
            {"g1": Pose2(8.0, 8.0)},
        )
        out = gen_motion_plan(sc, "g1", PlannerConfig(), seed=0, spec=GridSpec.from_scene(sc))
        assert out.success
        assert out.scene.body("g1").pose == Pose2(8.0, 8.0)
        assert [p.purpose for p in out.plans] == ["goal"]
        assert all(p.object_id == "g1" for p in out.plans)

    def test_relocation_inserted(self):
        sc = scene(
            [
                robot(2.0, 5.0),
                wall("wn", 5.0, 7.9, 0.4, 4.2),
                wall("ws", 5.0, 2.1, 0.4, 4.2),
                goal_obj("g1", 3.0, 5.0),
                obstacle("b1", 5.0, 5.0),
            ],
            {"g1": Pose2(8.0, 5.0)},
        )
        out = gen_motion_plan(sc, "g1", PlannerConfig(), seed=0, spec=GridSpec.from_scene(sc))
        assert out.success
        assert "b1" in [p.object_id for p in out.plans if p.purpose == "relocation"]
        assert out.plans[-1].object_id == "g1"
        assert out.plans[0].purpose == "relocation"
        assert out.scene.body("g1").pose == Pose2(8.0, 5.0)

    def test_no_route(self):
        sc = scene(
            [robot(1, 5), goal_obj("g1", 3, 5), wall("bar", 6, 5, 0.4, 10.0)],
            {"g1": Pose2(8, 5)},
        )
        out = gen_motion_plan(sc, "g1", PlannerConfig(), seed=0, spec=GridSpec.from_scene(sc))
        assert not out.success
        assert out.reason == "no route past the walls"
        assert out.search_reason is None

    def test_a_loop_that_never_clears_its_leg_keeps_the_search_reason(self, monkeypatch):
        # every search succeeds without moving anything, so the leg fails
        # again until the loop guard ends the attempt
        sc = _gap_scene()
        monkeypatch.setattr(planner, "search_relocations", lambda scene, *a, **k: RelocationSearchResult(True, scene))
        out = gen_motion_plan(sc, "g1", PlannerConfig(), seed=0, spec=GridSpec.from_scene(sc))
        assert (out.success, out.reason, out.search_reason) == (False, "relocation loop guard", "succeeded")


def _served_searches(monkeypatch):
    """Spy on gen_motion_plan's relocation searches: the returned list
    gets each search's task and result, in call order."""
    inner = planner.search_relocations
    log = []

    def spy(scene, task, *args, **kwargs):
        res = inner(scene, task, *args, **kwargs)
        log.append((task, res))
        return res

    monkeypatch.setattr(planner, "search_relocations", spy)
    return log


def _leg_failure(sc, object_id):
    """The InfeasibleLeg of object_id's first goal attempt in sc."""
    spec = GridSpec.from_scene(sc)
    mu = motion.plan_object_path(sc, object_id, sc.goal_of(object_id), 0, spec=spec)
    subgoals = motion.select_subgoals(mu, sc, object_id=object_id, spec=spec)
    with pytest.raises(InfeasibleLeg) as ei:
        motion.plan_pick_place(sc, object_id, subgoals, spec=spec)
    return ei.value


def _west_edge_scene():
    """g1 lies against the west edge, so its W grasp is outside the
    workspace, and its first leg must pass a gap in a wall that b1 blocks:
    N, E and S fail on their place routes, and W, tried last, on its grasp."""
    return scene(
        [
            robot(0.6, 8.5),
            wall("wn", 1.5, 7.9, 0.4, 4.2),
            wall("ws", 1.5, 2.1, 0.4, 4.2),
            goal_obj("g1", 0.35, 5.0),
            obstacle("b1", 1.5, 5.0),
        ],
        {"g1": Pose2(8.0, 5.0)},
    )


def _pocket_scene(door=obstacle):
    """The robot stands in a pocket whose one opening the door seals, and
    g1 and its goal lie out in the open: every side fails on its pick
    route and none on its place route.  door makes the door's body."""
    return scene(
        [
            robot(1.0, 5.0),
            wall("pn", 1.25, 5.9, 2.5, 0.4),
            wall("ps", 1.25, 4.1, 2.5, 0.4),
            door("door", 2.8, 5.0, 0.6, 1.4),
            goal_obj("g1", 6.0, 2.0),
        ],
        {"g1": Pose2(8.0, 8.0)},
    )


def _boxed_in_scene():
    """A movable covers each of g1's four grasp poses: every side fails on
    its grasp."""
    return scene(
        [
            robot(1.0, 1.0),
            goal_obj("g1", 5.0, 5.0),
            obstacle("n", 5.0, 5.75),
            obstacle("s", 5.0, 4.25),
            obstacle("e", 5.75, 5.0),
            obstacle("w", 4.25, 5.0),
        ],
        {"g1": Pose2(8.0, 8.0)},
    )


class TestServedLegFailure:
    """gen_motion_plan serves the place task when a side failed on its
    place route, then a pick task per side that failed on its pick route,
    and serves the first whose search chose a critical subset."""

    def test_a_place_failure_is_served_before_a_last_side_grasp(self, monkeypatch):
        sc = _west_edge_scene()
        e = _leg_failure(sc, "g1")
        assert [(part, side) for part, side, _, _ in e.tried] == [
            ("place", "N"), ("place", "E"), ("place", "S"), ("grasp", "W"),
        ]
        # W's grasp pose puts the robot's footprint (side 0.4) past the edge
        assert e.tried[-1][3].x - 0.2 < sc.workspace.xmin
        searches = _served_searches(monkeypatch)
        out = gen_motion_plan(sc, "g1", PlannerConfig(), seed=0, spec=GridSpec.from_scene(sc))
        assert [(task.kind, res.trace.get("initial_crit")) for task, res in searches] == [("place", ["b1"])]
        assert out.success
        assert [(p.object_id, p.purpose) for p in out.plans] == [("b1", "relocation"), ("g1", "goal")]
        assert out.scene.body("b1").pose != sc.body("b1").pose

    def test_pick_failures_alone_serve_a_pick_task(self, monkeypatch):
        sc = _pocket_scene()
        e = _leg_failure(sc, "g1")
        assert {part for part, _, _, _ in e.tried} == {"pick"}
        assert len(e.tried) == 4
        searches = _served_searches(monkeypatch)
        out = gen_motion_plan(sc, "g1", PlannerConfig(), seed=0, spec=GridSpec.from_scene(sc))
        ((task, res),) = searches
        assert (task.kind, task.waypoints[-1]) == ("pick", e.tried[0][3])
        assert res.trace["initial_crit"] == ["door"]
        assert out.success
        assert [(p.object_id, p.purpose) for p in out.plans] == [("door", "relocation"), ("g1", "goal")]

    @pytest.mark.parametrize("make,parts,searched", [
        # no side failed on a route, so there is nothing to search: the
        # movables on the grasps go unserved, though moving one would
        # free its side
        (_boxed_in_scene, {"grasp"}, 0),
        # a wall for a door: each pick task's search finds it blocked by statics
        (lambda: _pocket_scene(wall), {"pick"}, 4),
    ])
    def test_no_search_to_serve_ends_the_attempt(self, monkeypatch, make, parts, searched):
        sc = make()
        assert {part for part, _, _, _ in _leg_failure(sc, "g1").tried} == parts
        searches = _served_searches(monkeypatch)
        out = gen_motion_plan(sc, "g1", PlannerConfig(), seed=0, spec=GridSpec.from_scene(sc))
        assert len(searches) == searched
        assert not any("initial_crit" in res.trace for _, res in searches)
        assert (out.success, out.plans, out.failures) == (False, (), 1)
        assert (out.reason, out.search_reason) == ("no relocation serves the leg", None)


def goal_attempt(call):
    """A plan_pick_place call's outcome: the plan and the scene it leaves,
    or the InfeasibleLeg it raises, as comparable values."""
    try:
        plan, after = call()
    except InfeasibleLeg as e:
        return ("infeasible", e.object_id, e.leg, e.tried)
    if isinstance(plan, PendingPlan):
        try:
            plan = plan.resolve()
        except RuntimeError:
            return ("unresolved",)
    return (plan, after)


# the desk and relocation suites, and m_block_16
GOAL_ATTEMPTS = ["four_blocks", "narrow_room", "swap_pocket", "triple_swap", "m_block_2", "m_block_4",
                 "m_block_8", "doorway", "nested_blockers", "m_block_16"]


@pytest.mark.parametrize("name", GOAL_ATTEMPTS)
def test_deferred_goal_attempts_match_the_eager_ones(monkeypatch, name):
    # every goal attempt planning makes at seeds 0-9, replanned with defer,
    # then resolved, and without: the same plan, or the same InfeasibleLeg
    inner = motion.plan_pick_place
    attempts = []

    def record(*args, defer=False, **kwargs):
        if kwargs.get("purpose", "goal") == "goal" and defer:
            attempts.append((args, kwargs))
        return inner(*args, defer=defer, **kwargs)

    monkeypatch.setattr(motion, "plan_pick_place", record)
    for seed in range(10):
        plan_rearrangement(bench.make_scene(name, seed), PlannerConfig(seed=seed))
    monkeypatch.undo()
    assert attempts
    infeasible = 0
    for args, kwargs in attempts:
        got = goal_attempt(lambda: inner(*args, defer=True, **kwargs))
        assert got == goal_attempt(lambda: inner(*args, **kwargs))
        infeasible += got[0] == "infeasible"
    if name in ("nested_blockers", "m_block_16"):
        assert infeasible


def test_a_goal_attempt_that_fails_to_resolve_is_planned_eagerly(monkeypatch):
    # from the narrow slot the goal attempt's pick passes birrt's prechecks
    # and is deferred, and finds no path once planned: the attempt is
    # planned again without defer, at the same seed, and gen_motion_plan
    # gives what it gives when nothing is deferred
    sc = slot_scene([goal_obj("g1", 6.0, 4.0)], {"g1": Pose2(6.0, 6.0)})
    cfg = PlannerConfig(rrt_max_iters=300)
    inner = motion.plan_pick_place
    calls = []

    def record(*args, defer=False, **kwargs):
        if kwargs.get("purpose", "goal") == "goal":
            calls.append((defer, kwargs["seed"]))
        return inner(*args, defer=defer, **kwargs)

    monkeypatch.setattr(motion, "plan_pick_place", record)
    got = gen_motion_plan(sc, "g1", cfg, 0, GridSpec.from_scene(sc))
    assert calls[:2] == [(True, calls[0][1]), (False, calls[0][1])]
    monkeypatch.setattr(motion, "plan_pick_place", lambda *a, defer=False, **k: inner(*a, **k))
    want = gen_motion_plan(sc, "g1", cfg, 0, GridSpec.from_scene(sc))
    assert got == want
    assert not got.success and got.failures


def test_subgoals_and_place_task_are_made_once_per_object_attempt(monkeypatch):
    # on the desk suite at seeds 0-9, one select_subgoals call per
    # gen_motion_plan call that has a route, and at most one place task,
    # however many relocation retries the call makes; m_block_16@1 has a
    # call whose place search runs three times
    frames, active = [], []
    inner_gen, inner_route = planner.gen_motion_plan, motion.plan_object_path
    inner_select, inner_place = motion.select_subgoals, planner.place_task

    def gen(*args, **kwargs):
        frame = {"routes": [], "selected": 0, "places": 0}
        frames.append(frame)
        active.append(frame)
        try:
            frame["outcome"] = inner_gen(*args, **kwargs)
        finally:
            active.pop()
        return frame["outcome"]

    def route(*args, **kwargs):
        out = inner_route(*args, **kwargs)
        if active:
            active[-1]["routes"].append(out)
        return out

    def select(*args, **kwargs):
        active[-1]["selected"] += 1
        return inner_select(*args, **kwargs)

    def place(*args, **kwargs):
        active[-1]["places"] += 1
        return inner_place(*args, **kwargs)

    monkeypatch.setattr(planner, "gen_motion_plan", gen)
    monkeypatch.setattr(motion, "plan_object_path", route)
    monkeypatch.setattr(motion, "select_subgoals", select)
    monkeypatch.setattr(planner, "place_task", place)
    runs = [(name, seed) for name in bench.SUITES["desk"] for seed in range(10)] + [("m_block_16", 1)]
    for name, seed in runs:
        plan_rearrangement(bench.make_scene(name, seed), PlannerConfig(seed=seed))
    monkeypatch.undo()
    assert frames
    for f in frames:
        assert f["selected"] == (f["routes"][0] is not None)
        assert f["places"] <= 1
    # calls that retried after a relocation search, and so would select
    # their subgoals again
    assert any(f["outcome"].failures and len(f["outcome"].plans) > 1 for f in frames)


def _gap_scene():
    """g1 must pass a one-object gap in a wall that b1 blocks."""
    return scene(
        [
            robot(2.0, 5.0),
            wall("wn", 5.0, 7.9, 0.4, 4.2),
            wall("ws", 5.0, 2.1, 0.4, 4.2),
            goal_obj("g1", 3.0, 5.0),
            obstacle("b1", 5.0, 5.0),
        ],
        {"g1": Pose2(8.0, 5.0)},
    )


class FakeClock:
    """Stands in for the time module: monotonic() reads now, which tests set."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    c = FakeClock()
    monkeypatch.setattr(planner, "time", c)
    monkeypatch.setattr(guided_search, "time", c)
    monkeypatch.setattr(sequencer, "time", c)
    return c


def _failing_relocations(monkeypatch, clock, step):
    """Every relocation plan fails and moves the clock on by step; returns
    the list of attempted targets."""
    tried = []

    def plan_relocation(scene, object_id, target, seed, **kwargs):
        tried.append(target)
        clock.now += step
        return None

    monkeypatch.setattr(guided_search, "plan_relocation", plan_relocation)
    return tried


class TestDeadline:
    def _search(self, deadline):
        sc = _gap_scene()
        spec = GridSpec.from_scene(sc)
        task = guided_search.place_task(sc, "g1", (Pose2(3, 5), Pose2(8, 5)), spec)
        return guided_search.search_relocations(sc, task, seed=0, spec=spec, deadline=deadline)

    def test_search_stops_at_deadline(self, monkeypatch, clock):
        tried = _failing_relocations(monkeypatch, clock, 1.0)
        res = self._search(deadline=0.5)
        assert not res.success
        assert res.reason == "timeout"
        assert res.iterations == 1
        first_iteration = len(tried)
        assert first_iteration >= 1
        # without a deadline the same search runs on to its iteration limit
        res = self._search(deadline=None)
        assert res.reason == "iteration limit"
        assert len(tried) - first_iteration > first_iteration

    def test_no_iteration_after_the_deadline(self, monkeypatch, clock):
        tried = _failing_relocations(monkeypatch, clock, 1.0)
        clock.now = 1.0
        res = self._search(deadline=0.5)
        assert res.reason == "timeout"
        assert res.iterations == 0
        assert tried == []

    def test_retry_loop_stops_at_deadline(self, monkeypatch, clock):
        sc = _gap_scene()
        searches = []

        def search(scene, task, skip_count=0, **kwargs):
            searches.append(skip_count)
            clock.now += 1.0
            return RelocationSearchResult(False, scene, reason="iteration limit")

        monkeypatch.setattr(planner, "search_relocations", search)
        cfg = PlannerConfig()
        out = gen_motion_plan(sc, "g1", cfg, seed=0, spec=GridSpec.from_scene(sc), deadline=0.5)
        assert (out.reason, out.search_reason) == ("timeout", "iteration limit")
        assert searches == [0]
        # without a deadline every alternative critical subset is tried
        searches.clear()
        out = gen_motion_plan(sc, "g1", cfg, seed=0, spec=GridSpec.from_scene(sc))
        assert (out.reason, out.search_reason) == ("relocation search exhausted", "iteration limit")
        assert searches == list(range(planner.ALT_CRIT_LIMIT))

    def test_plan_returns_timeout_mid_search(self, monkeypatch, clock):
        tried = _failing_relocations(monkeypatch, clock, 200.0)
        res = plan_rearrangement(_gap_scene(), PlannerConfig(time_limit=120.0))
        assert res.status == "timeout"
        assert res.reason == "timeout in pass 1, in g1's relocation search"
        # the first failed relocation plan passes the deadline, so the search
        # ends with its first iteration and nothing is retried after it
        assert 1 <= len(tried) <= guided_search.K_MAX

    def _ticking(self, monkeypatch, clock, module, name):
        """module.name moves the clock on by 1.0 per call; returns the
        list of calls."""
        calls = []
        inner = getattr(module, name)

        def tick(*args, **kwargs):
            calls.append(args)
            clock.now += 1.0
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, tick)
        return calls

    def test_dependency_graph_stops_between_routes(self, monkeypatch, clock):
        sc = _three_goal_scene()
        spec = GridSpec.from_scene(sc)
        routes = self._ticking(monkeypatch, clock, motion, "plan_object_path")
        with pytest.raises(sequencer.SequenceTimeout):
            sequencer.build_dependency_graph(sc, unplaced=sorted(sc.goals), tol=0.1, spec=spec, deadline=0.5)
        assert len(routes) == 1
        graph = sequencer.build_dependency_graph(sc, unplaced=sorted(sc.goals), tol=0.1, spec=spec)
        assert len(routes) == 1 + len(sc.goals) and graph.vertices == tuple(sorted(sc.goals))

    def test_break_cycles_stops_between_enumerations(self, monkeypatch, clock):
        # two separate 2-cycles: three enumerations without a deadline
        E = sequencer.Edge
        graph = sequencer.DependencyGraph(
            ("a", "b", "c", "d"),
            (E("a", "b", "weak"), E("b", "a", "weak"), E("c", "d", "weak"), E("d", "c", "weak")),
        )
        enumerations = self._ticking(monkeypatch, clock, sequencer, "_pair_counts")
        with pytest.raises(sequencer.SequenceTimeout):
            sequencer.break_cycles(graph, deadline=0.5)
        assert len(enumerations) == 1
        assert len(sequencer.break_cycles(graph).removed) == 2
        assert len(enumerations) == 4
        with pytest.raises(sequencer.SequenceTimeout):
            sequencer.break_cycles(graph, greedy=True, deadline=clock.now - 1.0)
        assert len(enumerations) == 4

    def test_lazy_refine_stops_between_legs(self, monkeypatch, clock):
        sc = _three_goal_scene()
        spec = GridSpec.from_scene(sc)
        legs = self._ticking(monkeypatch, clock, motion, "birrt")

        def refine(deadline):
            costs = sequencer.CostMatrix.euclidean(sc, sorted(sc.goals))
            return sequencer.lazy_refine(
                costs, sc, 0, spec=spec, caches=sequencer.SequencerCaches(), deadline=deadline,
            )

        with pytest.raises(sequencer.SequenceTimeout):
            refine(0.5)
        assert len(legs) == 1
        seq, _ = refine(None)
        assert len(legs) > 2 and sorted(seq.order) == sorted(sc.goals)

    def test_plan_times_out_inside_sequencing(self, monkeypatch, clock):
        routes = self._ticking(monkeypatch, clock, motion, "plan_object_path")
        res = plan_rearrangement(_three_goal_scene(), PlannerConfig(time_limit=0.5))
        assert res.status == "timeout"
        assert res.reason == "timeout while making the first sequence"
        assert res.plans == () and res.sequence == ()
        assert len(routes) == 1

    def test_regeneration_times_out_inside_sequencing(self, monkeypatch, clock):
        # swap_pocket@0 relocates a goal object in its first pass, which
        # makes a new sequence; the deadline passes just before it
        sc = bench.make_scene("swap_pocket", 0)
        full = plan_rearrangement(sc, PlannerConfig(seed=0))
        assert full.status == "success" and full.regenerations == 1
        inner = sequencer.build_dependency_graph
        graphs = []

        def graph(*args, **kwargs):
            graphs.append(kwargs["deadline"])
            if len(graphs) == 2:
                clock.now = kwargs["deadline"] + 1.0
            return inner(*args, **kwargs)

        monkeypatch.setattr(sequencer, "build_dependency_graph", graph)
        res = plan_rearrangement(sc, PlannerConfig(seed=0))
        assert res.status == "timeout" and graphs == [120.0, 120.0]
        assert res.reason == "timeout while regenerating the sequence (1)"
        # the plans and sequence of the pass before the regeneration
        assert res.regenerations == 1
        assert res.plans and res.plans == full.plans[: len(res.plans)] and len(res.plans) < len(full.plans)
        assert res.sequence

    def test_an_unexpired_deadline_changes_nothing(self, clock):
        sc = _three_goal_scene()
        got = plan_rearrangement(sc, PlannerConfig(seed=0))
        want = plan_rearrangement(sc, PlannerConfig(seed=0, time_limit=math.inf))
        assert got.status == "success"
        assert serialize_result(got) == serialize_result(want)


def _three_goal_scene():
    """Three goal objects whose routes cross each other's goals."""
    return scene(
        [robot(1, 1), goal_obj("a", 3, 3), goal_obj("b", 3, 7), goal_obj("c", 5, 5)],
        {"a": Pose2(8, 7), "b": Pose2(8, 3), "c": Pose2(8, 5)},
    )


class TestPlanRearrangement:
    def test_success_simple(self, simple_scene):
        res = plan_rearrangement(simple_scene)
        assert res.status == "success"
        assert res.reason is None
        assert res.sequence == ("g1",)
        assert res.metrics.pnp >= 1
        assert verify_placements(res.scene, 0.15) == {"g1"}
        bad, _ = replay_plans(simple_scene, res.plans)
        assert bad == []

    def test_multi_object(self):
        sc = scene(
            [robot(1, 1), goal_obj("a", 3, 3), goal_obj("b", 3, 7)],
            {"a": Pose2(8, 3), "b": Pose2(8, 7)},
        )
        res = plan_rearrangement(sc)
        assert res.status == "success"
        assert sorted(res.sequence) == ["a", "b"]
        assert verify_placements(res.scene, 0.15) == {"a", "b"}

    def test_wedged_robot_plans_a_path_out(self):
        sc = wedged_scene()
        res = plan_rearrangement(sc)
        assert res.status == "success"
        assert verify_placements(res.scene, 0.15) == {"g1"}
        bad, _ = replay_plans(sc, res.plans)
        assert bad == []

    def test_infeasible(self):
        sc = scene(
            [robot(1, 5), goal_obj("g1", 3, 5), wall("bar", 6, 5, 0.4, 10.0)],
            {"g1": Pose2(8, 5)},
        )
        res = plan_rearrangement(sc)
        assert res.status == "infeasible"
        assert res.reason == "g1 has no route to its goal past the walls"

    def test_timeout(self, simple_scene):
        res = plan_rearrangement(simple_scene, PlannerConfig(time_limit=0.0))
        assert res.status == "timeout"
        assert res.reason.startswith("timeout ")

    def test_exhausted_run_names_its_failing_object(self):
        # m_block_24@10: o13's place task has no colliders and passes its
        # check before any move, yet its leg fails on every side, so each
        # attempt serves a search that moves nothing until the loop guard
        sc = bench.make_scene("m_block_24", 10)
        res = plan_rearrangement(sc, PlannerConfig(seed=10))
        assert res.status == "iter-exhausted"
        assert res.reason == (
            "o13: relocation loop guard (last relocation search: succeeded); unplaced after 25 passes: o13"
        )

    def test_exhausted_run_without_a_failed_attempt_names_the_unplaced(self, monkeypatch):
        # every attempt reports success but leaves its object where it was
        monkeypatch.setattr(
            planner, "gen_motion_plan", lambda scene, *a, **k: planner.GenPlanOutcome(True, (), scene),
        )
        res = plan_rearrangement(_three_goal_scene())
        assert res.status == "iter-exhausted"
        assert res.reason == "unplaced after 4 passes: a, b, c"

    @pytest.mark.parametrize("limit,status", [(-1.0, "timeout"), (math.inf, "success")])
    def test_time_limit_keeps_negative_and_inf(self, simple_scene, limit, status):
        res = plan_rearrangement(simple_scene, PlannerConfig(time_limit=limit))
        assert res.status == status

    @pytest.mark.parametrize("flag", ["random_sequence"])
    def test_sequencer_variants_still_solve(self, flag):
        sc = scene(
            [robot(1, 1), goal_obj("a", 3, 3), goal_obj("b", 3, 7)],
            {"a": Pose2(8, 3), "b": Pose2(8, 7)},
        )
        res = plan_rearrangement(sc, PlannerConfig(**{flag: True}))
        assert res.status == "success"
        assert verify_placements(res.scene, 0.15) == {"a", "b"}


def _eight_goal_scene():
    """Eight goal objects, so skip_max is 2 and iter_max 9, and one obstacle."""
    bodies = [robot(1, 1), obstacle("b", 9, 9)] + [goal_obj(f"g{i}", 2 + i, 3) for i in range(8)]
    return scene(bodies, {f"g{i}": Pose2(2 + i, 7) for i in range(8)})


class TestRegenerationRule:
    """The pass loop under scripted gen_motion_plan outcomes.  script(k, oid)
    says how oid's attempt in pass k ends: "fail", "ok", "goal" (ok after
    relocating another goal object) or "obstacle" (ok after relocating the
    obstacle).  Nothing is ever placed, so every pass plans all eight
    objects and each run ends iter-exhausted."""

    def run(self, monkeypatch, script):
        """The result, the passes completed whenever a sequence was made,
        and the failed attempts."""
        calls, made, failed = {}, [], []

        def gen(cur, oid, *args):
            calls[oid] = k = calls.get(oid, 0) + 1
            what = script(k, oid)
            if what == "fail":
                failed.append((k, oid))
                return planner.GenPlanOutcome(False, (), cur, failures=1, reason="scripted")
            plans = (MotionPlan(oid, ()),)
            if what != "ok":
                moved = "b" if what == "obstacle" else "g1" if oid == "g0" else "g0"
                plans = (MotionPlan(moved, (), "relocation"),) + plans
            return planner.GenPlanOutcome(True, plans, cur)

        inner = sequencer.build_dependency_graph

        def spy(*args, **kwargs):
            made.append(max(calls.values(), default=0))
            return inner(*args, **kwargs)

        monkeypatch.setattr(planner, "gen_motion_plan", gen)
        monkeypatch.setattr(sequencer, "build_dependency_graph", spy)
        res = plan_rearrangement(_eight_goal_scene())
        assert res.status == "iter-exhausted"
        # the first sequence is not a regeneration; each later one counts
        # once in regenerations and once in replanning
        assert res.regenerations == len(made) - 1
        assert res.metrics.replanning == len(failed) + res.regenerations
        return res, made, failed

    def test_skip_max_plus_one_passes_without_progress_regenerate(self, monkeypatch):
        # the ninth pass regenerates too, before the run ends on iter_max
        _, made, _ = self.run(monkeypatch, lambda k, oid: "fail")
        assert made == [0, 3, 6, 9]

    def test_a_goal_relocation_regenerates(self, monkeypatch):
        _, made, _ = self.run(monkeypatch, lambda k, oid: "goal" if (k, oid) == (1, "g0") else "fail")
        assert made == [0, 1, 4, 7]

    def test_an_obstacle_relocation_is_progress_only(self, monkeypatch):
        _, made, _ = self.run(monkeypatch, lambda k, oid: "obstacle" if (k, oid) == (1, "g0") else "fail")
        assert made == [0, 4, 7]

    def test_progress_resets_the_stall_count(self, monkeypatch):
        # without the reset, the stalls of passes 1, 3 and 4 would regenerate after pass 4
        _, made, _ = self.run(monkeypatch, lambda k, oid: "ok" if (k, oid) == (2, "g3") else "fail")
        assert made == [0, 5, 8]


class TestSerializeResult:
    def test_deterministic_bytes(self, simple_scene):
        r1 = plan_rearrangement(simple_scene)
        r2 = plan_rearrangement(simple_scene)
        b1 = json.dumps(serialize_result(r1), sort_keys=True)
        b2 = json.dumps(serialize_result(r2), sort_keys=True)
        assert b1 == b2

    def test_no_wall_clock_fields(self, simple_scene):
        res = plan_rearrangement(simple_scene)
        payload = serialize_result(res)

        def keys(d):
            if isinstance(d, dict):
                for k, v in d.items():
                    yield k
                    yield from keys(v)
            elif isinstance(d, list):
                for v in d:
                    yield from keys(v)

        assert all("time" not in k for k in keys(payload))

    def test_shape(self, simple_scene):
        res = plan_rearrangement(simple_scene)
        payload = serialize_result(res)
        assert payload["status"] == "success"
        assert payload["sequence"] == ["g1"]
        assert "robot" in payload["final_poses"]
        assert payload["plans"]
        pair = payload["plans"][-1]["pairs"][0]
        assert set(pair) == {"side", "robot_offset", "pick", "place", "object_path"}


class TestReplayPlans:
    def test_detects_offset_drift(self, simple_scene):
        res = plan_rearrangement(simple_scene)
        plan = res.plans[-1]
        pair = plan.pairs[-1]
        wps = list(pair.place.waypoints)
        wps[-1] = Pose2(wps[-1].x + 0.5, wps[-1].y)
        tampered = dataclasses.replace(
            plan,
            pairs=plan.pairs[:-1]
            + (dataclasses.replace(pair, place=Path(tuple(wps))),),
        )
        bad, _ = replay_plans(simple_scene, res.plans[:-1] + (tampered,))
        assert any("drift" in b for b in bad)

    def test_detects_broken_continuity(self, simple_scene):
        res = plan_rearrangement(simple_scene)
        plan = res.plans[0]
        pair = plan.pairs[0]
        wps = (Pose2(0.5, 0.5),) + pair.pick.waypoints[1:]
        tampered = dataclasses.replace(
            plan,
            pairs=(dataclasses.replace(pair, pick=Path(wps)),) + plan.pairs[1:],
        )
        bad, _ = replay_plans(simple_scene, (tampered,) + res.plans[1:])
        assert any("does not start at the robot pose" in b for b in bad)

    def test_detects_a_transport_off_its_object(self, simple_scene):
        # the whole transport shifted by 0.3: offsets and sweep stay clean,
        # but it starts where the object is not
        res = plan_rearrangement(simple_scene)
        plan = res.plans[0]
        pair = plan.pairs[0]

        def shift(wps):
            return tuple(Pose2(p.x, p.y + 0.3) for p in wps)

        moved = dataclasses.replace(pair, object_waypoints=shift(pair.object_waypoints),
                                    place=Path(pair.place.waypoints[:1] + shift(pair.place.waypoints[1:])))
        tampered = dataclasses.replace(plan, pairs=(moved,) + plan.pairs[1:])
        assert replay_plans(simple_scene, res.plans)[0] == []
        bad, _ = replay_plans(simple_scene, (tampered,) + res.plans[1:])
        assert f"plan 0 ({plan.object_id}) pair 0: transport does not start at the object's pose" in bad

    def test_detects_collision(self):
        # a straight transport through an obstacle the planner never saw
        sc = scene(
            [robot(1, 5), goal_obj("g1", 3, 5), obstacle("rock", 5.5, 5)],
            {"g1": Pose2(8, 5)},
        )
        pick = Path((Pose2(1, 5), Pose2(2.5, 5)))
        place = Path((Pose2(2.5, 5), Pose2(7.5, 5)))
        pair = PickPlacePair(pick, place, (Pose2(3, 5), Pose2(8, 5)), "W", (-0.5, 0.0))
        bad, _ = replay_plans(sc, (MotionPlan("g1", (pair,)),))
        assert any("collides" in b for b in bad)


class TestCli:
    def _write_scene(self, tmp_path, sc, name="scene.json"):
        p = tmp_path / name
        scenario.save_scene(sc, p)
        return str(p)

    def test_gen_round_trip(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        rc = cli.main(["gen", "four_blocks", "--out", str(out)])
        assert rc == 0
        sc = scenario.load_scene(out)
        assert len(sc.goals) == 4

    def test_gen_m_block(self, capsys):
        rc = cli.main(["gen", "m_block_2", "--seed", "3"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["movables"]) == 2

    def test_plan_success(self, tmp_path, capsys, simple_scene):
        path = self._write_scene(tmp_path, simple_scene)
        out = tmp_path / "result.json"
        rc = cli.main(["plan", path, "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["status"] == "success"
        assert "reason:" not in capsys.readouterr().err

    def test_plan_failure_exit_code(self, tmp_path, capsys):
        sc = scene(
            [robot(1, 5), goal_obj("g1", 3, 5), wall("bar", 6, 5, 0.4, 10.0)],
            {"g1": Pose2(8, 5)},
        )
        path = self._write_scene(tmp_path, sc)
        rc = cli.main(["plan", path, "--out", str(path) + ".out"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("infeasible: ")
        assert err[1:] == ["reason: g1 has no route to its goal past the walls"]
        # the result JSON holds no reason: serialize_result is unchanged
        assert "reason" not in json.loads(FilePath(path + ".out").read_text())

    def test_bench_rejects_a_run_of_nothing(self, tmp_path, capsys):
        # no seeds, or a scenario list that names no scenario, is bad input,
        # not an empty CSV
        out = tmp_path / "rows.csv"
        for argv, why in ((["--suite", "four_blocks", "--seeds", "0"], "--seeds must be at least 1, got 0"),
                          (["--suite", "four_blocks", "--seeds", "-2"], "--seeds must be at least 1, got -2"),
                          (["--suite", " , ", "--seeds", "1"], "suite ' , ' names no scenario"),
                          (["--suite", "", "--seeds", "1"], "suite '' names no scenario")):
            assert cli.main(["bench", *argv, "--out", str(out)]) == 2, argv
            assert capsys.readouterr().err == f"error: {why}\n", argv
            assert not out.exists(), argv

    def test_bench_rejects_a_bad_name_before_planning(self, tmp_path, capsys):
        # a bad scenario anywhere in the list is bad input before any run
        # is planned: no progress line, no CSV
        out = tmp_path / "rows.csv"
        for suite, why in (("four_blocks,m_block_8,nope", "unknown scenario 'nope'"),
                           ("four_blocks,m_block_0", "m must be positive")):
            assert cli.main(["bench", "--suite", suite, "--seeds", "2", "--out", str(out)]) == 2, suite
            assert capsys.readouterr().err == f"error: {why}\n", suite
            assert not out.exists(), suite

    def test_bad_input_exit_code(self, tmp_path, capsys):
        assert cli.main(["plan", str(tmp_path / "missing.json")]) == 2
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert cli.main(["plan", str(p)]) == 2
        # non-finite numbers and scenes that fail Scene.validate()
        good = scenario.scene_to_json(bench.make_scene("four_blocks"))
        for old, new in (('"x": 4.4', '"x": NaN'), ('"xmax": 10.0', '"xmax": Infinity'),
                         ('"x": 5.6', '"x": 4.4')):  # the last puts o2 on o1
            bad = good.replace(old, new, 1)
            assert bad != good
            p.write_text(bad)
            assert cli.main(["plan", str(p)]) == 2
        # the robot inside a wall
        doc = json.loads(scenario.scene_to_json(bench.make_scene("doorway")))
        doc["robot"].update(x=doc["walls"][0]["x"], y=doc["walls"][0]["y"])
        p.write_text(json.dumps(doc))
        assert cli.main(["plan", str(p)]) == 2
        assert "robot overlaps wall_s" in capsys.readouterr().err
        # a directory, or a file that is not UTF-8, as the scenario or the
        # config file
        sc = tmp_path / "scene.json"
        scenario.save_scene(bench.make_scene("four_blocks"), sc)
        p.write_bytes(b"\xff\xfe")
        for argv in (["plan", str(tmp_path)], ["plan", str(p)], ["render", str(p), "--out", str(tmp_path / "x.svg")],
                     ["plan", str(sc), "--config", str(tmp_path)], ["plan", str(sc), "--config", str(p)]):
            assert cli.main(argv) == 2, argv
            assert capsys.readouterr().err.startswith("error: "), argv

    def test_non_utf8_input_names_its_file(self, tmp_path, capsys):
        # the error says which file is bad, also when the other one is fine
        sc = tmp_path / "scene.json"
        scenario.save_scene(bench.make_scene("four_blocks"), sc)
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        bad = tmp_path / "not-utf8.json"
        bad.write_bytes(b"\xff\xfe")
        svg = str(tmp_path / "x.svg")
        for argv, kind in ((["plan", str(bad), "--config", str(cfg)], "scenario"),
                           (["render", str(bad), "--out", svg], "scenario"),
                           (["plan", str(sc), "--config", str(bad)], "config")):
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: {kind} file {bad}: "), argv
            assert "codec can't decode" in err, argv
        with pytest.raises(scenario.ScenarioError, match="not-utf8.json"):
            scenario.load_scene(bad)
        with pytest.raises(ConfigError, match="not-utf8.json"):
            PlannerConfig.from_layers(file=str(bad), env={})

    def test_bad_scenario_names_its_file(self, tmp_path, capsys):
        # invalid JSON, and a scene that fails Scene.validate()
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{nope")
        doorway = bench.make_scene("doorway", 0)
        wall_s = doorway.body("wall_s")
        in_wall = tmp_path / "robot-in-wall.json"
        scenario.save_scene(doorway.with_pose("robot", wall_s.pose), in_wall)
        for path, why in ((bad_json, "invalid JSON"), (in_wall, "invalid scene: robot overlaps wall_s")):
            assert cli.main(["plan", str(path)]) == 2, path
            err = capsys.readouterr().err
            assert err.startswith(f"error: scenario file {path}: {why}"), err
            with pytest.raises(scenario.ScenarioError, match=f"^scenario file {re.escape(str(path))}: "):
                scenario.load_scene(path)

    def test_bad_config_exit_code(self, tmp_path, capsys, simple_scene):
        path = self._write_scene(tmp_path, simple_scene)
        assert cli.main(["plan", path, "--set", "frobnicate=1"]) == 2
        assert cli.main(["plan", path, "--set", "no_equals_sign"]) == 2

    def test_seed_shorthand(self, tmp_path, capsys, simple_scene):
        path = self._write_scene(tmp_path, simple_scene)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert cli.main(["plan", path, "--seed", "7", "--out", str(out1)]) == 0
        assert cli.main(["plan", path, "--set", "seed=7", "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_bench_csv(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = cli.main(["bench", "--suite", "four_blocks", "--seeds", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("scenario,seed,status")

    def test_render(self, tmp_path, capsys, simple_scene):
        path = self._write_scene(tmp_path, simple_scene)
        svg = tmp_path / "scene.svg"
        rc = cli.main(["render", path, "--out", str(svg)])
        assert rc == 0
        assert svg.read_text().lstrip().startswith("<svg")

    def test_plan_svg_output(self, tmp_path, capsys, simple_scene):
        path = self._write_scene(tmp_path, simple_scene)
        svg = tmp_path / "final.svg"
        rc = cli.main(
            ["plan", path, "--out", str(tmp_path / "r.json"), "--svg", str(svg)]
        )
        assert rc == 0
        assert svg.exists()
