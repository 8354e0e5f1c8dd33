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
from rearrange2d.motion import MotionPlan, Path, PickPlacePair, Subgoal
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

from conftest import goal_obj, obstacle, robot, scene, wall, wedged_scene


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
    plan_rearrangement(bench.make_scene("m_block_12", 1), PlannerConfig(seed=1, rrt_max_iters=4999))
    assert "pick_task" in {caller for caller, _ in calls}
    assert {iters for _, iters in calls} == {4999}


def _toy_plan():
    pick = Path((Pose2(0, 0), Pose2(3, 4)))
    place = Path((Pose2(3, 4), Pose2(3, 10)))
    sg = Subgoal(Pose2(3, 4.5), Pose2(3, 4.2), "S")
    pair = PickPlacePair(pick, place, (Pose2(3, 4.5), Pose2(3, 10.5)), sg, (0.0, -0.5))
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
        assert out.relocated == ()
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
        assert "b1" in out.relocated
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
        assert out.reason == "timeout"
        assert searches == [0]
        # without a deadline every alternative critical subset is tried
        searches.clear()
        out = gen_motion_plan(sc, "g1", cfg, seed=0, spec=GridSpec.from_scene(sc))
        assert out.reason == "relocation search exhausted"
        assert searches == list(range(planner.ALT_CRIT_LIMIT))

    def test_plan_returns_timeout_mid_search(self, monkeypatch, clock):
        tried = _failing_relocations(monkeypatch, clock, 200.0)
        res = plan_rearrangement(_gap_scene(), PlannerConfig(time_limit=120.0))
        assert res.status == "timeout"
        # the first failed relocation plan passes the deadline, so the search
        # ends with its first iteration and nothing is retried after it
        assert 1 <= len(tried) <= guided_search.K_MAX


class TestPlanRearrangement:
    def test_success_simple(self, simple_scene):
        res = plan_rearrangement(simple_scene)
        assert res.status == "success"
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

    def test_timeout(self, simple_scene):
        res = plan_rearrangement(simple_scene, PlannerConfig(time_limit=0.0))
        assert res.status == "timeout"

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

    def test_detects_collision(self):
        # a straight transport through an obstacle the planner never saw
        sc = scene(
            [robot(1, 5), goal_obj("g1", 3, 5), obstacle("rock", 5.5, 5)],
            {"g1": Pose2(8, 5)},
        )
        pick = Path((Pose2(1, 5), Pose2(2.5, 5)))
        place = Path((Pose2(2.5, 5), Pose2(7.5, 5)))
        sg = Subgoal(Pose2(8, 5), Pose2(7.7, 5), "W")
        pair = PickPlacePair(pick, place, (Pose2(3, 5), Pose2(8, 5)), sg, (-0.5, 0.0))
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
        rc = cli.main(["gen", "m-block", "--m", "2", "--seed", "3"])
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

    def test_plan_failure_exit_code(self, tmp_path):
        sc = scene(
            [robot(1, 5), goal_obj("g1", 3, 5), wall("bar", 6, 5, 0.4, 10.0)],
            {"g1": Pose2(8, 5)},
        )
        path = self._write_scene(tmp_path, sc)
        rc = cli.main(["plan", path, "--out", str(path) + ".out"])
        assert rc == 1

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
