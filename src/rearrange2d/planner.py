"""Top-level rearrangement planner and its configuration.

One call to plan_rearrangement drives everything: sequence the goal
objects, transport them in order, rescue blocked legs with relocations,
and regenerate the sequence when relocations move goal objects around.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import time
from dataclasses import dataclass, fields

from . import motion, sequencer
from .grids import GridSpec
from .guided_search import pick_task, place_task, search_relocations
from .motion import InfeasibleLeg, MotionPlan, SubgoalBlocked, _mix_seed
from .sequencer import CostMatrix, PlacementSequence, SequencerCaches, SequenceInfeasible
from .world import KIND_GOAL, Pose2, Scene, default_tolerance, left_sum, verify_placements


class ConfigError(ValueError):
    pass


# alternative critical subsets gen_motion_plan tries per object; and
# plan_rearrangement regenerates the sequence once more passes go without
# progress than the unplaced objects divided by SKIP_MAX_DIVISOR
ALT_CRIT_LIMIT = 3
SKIP_MAX_DIVISOR = 4

# a key's kind is its PlannerConfig annotation: "int", "float", "bool" or
# _OPTIONAL; a None default reads as "derived from the scene"
_OPTIONAL = "float | None"
# ranges the planner needs: a grid size of 0 divides by zero, and
# verify_placements rejects a tolerance of 0 or less, so an _OPTIONAL key
# must be positive when set
_AT_LEAST_ONE = ("grid_n",)


@dataclass(frozen=True)
class PlannerConfig:
    grid_n: int = 64
    rrt_max_iters: int = 5000
    time_limit: float = 120.0
    lazy_rounds: int = 5
    cycle_cap: int = 10000
    tol: float | None = None            # default quarter of the smallest movable side
    seed: int = 0
    refine: bool = True
    random_sequence: bool = False
    greedy_cycles: bool = False

    def __post_init__(self):
        # merged builds every layered config, so this one check covers them all
        for name in _AT_LEAST_ONE:
            v = getattr(self, name)
            if not v >= 1:
                raise ConfigError(f"config key {name!r} must be at least 1, got {v!r}")
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == _OPTIONAL and v is not None and not v > 0:
                raise ConfigError(f"config key {f.name!r} must be positive when set, got {v!r}")
        # t0 + nan is a deadline no time passes, so NaN would mean no limit;
        # 0 or less (time out at once) and inf (never) are meant as given
        if math.isnan(self.time_limit):
            raise ConfigError(f"config key 'time_limit' must be a number, got {self.time_limit!r}")

    def merged(self, overrides, source: str = "override") -> "PlannerConfig":
        """New config with overrides applied; unknown keys are an error."""
        known = {f.name: f for f in fields(self)}
        vals = dataclasses.asdict(self)
        for k, v in dict(overrides).items():
            if k not in known:
                raise ConfigError(f"unknown config key {k!r} from {source}")
            vals[k] = _coerce(k, v, source)
        return PlannerConfig(**vals)

    @classmethod
    def from_layers(cls, file: str | None = None, env=None, cli=None) -> "PlannerConfig":
        """defaults < config file < environment < command line."""
        cfg = cls()
        if file is not None:
            with open(file, encoding="utf-8") as fh:
                try:
                    data = json.load(fh)
                except json.JSONDecodeError as e:
                    raise ConfigError(f"config file {file}: {e}") from e
            if not isinstance(data, dict):
                raise ConfigError(f"config file {file}: expected an object")
            cfg = cfg.merged(data, f"file {file}")
        environ = os.environ if env is None else env
        prefix = "REARRANGE2D_"
        env_over = parse_overrides(
            (key[len(prefix) :].lower(), raw, f"environment {key}")
            for key, raw in environ.items()
            if key.startswith(prefix)
        )
        if env_over:
            cfg = cfg.merged(env_over, "environment")
        if cli:
            cfg = cfg.merged(cli, "command line")
        return cfg


_FIELD_TYPE = {f.name: f.type for f in fields(PlannerConfig)}


def _coerce(name: str, value, source: str):
    kind = _FIELD_TYPE[name]
    if kind == _OPTIONAL:
        if value is None:
            return None
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif kind == "bool":
        if isinstance(value, bool):
            return value
    elif kind == "int":
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    else:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    raise ConfigError(f"config key {name!r} from {source}: bad value {value!r}")


def parse_overrides(items) -> dict:
    """Typed config overrides from (key, raw string, source) triples.

    The one string parser: the environment and --set both go through it,
    so a string means the same in either.  Unknown keys are an error.
    """
    out = {}
    for name, raw, source in items:
        if name not in _FIELD_TYPE:
            raise ConfigError(f"unknown config key {name!r} from {source}")
        out[name] = _parse_value(name, raw, source)
    return out


def _parse_value(name: str, raw: str, source: str):
    kind = _FIELD_TYPE[name]
    s = raw.strip().lower()
    try:
        if kind == _OPTIONAL:
            return None if s in ("none", "null", "") else float(raw)
        if kind == "bool":
            if s in ("1", "true", "yes", "on"):
                return True
            if s in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if kind == "int":
            return int(raw)
        return float(raw)
    except ValueError as e:
        raise ConfigError(f"config key {name!r} from {source}: cannot parse {raw!r}") from e


@dataclass
class GenPlanOutcome:
    success: bool
    plans: tuple[MotionPlan, ...]
    scene: Scene
    failures: int = 0
    relocated: tuple[str, ...] = ()
    reason: str | None = None


def gen_motion_plan(
    scene: Scene,
    object_id: str,
    cfg: PlannerConfig,
    seed: int,
    spec: GridSpec,
    deadline: float | None = None,
) -> GenPlanOutcome:
    """Plan the full transport of one goal object in the current scene.

    Blocked legs trigger the relocation search; each exhausted search is
    retried with the next alternative critical subset until
    ALT_CRIT_LIMIT runs out.  Once time.monotonic() passes deadline, no
    further attempt starts and the outcome fails with reason "timeout".
    """
    rs = scene.robot.w
    mu = motion.plan_object_path(
        scene, object_id, scene.goal_of(object_id), _mix_seed(seed, "mu", object_id),
        max_iters=cfg.rrt_max_iters, spec=spec,
    )
    if mu is None:
        return GenPlanOutcome(False, (), scene, reason="no route past the walls")

    cur = scene
    plans: list[MotionPlan] = []
    relocated: list[str] = []
    failures = 0
    skip = 0
    guard = 0
    while True:
        if deadline is not None and time.monotonic() > deadline:
            return GenPlanOutcome(False, (), scene, failures, reason="timeout")
        guard += 1
        if guard > 2 * ALT_CRIT_LIMIT + 4:
            return GenPlanOutcome(False, (), scene, failures, reason="relocation loop guard")
        try:
            subgoals = motion.select_subgoals(mu, cur, spec=spec)
            if cfg.refine:
                subgoals = motion.refine_subgoals(subgoals, cur, 0.5 * rs, object_id=object_id)
            plan, after = motion.plan_pick_place(
                cur, object_id, subgoals, seed=_mix_seed(seed, "pp", object_id, guard),
                max_iters=cfg.rrt_max_iters, spec=spec,
            )
            plans.append(plan)
            return GenPlanOutcome(True, tuple(plans), after, failures, tuple(relocated))
        except SubgoalBlocked as e:
            return GenPlanOutcome(False, (), scene, failures, reason=str(e))
        except InfeasibleLeg as e:
            failures += 1
            if e.kind == "pick":
                task = pick_task(
                    cur, object_id, e.goal, _mix_seed(seed, "task", guard), spec, cfg.rrt_max_iters,
                )
            else:
                task = place_task(cur, object_id, mu.waypoints, spec)
            res = search_relocations(
                cur, task, skip, seed=_mix_seed(seed, "reloc", object_id, guard),
                spec=spec, rrt_max_iters=cfg.rrt_max_iters, deadline=deadline,
            )
            if res.reason == "timeout":
                return GenPlanOutcome(False, (), scene, failures, reason="timeout")
            if res.success:
                cur = res.scene
                plans.extend(res.plans)
                relocated.extend(p.object_id for p in res.plans)
                continue
            skip += 1
            if skip >= ALT_CRIT_LIMIT:
                return GenPlanOutcome(False, (), scene, failures, reason="relocation search exhausted")


@dataclass
class Metrics:
    pnp: int
    replanning: int
    travel_distance: float
    wall_time: float = 0.0
    sequence_time: float = 0.0


def count_metrics(plans, *, failures: int = 0, regenerations: int = 0) -> Metrics:
    """Pick-and-place count, replanning events, and robot travel distance.

    Replanning counts failed per-object planning attempts plus sequence
    regenerations beyond the initial one.
    """
    pnp = sum(p.pnp_count for p in plans)
    travel = left_sum(p.travel_distance for p in plans)
    return Metrics(pnp, failures + regenerations, travel)


@dataclass
class PlanResult:
    status: str                     # success | timeout | iter-exhausted | infeasible
    scene: Scene
    plans: tuple[MotionPlan, ...]
    metrics: Metrics
    sequence: tuple[str, ...] = ()
    regenerations: int = 0


def plan_rearrangement(scene: Scene, cfg: PlannerConfig | None = None) -> PlanResult:
    """Move every goal object onto its goal footprint.

    Works through a placement sequence pass by pass; failed passes first
    retry (the scene may have improved), then regenerate the sequence
    from the current scene.  Relocations that touch goal objects force a
    regeneration too, since the dependency structure has changed.
    """
    if cfg is None:
        cfg = PlannerConfig()
    t0 = time.monotonic()
    deadline = t0 + cfg.time_limit
    # one spec per call: its memo (grids module docstring) lives as long as the call
    spec = GridSpec.from_scene(scene, cfg.grid_n)
    tol = cfg.tol if cfg.tol is not None else default_tolerance(scene)
    goal_ids = sorted(scene.goals)
    caches = SequencerCaches()
    seq_time = 0.0
    regen_count = 0
    replan_failures = 0
    executed: list[MotionPlan] = []
    cur = scene

    def out_of_time() -> bool:
        return time.monotonic() > deadline

    def finish(status: str) -> PlanResult:
        m = count_metrics(executed, failures=replan_failures, regenerations=regen_count)
        m.wall_time = time.monotonic() - t0
        m.sequence_time = seq_time
        return PlanResult(status, cur, tuple(executed), m, seq.order if seq else (), regen_count)

    def gen_sequence(s: Scene, unplaced, regen_idx: int) -> PlacementSequence:
        nonlocal seq_time
        st = time.monotonic()
        try:
            unplaced = tuple(sorted(unplaced))
            if cfg.random_sequence:
                order = list(unplaced)
                random.Random(_mix_seed(cfg.seed, "shuffle", regen_idx)).shuffle(order)
                return PlacementSequence(tuple(order), 0.0)
            graph = sequencer.build_dependency_graph(
                s, unplaced=unplaced, tol=tol, seed=cfg.seed, spec=spec,
                rrt_max_iters=cfg.rrt_max_iters,
            )
            broke = sequencer.break_cycles(graph, cfg.cycle_cap, greedy=cfg.greedy_cycles)
            precedence = [(e.src, e.dst) for e in broke.graph.edges]
            costs = CostMatrix.euclidean(s, broke.graph.vertices)
            refined, _ = sequencer.lazy_refine(
                costs, s, cfg.seed, precedence=precedence, rounds=cfg.lazy_rounds,
                spec=spec, caches=caches, rrt_max_iters=cfg.rrt_max_iters,
            )
            return refined
        finally:
            seq_time += time.monotonic() - st

    placed = verify_placements(cur, tol)
    unplaced = [o for o in goal_ids if o not in placed]
    seq: PlacementSequence | None = None
    if not unplaced:
        seq = PlacementSequence((), 0.0)
        return finish("success")
    skip_max = len(unplaced) // SKIP_MAX_DIVISOR
    iter_max = len(unplaced) + 1

    try:
        seq = gen_sequence(cur, unplaced, 0)
    except SequenceInfeasible:
        seq = PlacementSequence((), 0.0)
        return finish("infeasible")

    iters = 0
    skip = 0
    while True:
        iters += 1
        if iters > iter_max:
            return finish("iter-exhausted")
        if out_of_time():
            return finish("timeout")

        progress = False
        goal_reloc = False
        for oid in seq.order:
            if out_of_time():
                return finish("timeout")
            placed = verify_placements(cur, tol)
            if oid in placed:
                continue
            outcome = gen_motion_plan(
                cur, oid, cfg, _mix_seed(cfg.seed, "obj", iters, oid), spec, deadline,
            )
            replan_failures += outcome.failures
            if outcome.reason == "timeout":
                return finish("timeout")
            if outcome.success:
                executed.extend(outcome.plans)
                cur = outcome.scene
                progress = True
                if any(cur.body(r).kind == KIND_GOAL for r in outcome.relocated):
                    goal_reloc = True
            elif outcome.reason is not None and not outcome.failures:
                replan_failures += 1  # hard failure without a planning attempt

        placed = verify_placements(cur, tol)
        unplaced = [o for o in goal_ids if o not in placed]
        if not unplaced:
            return finish("success")

        regen = False
        if progress:
            skip = 0
            if goal_reloc:
                regen = True
        else:
            skip += 1
            if skip > skip_max:
                regen = True
                skip = 0
        if regen:
            regen_count += 1
            try:
                seq = gen_sequence(cur, unplaced, regen_count)
            except SequenceInfeasible:
                return finish("infeasible")


def serialize_result(result: PlanResult) -> dict:
    """JSON-ready dump of everything deterministic about a result.

    Wall-clock fields are deliberately left out so identical runs
    serialize identically.
    """
    def pose(p: Pose2):
        return [p.x, p.y]

    return {
        "status": result.status,
        "sequence": list(result.sequence),
        "regenerations": result.regenerations,
        "final_poses": {b.id: pose(b.pose) for b in sorted(result.scene.bodies, key=lambda b: b.id)},
        "metrics": {
            "pnp": result.metrics.pnp,
            "replanning": result.metrics.replanning,
            "travel_distance": result.metrics.travel_distance,
        },
        "plans": [
            {
                "object": p.object_id,
                "purpose": p.purpose,
                "pairs": [
                    {
                        "side": pair.subgoal.grasp_side,
                        "robot_offset": list(pair.robot_offset),
                        "pick": [pose(w) for w in pair.pick.waypoints],
                        "place": [pose(w) for w in pair.place.waypoints],
                        "object_path": [pose(w) for w in pair.object_waypoints],
                    }
                    for pair in p.pairs
                ],
            }
            for p in result.plans
        ],
    }


def replay_plans(scene: Scene, plans) -> tuple[list[str], Scene]:
    """Re-execute plans against the world model and report violations.

    Checks robot pose continuity across legs, the rigid grasp offset
    during transport, and exact swept collision-freedom of every leg.
    """
    cur = scene
    robot = scene.robot
    rs = robot.w
    robot_pose = robot.pose
    bad: list[str] = []
    for pi, plan in enumerate(plans):
        body = cur.body(plan.object_id)
        for qi, pair in enumerate(plan.pairs):
            tag = f"plan {pi} ({plan.object_id}) pair {qi}"
            p0 = pair.pick.waypoints[0]
            if p0.x != robot_pose.x or p0.y != robot_pose.y:
                bad.append(f"{tag}: pick does not start at the robot pose")
            if not motion.sweep_clear(
                cur, ((0.0, 0.0, rs, rs),), pair.pick.waypoints, frozenset({robot.id}),
            ):
                bad.append(f"{tag}: pick path collides")
            if pair.place.waypoints[0] is not pair.pick.waypoints[-1] and (
                pair.place.waypoints[0].x != pair.pick.waypoints[-1].x
                or pair.place.waypoints[0].y != pair.pick.waypoints[-1].y
            ):
                bad.append(f"{tag}: place does not start at the grasp pose")
            if len(pair.place.waypoints) != len(pair.object_waypoints):
                bad.append(f"{tag}: place/object waypoint mismatch")
            else:
                ox, oy = pair.robot_offset
                for rp, op in zip(pair.place.waypoints, pair.object_waypoints):
                    if abs(rp.x - (op.x + ox)) > 1e-12 or abs(rp.y - (op.y + oy)) > 1e-12:
                        bad.append(f"{tag}: grasp offset drifts during transport")
                        break
            if not motion.sweep_clear(
                cur,
                ((0.0, 0.0, body.w, body.h), (pair.robot_offset[0], pair.robot_offset[1], rs, rs)),
                pair.object_waypoints,
                frozenset({plan.object_id, robot.id}),
            ):
                bad.append(f"{tag}: transport sweep collides")
            robot_pose = pair.place.waypoints[-1]
            cur = cur.with_pose(plan.object_id, pair.object_waypoints[-1]).with_pose(robot.id, robot_pose)
    return bad, cur
