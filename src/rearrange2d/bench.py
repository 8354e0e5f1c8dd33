"""Benchmark scenarios and suite running.

Built-in scenes exercise specific planner behaviors (narrow doors,
pocketed swaps, blocked corridors); gen_m_block builds randomized
multi-object instances on a fixed wall layout.  run_suite executes
scenario x seed grids and writes one CSV row per run.
"""
from __future__ import annotations

import csv
import io
import random
import time
from dataclasses import dataclass

from .motion import SIDES, _mix_seed, grasp_pose
from .planner import PlannerConfig, PlanResult, plan_rearrangement
from .world import (
    KIND_GOAL,
    KIND_OBSTACLE,
    KIND_ROBOT,
    KIND_WALL,
    Body,
    Pose2,
    Rect,
    Scene,
    rect_at,
    rects_overlap,
)

WORKSPACE = Rect(0.0, 0.0, 10.0, 10.0)
ROBOT_SIDE = 0.4
OBJ_SIDE = 0.6
# samples gen_m_block draws for one start or goal before it gives up
M_BLOCK_TRIES = 10000


class BenchError(RuntimeError):
    pass


def _robot(x: float, y: float) -> Body:
    return Body("robot", ROBOT_SIDE, ROBOT_SIDE, KIND_ROBOT, Pose2(x, y))


def _wall(wid: str, cx: float, cy: float, w: float, h: float) -> Body:
    return Body(wid, w, h, KIND_WALL, Pose2(cx, cy))


def _goal_obj(oid: str, x: float, y: float) -> Body:
    return Body(oid, OBJ_SIDE, OBJ_SIDE, KIND_GOAL, Pose2(x, y))


def _obstacle(oid: str, x: float, y: float) -> Body:
    return Body(oid, OBJ_SIDE, OBJ_SIDE, KIND_OBSTACLE, Pose2(x, y))


def four_blocks() -> Scene:
    """Four objects clustered at the center, goals in the corners."""
    bodies = (
        _goal_obj("o1", 4.4, 4.4),
        _goal_obj("o2", 5.6, 4.4),
        _goal_obj("o3", 4.4, 5.6),
        _goal_obj("o4", 5.6, 5.6),
        _robot(5.0, 1.0),
    )
    goals = {
        "o1": Pose2(1.5, 1.5),
        "o2": Pose2(8.5, 1.5),
        "o3": Pose2(1.5, 8.5),
        "o4": Pose2(8.5, 8.5),
    }
    return Scene(WORKSPACE, bodies, goals)


def _door_walls() -> tuple[Body, Body]:
    # vertical wall at x = 4 with a 0.9 door centered at y = 5
    return (
        _wall("wall_s", 4.0, 2.275, 0.3, 4.55),
        _wall("wall_n", 4.0, 7.725, 0.3, 4.55),
    )


def narrow_room() -> Scene:
    """One object through a door barely wider than it."""
    bodies = _door_walls() + (_goal_obj("o1", 2.0, 5.0), _robot(8.0, 2.0))
    return Scene(WORKSPACE, bodies, {"o1": Pose2(8.0, 5.0)})


def doorway() -> Scene:
    """narrow_room with a loose obstacle parked in the door."""
    bodies = _door_walls() + (
        _goal_obj("o1", 2.0, 5.0),
        _obstacle("b1", 4.0, 5.0),
        _robot(8.0, 2.0),
    )
    return Scene(WORKSPACE, bodies, {"o1": Pose2(8.0, 5.0)})


def swap_pocket() -> Scene:
    """Two objects must swap ends of a corridor; the only spare space is a
    pocket off the corridor, so one of them has to wait inside it."""
    bodies = (
        _wall("slab_s", 5.0, 2.1, 10.0, 4.2),
        _wall("slab_nw", 2.05, 7.9, 4.1, 4.2),
        _wall("slab_ne", 7.95, 7.9, 4.1, 4.2),
        _wall("pocket_cap", 5.0, 8.7, 1.8, 2.6),
        _goal_obj("o1", 3.6, 5.0),
        _goal_obj("o2", 6.4, 5.0),
        _robot(1.0, 5.0),
    )
    goals = {"o1": Pose2(6.4, 5.0), "o2": Pose2(3.6, 5.0)}
    return Scene(WORKSPACE, bodies, goals)


def triple_swap() -> Scene:
    """Three objects rotate positions: every goal is someone's start."""
    a, b, c = Pose2(3.5, 5.0), Pose2(6.5, 5.0), Pose2(5.0, 7.6)
    bodies = (
        _goal_obj("o1", a.x, a.y),
        _goal_obj("o2", b.x, b.y),
        _goal_obj("o3", c.x, c.y),
        _robot(5.0, 2.0),
    )
    goals = {"o1": b, "o2": c, "o3": a}
    return Scene(WORKSPACE, bodies, goals)


def nested_blockers() -> Scene:
    """A corridor under two slabs with a single shaft between them.  One
    blocker sits on the route, the other plugs the shaft the first one
    must be parked in."""
    bodies = (
        _wall("slab_w", 2.2, 1.75, 4.4, 1.0),
        _wall("slab_e", 7.8, 1.75, 4.4, 1.0),
        _goal_obj("o1", 1.2, 0.8),
        _obstacle("b1", 4.2, 0.8),
        _obstacle("b2", 5.0, 1.55),
        _robot(0.6, 0.3),
    )
    return Scene(WORKSPACE, bodies, {"o1": Pose2(8.8, 0.8)})


def detour_pocket() -> Scene:
    """Straight-line costs prefer serving the far object first; true robot
    paths around the pocket walls prefer the opposite order."""
    bodies = (
        _wall("pkt_w", 4.75, 3.55, 0.3, 2.3),
        _wall("pkt_e", 6.45, 3.55, 0.3, 2.3),
        _wall("pkt_cap", 5.6, 4.55, 1.4, 0.3),
        _goal_obj("box_a", 8.6, 5.2),
        _goal_obj("box_b", 5.6, 3.4),
        _robot(5.6, 1.2),
    )
    goals = {"box_a": Pose2(5.6, 5.2), "box_b": Pose2(1.6, 5.2)}
    return Scene(WORKSPACE, bodies, goals)


_M_BLOCK_WALLS = (
    _wall("bar_h", 3.0, 5.0, 2.4, 0.3),
    _wall("bar_v", 7.0, 5.0, 0.3, 2.4),
)


def gen_m_block(m: int, seed: int = 0) -> Scene:
    """Randomized m-object instance on a fixed sparse wall layout.

    Starts and goals are rejection-sampled: mutually disjoint, clear of
    walls and the robot, every footprint grasp-accessible on at least one
    side, and each object statically routable to its goal.  Deterministic
    per (m, seed).
    """
    if m < 1:
        raise BenchError("m must be positive")
    rng = random.Random(_mix_seed(seed, "m_block", m))
    robot = _robot(0.7, 0.7)
    margin = OBJ_SIDE / 2 + 0.2
    statics = [w.rect() for w in _M_BLOCK_WALLS]

    def clear_of_walls(r: Rect, pad: float = 0.15) -> bool:
        grown = Rect(r.xmin - pad, r.ymin - pad, r.xmax + pad, r.ymax + pad)
        return not any(rects_overlap(grown, s) for s in statics)

    def side_free(center: Pose2) -> bool:
        for side in SIDES:
            rr = rect_at(grasp_pose(center, side, OBJ_SIDE, OBJ_SIDE, ROBOT_SIDE), ROBOT_SIDE, ROBOT_SIDE)
            if WORKSPACE.contains_rect(rr) and clear_of_walls(rr, 0.05):
                return True
        return False

    def sample(existing: list[Rect]) -> Pose2 | None:
        for _ in range(M_BLOCK_TRIES):
            p = Pose2(rng.uniform(margin, 10 - margin), rng.uniform(margin, 10 - margin))
            r = rect_at(p, OBJ_SIDE, OBJ_SIDE)
            grown = Rect(r.xmin - 0.2, r.ymin - 0.2, r.xmax + 0.2, r.ymax + 0.2)
            if not clear_of_walls(r):
                continue
            if rects_overlap(grown, robot.rect()):
                continue
            if any(rects_overlap(grown, e) for e in existing):
                continue
            if not side_free(p):
                continue
            return p
        return None

    taken: list[Rect] = []
    starts: list[Pose2] = []
    goals: list[Pose2] = []
    for i in range(m):
        s = sample(taken)
        if s is None:
            raise BenchError(f"could not place start {i} after {M_BLOCK_TRIES} tries")
        starts.append(s)
        taken.append(rect_at(s, OBJ_SIDE, OBJ_SIDE))
    goal_taken: list[Rect] = list(taken)
    for i in range(m):
        g = sample(goal_taken)
        if g is None:
            raise BenchError(f"could not place goal {i} after {M_BLOCK_TRIES} tries")
        goals.append(g)
        goal_taken.append(rect_at(g, OBJ_SIDE, OBJ_SIDE))

    bodies = tuple(
        _goal_obj(f"o{i + 1}", starts[i].x, starts[i].y) for i in range(m)
    ) + (_M_BLOCK_WALLS + (robot,))
    scene = Scene(WORKSPACE, bodies, {f"o{i + 1}": goals[i] for i in range(m)})

    # every object must have a statics-only route; resample on failure by
    # bumping the seed so callers still get a scene for any (m, seed)
    from . import grids

    spec = grids.GridSpec.from_scene(scene)
    statics_scene = scene.statics_only()
    free = grids.fit_mask(statics_scene, spec, ((0.0, 0.0, OBJ_SIDE, OBJ_SIDE),), frozenset({"robot"}))
    for i in range(m):
        if not grids.grid_connected(free, spec.cell_of(starts[i]), spec.cell_of(goals[i]), spec):
            return gen_m_block(m, seed + 7919)
    rfree = grids.fit_mask(statics_scene, spec, robot.footprint, frozenset({"robot"}))
    for i in range(m):
        if not grids.grid_connected(rfree, spec.cell_of(robot.pose), spec.cell_of(starts[i]), spec):
            return gen_m_block(m, seed + 7919)
    return scene


BUILTIN_SCENES = {
    "four_blocks": four_blocks,
    "narrow_room": narrow_room,
    "doorway": doorway,
    "swap_pocket": swap_pocket,
    "triple_swap": triple_swap,
    "nested_blockers": nested_blockers,
    "detour_pocket": detour_pocket,
}

SUITES = {
    "desk": (
        "four_blocks",
        "narrow_room",
        "swap_pocket",
        "triple_swap",
        "m_block_2",
        "m_block_4",
        "m_block_8",
    ),
    "relocation": ("doorway", "nested_blockers", "swap_pocket"),
    "all": tuple(BUILTIN_SCENES) + ("m_block_2", "m_block_4", "m_block_8"),
}


def make_scene(name: str, seed: int = 0) -> Scene:
    """Scene by name; m_block_<M> names route to the generator, the only
    scenes seed shapes (built-in scenes are fixed)."""
    if name in BUILTIN_SCENES:
        return BUILTIN_SCENES[name]()
    if name.startswith("m_block_"):
        try:
            m = int(name[len("m_block_") :])
        except ValueError:
            raise BenchError(f"bad m_block name {name!r}") from None
        return gen_m_block(m, seed)
    raise BenchError(f"unknown scenario {name!r}")


CSV_FIELDS = (
    "scenario",
    "seed",
    "status",
    "pnp",
    "replanning",
    "travel_distance_m",
    "wall_time_s",
    "sequence_time_s",
    "reason",
)


@dataclass
class SuiteRow:
    scenario: str
    seed: int
    result: PlanResult

    def as_record(self) -> dict:
        m = self.result.metrics
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "status": self.result.status,
            "pnp": m.pnp,
            "replanning": m.replanning,
            "travel_distance_m": f"{m.travel_distance:.6f}",
            "wall_time_s": f"{m.wall_time:.3f}",
            "sequence_time_s": f"{m.sequence_time:.3f}",
            "reason": self.result.reason or "",
        }


def run_suite(
    names,
    seeds,
    cfg: PlannerConfig | None = None,
    *,
    progress=None,
) -> list[SuiteRow]:
    """Run every scenario for every seed; one row per run.  Every scene is
    built before the first plan, so a bad name raises BenchError before
    any planning."""
    if cfg is None:
        cfg = PlannerConfig()
    runs = [(name, seed, make_scene(name, seed)) for name in names for seed in seeds]
    rows: list[SuiteRow] = []
    for name, seed, scene in runs:
        run_cfg = cfg.merged({"seed": seed}, "suite")
        t0 = time.monotonic()
        result = plan_rearrangement(scene, run_cfg)
        if progress is not None:
            progress(name, seed, result.status, time.monotonic() - t0)
        rows.append(SuiteRow(name, seed, result))
    return rows


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row.as_record())
    return buf.getvalue()


def write_csv(rows, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows))
