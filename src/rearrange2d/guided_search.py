"""Relocation search for blocked pick or place legs.

When a transport leg cannot be planned, the movables sitting on the
intended route are identified, a minimal critical subset is chosen, and a
beam search over relocation placements runs until the leg becomes
plannable again.  Nodes are whole scenes scored by how much free space
stays reachable; persistent failures widen the critical set to the
objects that keep getting in the way.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import grids, motion
from .grids import GridSpec
from .world import EPS, Pose2, Rect, Scene, footprints_collide_xy
from .motion import (
    SIDES,
    InfeasibleLeg,
    MotionPlan,
    PendingPlan,
    Subgoal,
    _mix_seed,
    assign_leg_side,
    compound_parts,
    grasp_pose,
    solve_pick_config,
)

# search_relocations' budget: beam iterations per call, and iterations
# without a better scene before the critical set grows by one blocker
ITERATION_LIMIT = 40
STALL_LIMIT = 2
# the exploration bonus C0 / sqrt(1 + visits) in score_node, candidates
# per critical object at full weight, and open nodes kept per iteration
C0 = 25.0
K_MAX = 4
BEAM_WIDTH = 5
# free cells a relocation candidate keeps from anything occupied
CLEARANCE_MIN = 2.0
# select_critical audits every subset up to this size, then prefixes only
CARDINALITY_CAP = 4


@dataclass(frozen=True)
class TaskTrajectory:
    """The route a pending task needs, rasterized for blocker queries; a
    route of fewer than two waypoints raises ValueError."""

    kind: str                              # "pick" or "place"
    object_id: str                         # the object being served
    waypoints: tuple[Pose2, ...]           # robot route (pick) or object route (place)
    cells: tuple[tuple[int, int], ...]     # ordered by first contact

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise ValueError("a task route needs at least 2 waypoints")


def pick_task(
    scene: Scene, object_id: str, robot_goal: Pose2, seed: int, spec: GridSpec, max_iters: int = 5000
) -> TaskTrajectory:
    """Route the robot would take to the grasp with every movable ignored."""
    statics = scene.statics_only()
    robot = scene.robot
    path = motion.birrt(
        statics, robot.footprint, robot.pose, robot_goal, seed, max_iters,
        ignore=frozenset({robot.id}), spec=spec,
    )
    wps = path.waypoints if path is not None else (robot.pose, robot_goal)
    cells = grids.swept_cells(spec, robot.footprint, wps)
    return TaskTrajectory("pick", object_id, tuple(wps), tuple(cells))


def place_task(scene: Scene, object_id: str, waypoints, spec: GridSpec) -> TaskTrajectory:
    """Compound sweep of the object route, one grasp side per segment."""
    statics = scene.statics_only()
    body = scene.body(object_id)
    rs = scene.robot.w
    ignore = frozenset({object_id, scene.robot.id})
    wps = tuple(waypoints)
    seen: dict[tuple[int, int], int] = {}
    order = 0
    prev_side = None
    for a, b in zip(wps, wps[1:]):
        side = assign_leg_side(statics, [a, b], body.w, body.h, rs, prev_side, ignore)
        if side is None:
            side = prev_side or "W"
        prev_side = side
        for c in grids.swept_cells(spec, compound_parts(side, body.w, body.h, rs), [a, b]):
            if c not in seen:
                seen[c] = order
                order += 1
    cells = sorted(seen, key=seen.get)
    return TaskTrajectory("place", object_id, wps, tuple(cells))


def find_colliding(scene: Scene, task: TaskTrajectory, spec: GridSpec) -> list[str]:
    """Movables overlapping the task route, earliest contact first.

    The task's own object and the robot are never reported.
    """
    first_idx = {c: i for i, c in enumerate(task.cells)}
    hits = []
    for b in scene.movables:
        if b.id == task.object_id:
            continue
        touched = [first_idx[c] for c in spec.cells_of_rect(b.rect()) if c in first_idx]
        if touched:
            hits.append((min(touched), b.id))
    hits.sort()
    return [oid for _, oid in hits]


def task_feasible(scene: Scene, task: TaskTrajectory, removed, spec: GridSpec) -> bool:
    """Would the task go through if the removed objects vanished?

    Deterministic check: grid connectivity for the robot leg of a pick,
    segment-wise grasp side assignment (plus robot access to the first
    grasp) for a place.
    """
    test = scene.without(tuple(removed)) if removed else scene
    robot = test.robot
    if task.kind == "pick":
        free = grids.fit_mask(test, spec, robot.footprint, frozenset({robot.id}))
        return grids.grid_connected(free, spec.cell_of(robot.pose), spec.cell_of(task.waypoints[-1]), spec)
    body = test.body(task.object_id)
    ignore = frozenset({task.object_id, robot.id})
    rs = robot.w
    wps = task.waypoints
    prev_side = None
    for k, (a, b) in enumerate(zip(wps, wps[1:])):
        side = assign_leg_side(test, [a, b], body.w, body.h, rs, prev_side, ignore)
        if side is None:
            return False
        if k == 0:
            gp = grasp_pose(a, side, body.w, body.h, rs)
            free = grids.fit_mask(test, spec, robot.footprint, frozenset({robot.id, task.object_id}))
            if not grids.grid_connected(free, spec.cell_of(robot.pose), spec.cell_of(gp), spec):
                return False
        prev_side = side
    return True


def select_critical(
    scene: Scene,
    task: TaskTrajectory,
    colliders,
    skip_count: int = 0,
    *,
    spec: GridSpec,
) -> tuple[str, ...] | None:
    """Smallest collider subsets whose removal unblocks the task, in
    (cardinality, first-contact order) sequence; skip_count earlier
    feasible subsets are passed over.  Beyond CARDINALITY_CAP only
    growing prefixes of the collider list are considered."""
    colliders = list(colliders)
    subsets = itertools.chain(
        *(itertools.combinations(colliders, size) for size in range(1, CARDINALITY_CAP + 1)),
        (tuple(colliders[:size]) for size in range(CARDINALITY_CAP + 1, len(colliders) + 1)),
    )
    feasible = (sub for sub in subsets if task_feasible(scene, task, frozenset(sub), spec))
    return next(itertools.islice(feasible, skip_count, None), None)


def score_scene(gom, reach) -> float:
    """Free-and-reachable mass: the sum over cells of occupancy times
    reachability values."""
    return float((gom * reach).sum())


def score_node(s_scene: float, visits: int) -> float:
    return s_scene + C0 / math.sqrt(1.0 + visits)


def weight_objects(scene: Scene, ids) -> dict[str, float]:
    """Candidate budget weights, proportional to footprint area."""
    areas = {oid: scene.body(oid).area for oid in ids}
    top = max(areas.values(), default=1.0)
    return {oid: a / top for oid, a in sorted(areas.items())}


def decay_weight(weights: dict[str, float], oid: str) -> dict[str, float]:
    """Halve oid's budget weight, down to a floor of 0.05."""
    out = dict(weights)
    if oid in out:
        out[oid] = max(out[oid] * 0.5, 0.05)
    return out


def gen_relocation_points(
    scene: Scene,
    object_id: str,
    k: int,
    *,
    spec: GridSpec,
    avoid_cells=frozenset(),
) -> list[Pose2]:
    """Up to k collision-free parking poses near the object, widest
    clearance first.

    Candidates come from a window reaching 1.5 object sides out from the
    object's center (retried once at 3 sides),
    must keep CLEARANCE_MIN cells from anything occupied, stay off the
    avoid cells and off every other goal footprint, and survive an exact
    collision check.
    """
    body = scene.body(object_id)
    occ = grids.occupancy_mask(scene, spec, exclude=frozenset({object_id}))
    free = grids.fit_mask(scene, spec, body.footprint, frozenset({object_id}))
    # every other goal's rect, with rect_at's arithmetic: one column each
    goals = []
    for oid in sorted(scene.goals):
        if oid != object_id:
            g, b = scene.goal_of(oid), scene.body(oid)
            goals.append((g.x - b.w / 2.0, g.y - b.h / 2.0, g.x + b.w / 2.0, g.y + b.h / 2.0))
    gx0, gy0, gx1, gy1 = np.array(goals, dtype=float).reshape(-1, 4).T

    def window_candidates(scale: float):
        """The window's candidate cells in (iy, ix) order: their
        clearances and their (ix, iy) indices."""
        hx, hy = scale * body.w, scale * body.h
        win = Rect(body.pose.x - hx, body.pose.y - hy, body.pose.x + hx, body.pose.y + hy)
        ix0, ix1, iy0, iy1 = spec.rect_cells(win)
        # the clearance of the window's cells alone
        clearance = grids.edt(occ, (ix0, ix1, iy0, iy1))
        iy, ix = np.nonzero(free[iy0 : iy1 + 1, ix0 : ix1 + 1] & ~(clearance < CLEARANCE_MIN))
        c = clearance[iy, ix]
        ix += ix0
        iy += iy0
        # cell centres (GridSpec.center) and their footprints (rect_at)
        x = spec.origin.x + (ix + 0.5) * spec.cell_w
        y = spec.origin.y + (iy + 0.5) * spec.cell_h
        x0, y0 = x - body.w / 2.0, y - body.h / 2.0
        x1, y1 = x + body.w / 2.0, y + body.h / 2.0
        keep = np.ones(len(c), dtype=bool)
        if avoid_cells:
            keep &= ~grids.rects_meet_cells(spec, avoid_cells, x0, y0, x1, y1)
        # rects_overlap with any other goal rect: (cells x goals)
        over = np.minimum(x1[:, None], gx1) - np.maximum(x0[:, None], gx0) > EPS
        over &= np.minimum(y1[:, None], gy1) - np.maximum(y0[:, None], gy0) > EPS
        keep &= ~over.any(axis=1)
        # collides(scene, object_id, centre), the robot's row included
        keep[keep] = ~footprints_collide_xy(scene, body.footprint, x[keep], y[keep], frozenset({object_id}))
        return c[keep], ix[keep], iy[keep]

    c, ix, iy = window_candidates(1.5)
    if not len(c):
        c, ix, iy = window_candidates(3.0)
    # widest clearance first; the stable sort keeps ties in (iy, ix) order
    best = np.argsort(-c, kind="stable")[:k]
    return [spec.center(cell) for cell in zip(ix[best].tolist(), iy[best].tolist())]


def expand_crit(scene: Scene, skip, counts: dict[str, int]) -> str | None:
    """The movable outside skip most often found blocking relocation
    attempts; ties go to the larger object, then the smaller id."""
    pool = [
        (cnt, oid)
        for oid, cnt in counts.items()
        if cnt > 0 and oid not in skip and scene.has_body(oid)
    ]
    if not pool:
        return None
    return min(pool, key=lambda t: (-t[0], -scene.body(t[1]).area, t[1]))[1]


def plan_relocation(
    scene: Scene, object_id: str, target: Pose2, seed: int, *, spec: GridSpec,
    rrt_max_iters: int = 5000,
) -> tuple[MotionPlan | PendingPlan, Scene] | None:
    """One pick and one place moving object_id to target, or None.  Legs
    that pass birrt's prechecks are left unsampled (plan_pick_place's
    defer)."""
    sg0 = solve_pick_config(scene, object_id)
    if sg0 is None:
        return None
    sg1 = Subgoal(target, sg0.grasp_side)
    try:
        plan, after = motion.plan_pick_place(
            scene, object_id, [sg0, sg1], seed=seed, spec=spec,
            max_iters=rrt_max_iters, purpose="relocation", defer=True,
        )
    except InfeasibleLeg:
        return None
    return plan, after


@dataclass
class SearchNode:
    nid: int
    scene: Scene
    plans: tuple[MotionPlan | PendingPlan, ...]
    s_scene: float
    visits: int = 0


@dataclass
class RelocationSearchResult:
    success: bool
    scene: Scene
    plans: tuple[MotionPlan, ...] = ()
    iterations: int = 0
    failed_attempts: int = 0
    trace: dict = field(default_factory=dict)
    reason: str | None = None


def _intent_route(scene: Scene, object_id: str, target: Pose2, spec: GridSpec):
    """Object-footprint route to the target through statics alone, or None."""
    b = scene.body(object_id)
    aux = scene.statics_only(keep=object_id)
    free = grids.fit_mask(aux, spec, b.footprint, frozenset({object_id, aux.robot.id}))
    cells = grids.grid_path(free, spec.cell_of(b.pose), spec.cell_of(target))
    if cells is None:
        return None
    mids = tuple(spec.center(c) for c in cells[1:-1])
    return (b.pose,) + mids + (target,)


def reachable_sides(scene: Scene, object_id: str, spec: GridSpec) -> bool:
    """Whether the robot can reach some grasp pose of the object over the
    grid: grids.grid_connected from the robot's grid anchor to a grasp
    cell, with the anchor found once for all four sides; False when the
    robot has no anchor."""
    robot = scene.robot
    free = grids.fit_mask(scene, spec, robot.footprint, frozenset({robot.id}))
    rc = grids.grid_anchor(free, spec, robot.pose)
    if rc is None:
        return False
    labels = grids.component_labels(free, spec)
    b = scene.body(object_id)
    for side in SIDES:
        gp = grasp_pose(b.pose, side, b.w, b.h, robot.w)
        gc = grids.snap_to_free(free, spec.cell_of(gp))
        if gc is not None and labels[gc[1], gc[0]] == labels[rc[1], rc[0]]:
            return True
    return False


def search_relocations(
    scene: Scene,
    task: TaskTrajectory,
    skip_count: int = 0,
    *,
    seed: int = 0,
    spec: GridSpec,
    rrt_max_iters: int = 5000,
    deadline: float | None = None,
) -> RelocationSearchResult:
    """Beam search over relocations until the task becomes feasible.

    skip_count selects which minimal critical subset seeds the search, so
    successive calls after outer-loop failures try different blockers.
    Each iteration expands the open node with the best score_node (bonus
    C0), tries up to K_MAX candidates per critical object scaled by its
    weight, and keeps the BEAM_WIDTH best-scored nodes open; the search
    gives up after ITERATION_LIMIT iterations, and STALL_LIMIT iterations
    without a better scene add one blocker to the critical set, never the
    task's own object.
    Once time.monotonic() passes deadline, no further iteration starts and
    the search fails with reason "timeout".  A first iteration that reaches
    no critical object ends the search with reason "no critical object
    reachable", as every later one would repeat it.

    A child's motions are planned lazily (Bohlin and Kavraki's lazy edge
    evaluation).  plan_relocation leaves every Bi-RRT leg that passes
    birrt's prechecks unsampled (motion.DeferredLeg).  Every leg ends at
    its goal, so the child's scene (the object at its target, the robot at
    the chosen side's offset from it) is known either way, and scores,
    task_feasible, node ids, seeds and blame counts are those of eager
    planning as long as every deferred leg finds its path, as nearly all
    do.  Deferred legs are planned only on the returned chain
    (PendingPlan.resolve).  Should one find no path there, the plan that
    holds it counts as one failed relocation: it is blamed as a plan that
    fails at once is, every node whose chain holds it leaves the open set
    (the expanded node too, which is then expanded no further), and the
    search goes on; it never returns an unplanned chain.  trace counts the
    children left pending ("deferred") and the pending plans the returned
    chain resolved ("resolved").

    Blame is lazy too.  A failed relocation blames the movables on its
    intent route (the object's statics-only grid route to its target), and
    only expand_crit reads those counts.  So each failure is recorded as
    (scene, object, target), and the recorded failures are blamed, in the
    order they failed, just before expand_crit is called; those still
    unblamed when the search returns or times out are dropped.  Blaming
    reads only those immutable inputs and the counts are sums, so every
    expansion sees, and the trace records, the counts of blaming each
    failure at once.
    """
    colliders = find_colliding(scene, task, spec)
    trace: dict = {"colliders": list(colliders), "expanded": [], "candidates": 0, "deferred": 0, "resolved": 0}
    if not colliders:
        if task_feasible(scene, task, frozenset(), spec):
            return RelocationSearchResult(True, scene, (), 0, 0, trace)
        return RelocationSearchResult(False, scene, (), 0, 0, trace, reason="blocked by statics")
    crit = select_critical(scene, task, colliders, skip_count, spec=spec)
    if crit is None:
        return RelocationSearchResult(False, scene, (), 0, 0, trace, reason="no critical subset unblocks the task")
    crit = list(crit)
    trace["initial_crit"] = list(crit)
    weights = weight_objects(scene, crit)
    counts: dict[str, int] = {}
    task_cells = frozenset(task.cells)

    def scene_score(s: Scene) -> float:
        return score_scene(grids.rasterize_gom(s, task.cells, spec), grids.reachability(s, spec))

    # failed relocations (scene, object, target), blamed only when
    # expand_crit is about to read the counts
    unblamed: list[tuple[Scene, str, Pose2]] = []

    def blame(s: Scene, oid: str, target: Pose2):
        # blame whatever sits on the statics-feasible route to the target;
        # a straight segment misses blockers that only matter once walls
        # force a detour
        route = _intent_route(s, oid, target, spec)
        if route is not None:
            cells = grids.swept_cells(spec, s.body(oid).footprint, route)
            intent = TaskTrajectory("place", oid, route, tuple(cells))
            for blocker in find_colliding(s, intent, spec):
                counts[blocker] = counts.get(blocker, 0) + 1

    def resolve(chain):
        """The chain's plans, each PendingPlan planned; on a plan that
        fails, None and that plan."""
        plans = []
        for p in chain:
            if isinstance(p, PendingPlan):
                try:
                    p = p.resolve()
                except RuntimeError:
                    return None, p
            plans.append(p)
        return tuple(plans), None

    nodes: list[SearchNode] = [SearchNode(0, scene, (), scene_score(scene))]
    open_ids = [0]
    best_score = nodes[0].s_scene
    stall = 0
    failed = 0

    reason, iterations = "iteration limit", ITERATION_LIMIT
    for it in range(1, ITERATION_LIMIT + 1):
        if not open_ids:
            break
        if deadline is not None and time.monotonic() > deadline:
            reason, iterations = "timeout", it - 1
            break
        nid = max(
            open_ids,
            key=lambda i: (score_node(nodes[i].s_scene, nodes[i].visits), -i),
        )
        node = nodes[nid]
        node.visits += 1
        improved = False
        reached = False

        for oid in list(crit):
            if not reachable_sides(node.scene, oid, spec):
                continue
            reached = True
            budget = max(1, math.ceil(weights.get(oid, 1.0) * K_MAX))
            points = gen_relocation_points(node.scene, oid, budget, spec=spec, avoid_cells=task_cells)
            trace["candidates"] += len(points)
            if not points:
                weights = decay_weight(weights, oid)
                continue
            success_any = False
            dropped = False
            for ci, target in enumerate(points):
                res = plan_relocation(
                    node.scene, oid, target,
                    _mix_seed(seed, "reloc", node.nid, oid, ci),
                    spec=spec, rrt_max_iters=rrt_max_iters,
                )
                if res is None:
                    failed += 1
                    unblamed.append((node.scene, oid, target))
                    continue
                plan, after = res
                trace["deferred"] += isinstance(plan, PendingPlan)
                chain = node.plans + (plan,)
                if task_feasible(after, task, frozenset(), spec):
                    plans, bad = resolve(chain)
                    if bad is None:
                        trace["nodes"] = len(nodes) + 1
                        trace["final_crit"] = list(crit)
                        trace["resolved"] = sum(isinstance(p, PendingPlan) for p in chain)
                        return RelocationSearchResult(True, after, plans, it, failed, trace)
                    # a deferred leg found no path: the plan failed after all
                    failed += 1
                    unblamed.append((bad.scene, bad.object_id, bad.after.body(bad.object_id).pose))
                    open_ids = [i for i in open_ids if not any(p is bad for p in nodes[i].plans)]
                    if bad is plan:
                        continue
                    # the expanded node's own chain failed: stop expanding it
                    dropped = True
                    break
                child = SearchNode(len(nodes), after, chain, scene_score(after))
                nodes.append(child)
                open_ids.append(child.nid)
                success_any = True
                if child.s_scene > best_score + 1e-9:
                    best_score = child.s_scene
                    improved = True
            if dropped:
                break
            if not success_any:
                weights = decay_weight(weights, oid)

        if it == 1 and not reached:
            # nothing reachable: no candidate was made and nothing blamed,
            # so the critical set cannot grow and every later iteration
            # would repeat this one on the same scene
            reason, iterations = "no critical object reachable", 1
            break

        open_ids.sort(key=lambda i: (-nodes[i].s_scene, i))
        del open_ids[BEAM_WIDTH:]

        if improved:
            stall = 0
        else:
            stall += 1
            if stall >= STALL_LIMIT:
                for entry in unblamed:
                    blame(*entry)
                unblamed.clear()
                # the served object may be blamed, but moving it would
                # leave the task's route behind
                extra = expand_crit(scene, (*crit, task.object_id), counts)
                if extra is not None:
                    crit.append(extra)
                    weights = weight_objects(scene, crit)
                    trace["expanded"].append({"iteration": it, "object": extra, "counts": dict(counts)})
                stall = 0

    trace["nodes"] = len(nodes)
    trace["final_crit"] = list(crit)
    return RelocationSearchResult(False, scene, (), iterations, failed, trace, reason=reason)
