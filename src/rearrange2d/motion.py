"""Motion planning: Bi-RRT paths, grasp configurations, pick-and-place chains.

The robot is a translating square that attaches flush to one of an
object's four faces; a pick is an attach event, a place a detach.  Object
transport legs follow the object's placement path; free relocations plan
with the compound (robot + object) footprint.
"""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from itertools import chain, repeat

import numpy as np

from . import grids
from .grids import GridSpec
from .world import (
    Pose2,
    Scene,
    footprint_collides,
    footprint_collides_xy,
    footprints_collide_xy,
    inflate,
    left_sum,
    segment_hits,
    segment_hits_xy,
)

SIDES = ("N", "E", "S", "W")
_SIDE_DIR = {"N": (0.0, 1.0), "E": (1.0, 0.0), "S": (0.0, -1.0), "W": (-1.0, 0.0)}

# share of Bi-RRT samples aimed at the other tree's root
GOAL_BIAS = 0.1
# random shortcut tries that smooth each Bi-RRT path
SHORTCUT_ATTEMPTS = 100
# Bi-RRT nearest-node lookahead: plain scans for the first LOOKAHEAD_WARMUP
# iterations, then blocks of LOOKAHEAD_BLOCK samples doubling up to
# LOOKAHEAD_BLOCK_MAX, and shorter where one block pass would exceed
# LOOKAHEAD_CELLS (query, node) pairs; short calls grow their trees fast
# and would pay for blocks whose new nodes they scan anyway
LOOKAHEAD_WARMUP = 256
LOOKAHEAD_BLOCK = 64
LOOKAHEAD_BLOCK_MAX = 1024
LOOKAHEAD_CELLS = 1 << 18
# select_subgoals' step: KAPPA times the static clearance
KAPPA = 2.0


def robot_parts(scene: Scene):
    rs = scene.robot.w
    return ((0.0, 0.0, rs, rs),)


def side_offset(side: str, ow: float, oh: float, rs: float) -> tuple[float, float]:
    """Robot-center offset from the object center for a flush side grasp."""
    dx, dy = _SIDE_DIR[side]
    return (dx * (ow + rs) / 2.0, dy * (oh + rs) / 2.0)


def contact_point(side: str, pose: Pose2, ow: float, oh: float) -> Pose2:
    dx, dy = _SIDE_DIR[side]
    return Pose2(pose.x + dx * ow / 2.0, pose.y + dy * oh / 2.0)


def compound_parts(side: str, ow: float, oh: float, rs: float):
    """Object + attached robot, in the object's reference frame."""
    rx, ry = side_offset(side, ow, oh, rs)
    return ((0.0, 0.0, ow, oh), (rx, ry, rs, rs))


@dataclass(frozen=True)
class Path:
    waypoints: tuple[Pose2, ...]

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise ValueError("a path needs at least 2 waypoints")

    @property
    def length(self) -> float:
        return left_sum(a.dist(b) for a, b in zip(self.waypoints, self.waypoints[1:]))


@dataclass(frozen=True)
class ObjectPath:
    object_id: str
    waypoints: tuple[Pose2, ...]

    @property
    def length(self) -> float:
        return left_sum(a.dist(b) for a, b in zip(self.waypoints, self.waypoints[1:]))


@dataclass(frozen=True)
class Subgoal:
    object_pose: Pose2
    contact_point: Pose2
    grasp_side: str
    # object poses the transport leg must pass through before object_pose
    # (the placement-path geometry between this subgoal and the previous one)
    via: tuple[Pose2, ...] = ()


@dataclass(frozen=True)
class PickPlacePair:
    pick: Path                      # robot alone, ends at the grasp pose
    place: Path                     # robot poses while rigidly attached
    object_waypoints: tuple[Pose2, ...]
    subgoal: Subgoal
    robot_offset: tuple[float, float]   # robot center minus object center


@dataclass(frozen=True)
class MotionPlan:
    object_id: str
    pairs: tuple[PickPlacePair, ...]
    purpose: str = "goal"           # "goal" or "relocation"

    @property
    def pnp_count(self) -> int:
        return len(self.pairs)

    @property
    def travel_distance(self) -> float:
        return left_sum(p.pick.length + p.place.length for p in self.pairs)


class SubgoalBlocked(Exception):
    """No grasp side admits a required transport leg.

    subgoal is the index of the first subgoal left without a side, and pose
    its object pose: 0 for the initial grasp when the first leg fails, k
    for the end of leg k when a later leg fails.
    """

    def __init__(self, subgoal: int, pose: Pose2):
        super().__init__(
            f"no feasible grasp side for subgoal {subgoal} at ({pose.x:.3f}, {pose.y:.3f})"
        )
        self.subgoal = subgoal
        self.pose = pose


class InfeasibleLeg(Exception):
    """A pick or place leg could not be planned in the current scene."""

    def __init__(self, kind: str, object_id: str, leg: int, side: str, start: Pose2, goal: Pose2):
        super().__init__(f"{kind} leg {leg} ({side}) infeasible for {object_id}")
        self.kind = kind
        self.object_id = object_id
        self.leg = leg
        self.side = side
        self.start = start
        self.goal = goal


def _normalize_parts(footprint):
    if isinstance(footprint, (tuple, list)) and len(footprint) == 2 and all(
        isinstance(v, (int, float)) for v in footprint
    ):
        return ((0.0, 0.0, float(footprint[0]), float(footprint[1])),)
    return tuple(tuple(p) for p in footprint)


def sweep_clear(scene: Scene, parts, poses, ignore=frozenset()) -> bool:
    """Exact swept collision test for a footprint along a polyline.

    Vertex poses are checked for containment and overlap; between
    vertices the swept-rectangle test is exact, so clearance does not
    depend on any sampling resolution.
    """
    pts = list(poses)
    if not pts:
        return True
    for p in pts:
        if footprint_collides(scene, parts, p, ignore):
            return False
    obstacles = inflate(scene, parts, ignore)
    for a, b in zip(pts, pts[1:]):
        if a.dist(b) >= 1e-12 and segment_hits(obstacles, a, b):
            return False
    return True


def _nearest(pts, q: tuple[float, float]) -> tuple[int, float]:
    """Index of the first of the packed (x, y) points nearest the point q,
    and its distance.  math.dist and math.hypot share one norm, so each
    distance is the double Pose2.dist gives; min keeps the first minimum,
    and so does index."""
    ds = list(map(math.dist, pts, repeat(q, len(pts))))
    d = min(ds)
    return ds.index(d), d


def _columns(pts) -> np.ndarray:
    """The packed (x, y) points as a (2, n) array: a contiguous row of x
    and one of y."""
    return np.fromiter(chain.from_iterable(pts), float, 2 * len(pts)).reshape(-1, 2).T.copy()


def _block_nearest(p, q) -> list[int]:
    """For each query column of q, the index _nearest gives among the point
    columns of p, or -1 where the squared distances cannot tell; p and q
    are _columns arrays.

    One numpy pass over (queries x points).  The differences are the ones
    math.dist takes, and the squared sums are within a few ulps of exact,
    so when every other point's squared distance exceeds the row's minimum
    by the 1e-12 relative margin (plus an absolute 1e-300 for underflow),
    that point is the unique nearest under math.dist too.  Rows with a
    second point inside the margin are ambiguous: -1.
    """
    d2 = np.subtract.outer(q[0], p[0])
    d2 *= d2
    dy = np.subtract.outer(q[1], p[1])
    dy *= dy
    d2 += dy
    near = d2.argmin(axis=1)
    r = np.arange(len(near))
    bound = d2[r, near]
    bound *= 1.0 + 1e-12
    bound += 1e-300
    # a second point within the margin is the smallest left once the
    # minimum is masked
    d2[r, near] = np.inf
    near[d2.min(axis=1) <= bound] = -1
    return near.tolist()


def _steps_collide(scene: Scene, parts, ignore, step: float, a, q, d) -> list[bool]:
    """Per column, whether footprint_collides_xy(scene, parts, bx, by,
    ignore) holds at the point (bx, by) birrt's grow steps to from node a
    toward sample q, at distance d (math.dist(a, q)); a and q are
    _columns arrays.

    Each ufunc is one Python operation of grow, in the same order, so
    every endpoint is the same double; world.footprints_collide_xy then
    tests them.  A d below 1e-12, where grow adds nothing without a test,
    is raised to 1e-12 to keep the division finite.
    """
    t = np.minimum(1.0, step / np.maximum(d, 1e-12))
    bx = a[0] + (q[0] - a[0]) * t
    by = a[1] + (q[1] - a[1]) * t
    return footprints_collide_xy(scene, parts, bx, by, ignore).tolist()


def _nearest_since(pts, q, row: int, n0: int) -> tuple[int, float]:
    """_nearest(pts, q), given row, what _block_nearest gave q when pts held
    its first n0 points.  Points are only appended, so one appended since
    wins only when strictly closer than the row's point, which keeps ties
    at the lowest index; an ambiguous row takes the full scan."""
    if row < 0:
        return _nearest(pts, q)
    d = math.dist(pts[row], q)
    for j in range(n0, len(pts)):
        dj = math.dist(pts[j], q)
        if dj < d:
            row, d = j, dj
    return row, d


def birrt(
    scene: Scene,
    footprint,
    start: Pose2,
    goal: Pose2,
    seed: int,
    max_iters: int = 5000,
    *,
    ignore=frozenset(),
    spec: GridSpec,
) -> Path | None:
    """Bi-directional RRT over a translating footprint, with shortcut smoothing.

    Deterministic for a fixed seed.  The tuning is fixed: each extension
    moves at most half the robot side, GOAL_BIAS of the samples are the
    other tree's root, and SHORTCUT_ATTEMPTS random shortcuts smooth the
    result.  When the start has a grid anchor (grids.grid_anchor), a grid
    connectivity precheck on spec rejects disconnected queries quickly.  A
    start with no anchor, such as a robot flush against the object it just
    placed in a pocket narrower than a cell, has passed the exact footprint
    test, so the query skips the precheck and samples as a connected one
    does.  If sampling exhausts max_iters while the grid still shows a
    route, the grid path is used as a fallback so narrow but feasible
    corridors do not read as infeasible; that route, like a sampled one,
    ends at goal itself.  With no anchored start there is no grid route.

    Samples, tree nodes and waypoints are plain (x, y) tuples, tested with
    the collision kernel's point-level entries: a tree holds only its
    packed points and their parent indices, and Pose2 objects are built
    only for the returned path, whose ends are the caller's start and goal
    objects.  The nearest-node scan is one _nearest pass and is exact:
    every distance is the double Pose2.dist gives (math.dist), and ties go
    to the lowest node index.  A connect step scans once and then updates
    its nearest node incrementally: the target is fixed and each step adds
    the tree's last node, which is nearer only when its distance is
    strictly smaller.  So the path is the one a per-step Pose2.dist loop
    with a strict < finds.

    Past LOOKAHEAD_WARMUP iterations the extend step's scans are answered
    a block at a time, with the same result.  The sample stream does not
    depend on the trees: each iteration draws rng.random() and, unless
    goal-biased, two uniform draws; a goal-biased sample is the other
    tree's root, which never changes; and the trees swap every iteration.
    So a block's samples, and the tree each one queries, are drawn ahead
    through the same rng methods (a random.Random subclass still drives
    them), and _block_nearest finds each query's nearest node among the
    nodes each tree has when the block starts.  Trees only grow by
    appending, so at query time a node appended since then wins only when
    its exact distance is strictly smaller than that node's (the strict <
    keeps ties at the lowest index).  A row whose squared distances leave
    a second node within _block_nearest's margin of the minimum is
    ambiguous and takes the full _nearest scan.  On a bridge inside a
    block, the generator is rewound to the block's start and exactly the
    consumed iterations are drawn again, so shortcut smoothing sees the
    state per-iteration draws leave.

    A block also decides, with _steps_collide on the same node and sample
    arrays, whether the step from each row's node toward its sample ends
    in collision.  A row whose node is still the nearest after the scan of
    appended nodes, and whose step is blocked, is skipped: grow would find
    that endpoint blocked and add nothing, and iterate would change no
    tree and draw nothing.  Ambiguous rows, rows an appended node
    overtook and free steps go through iterate as before, so every path
    and every draw is the same.

    Smoothing draws two waypoint indices per attempt and cuts the path
    between them when the segment test allows.  Every waypoint was already
    found free (the start, the goal, or the far end of an edge_free test),
    so edge_free's footprint test at the far end would always pass and the
    segment test alone gives its answer.  That test is a pure function of
    its two points, so a point pair it rejected once in the call is not
    tested again.  Once every index pair the draws can reach (the
    (m - 1)(m - 2) / 2 pairs at least two apart among the first m
    waypoints) is known to be blocked since the last cut, no later attempt
    can change the path, and the loop ends; so does a path with m <= 2,
    where no such pair exists.  rng is not read after the loop, so ending
    it early returns the path all SHORTCUT_ATTEMPTS attempts would.
    """
    parts = _normalize_parts(footprint)
    step = 0.5 * scene.robot.w
    obstacles = inflate(scene, parts, ignore)

    def edge_free(ax, ay, bx, by) -> bool:
        # a is always a point already tested; the segment test is exact, so
        # workspace containment follows from endpoint containment
        return not footprint_collides_xy(scene, parts, bx, by, ignore) and not segment_hits_xy(
            obstacles, ax, ay, bx, by
        )

    sx, sy, gx, gy = start.x, start.y, goal.x, goal.y
    if footprint_collides_xy(scene, parts, sx, sy, ignore) or footprint_collides_xy(
        scene, parts, gx, gy, ignore
    ):
        return None
    if start.dist(goal) < 1e-12 or edge_free(sx, sy, gx, gy):
        return Path((start, goal))

    free = grids.fit_mask_parts(scene, spec, parts, ignore)
    # a start with no grid anchor is exactly free all the same, so only an
    # anchored start lets the grid call the query disconnected
    anchor = grids.grid_anchor(free, spec, start)
    if anchor is not None and not grids.grid_connected(free, anchor, spec.cell_of(goal), spec):
        return None

    rng = random.Random(seed)
    uniform = rng.uniform
    ws = scene.workspace

    # a tree is its packed (x, y) points and their parent indices
    ta = ([(sx, sy)], [-1])
    tb = ([(gx, gy)], [-1])

    def grow(tree, q, i, d):
        """One step from node i, at distance d, toward q; new index or -1."""
        if d < 1e-12:
            return -1
        pts, parents = tree
        ax, ay = pts[i]
        qx, qy = q
        t = min(1.0, step / d)
        bx = ax + (qx - ax) * t
        by = ay + (qy - ay) * t
        if not edge_free(ax, ay, bx, by):
            return -1
        pts.append((bx, by))
        parents.append(i)
        return len(pts) - 1

    def connect(tree, q):
        # q stays fixed and each step adds one node, the last, so the nearest
        # node after a step is that node if strictly closer (a step toward q
        # always ends closer), else unchanged
        i, d = _nearest(tree[0], q)
        last = -1
        while True:
            j = grow(tree, q, i, d)
            if j < 0:
                return last
            last = j
            dj = math.dist(tree[0][j], q)
            if dj < 1e-9:
                return j
            if dj < d:
                i, d = j, dj

    # iteration k extends trees[k & 1]; a goal-biased sample is the other
    # tree's root
    trees = (ta, tb)
    roots = (tb[0][0], ta[0][0])

    def draw(k):
        """Iteration k's sample; the draws never depend on the trees."""
        if rng.random() < GOAL_BIAS:
            return roots[k & 1]
        return (uniform(ws.xmin, ws.xmax), uniform(ws.ymin, ws.ymax))

    def iterate(k, q, i, d):
        """Iteration k: extend its tree from node i, at distance d, toward q,
        then connect the other tree to the new node; the bridge or None."""
        a, b = trees[k & 1], trees[1 - (k & 1)]
        i = grow(a, q, i, d)
        if i >= 0:
            p = a[0][i]
            j = connect(b, p)
            if j >= 0 and math.dist(b[0][j], p) < 1e-9:
                return (j, i) if k & 1 else (i, j)
        return None

    def block(pts, qs):
        """_block_nearest's rows for the queries qs over the nodes pts, and
        whether the step from each row's node toward its query ends in
        collision (for an ambiguous row, from the last node; such a row is
        never skipped)."""
        p, q = _columns(pts), _columns(qs)
        rows = _block_nearest(p, q)
        d = np.fromiter(map(math.dist, map(pts.__getitem__, rows), qs), float, len(qs))
        return rows, _steps_collide(scene, parts, ignore, step, p[:, rows], q, d)

    bridge = None  # (index in ta, index in tb)
    k = 0
    warm = min(max_iters, LOOKAHEAD_WARMUP)
    while k < warm and bridge is None:
        q = draw(k)
        bridge = iterate(k, q, *_nearest(trees[k & 1][0], q))
        k += 1
    size = LOOKAHEAD_BLOCK
    while k < max_iters and bridge is None:
        n0 = (len(ta[0]), len(tb[0]))
        n = min(size, max_iters - k, max(1, LOOKAHEAD_CELLS // max(n0)))
        size = min(2 * size, LOOKAHEAD_BLOCK_MAX)
        state = rng.getstate()
        qs = [draw(k + o) for o in range(n)]
        # block offset o queries trees[(k + o) & 1], as row o >> 1
        rows, hits = zip(block(ta[0], qs[k & 1::2]), block(tb[0], qs[1 - (k & 1)::2]))
        for o, q in enumerate(qs):
            t = (k + o) & 1
            row = rows[t][o >> 1]
            i, d = _nearest_since(trees[t][0], q, row, n0[t])
            if i == row and hits[t][o >> 1]:
                # grow would add nothing, so iterate would return None
                continue
            bridge = iterate(k + o, q, i, d)
            if bridge is not None:
                # leave the generator where per-iteration draws would
                rng.setstate(state)
                for r in range(o + 1):
                    draw(k + r)
                break
        k += n

    if bridge is None:
        # sampling failed; fall back to the grid route when one exists
        cells = grids.grid_path(free, spec.cell_of(start), spec.cell_of(goal))
        if cells is None:
            return None
        waypoints = [(sx, sy)]
        for cell in cells:
            c = spec.center(cell)
            p = (c.x, c.y)
            if math.dist(p, waypoints[-1]) > 1e-12:
                waypoints.append(p)
        # end at goal itself: a last cell center within 1e-12 of it gives way
        if len(waypoints) > 1 and math.dist((gx, gy), waypoints[-1]) <= 1e-12:
            waypoints.pop()
        waypoints.append((gx, gy))
        for (ax, ay), (bx, by) in zip(waypoints, waypoints[1:]):
            if not edge_free(ax, ay, bx, by):
                return None
    else:
        ia, ib = bridge
        left = []
        while ia >= 0:
            left.append(ta[0][ia])
            ia = ta[1][ia]
        left.reverse()
        right = []
        while ib >= 0:
            right.append(tb[0][ib])
            ib = tb[1][ib]
        waypoints = left + right

    # waypoints run from the start point to the goal point, and shortcuts
    # keep both ends; blocked holds the point pairs the segment test
    # rejected in this call, known the index pairs found blocked since the
    # last cut
    blocked = set()
    known = set()
    for _ in range(SHORTCUT_ATTEMPTS):
        m = len(waypoints) - 1
        if m <= 2 or 2 * len(known) == (m - 1) * (m - 2):
            break
        i = rng.randrange(0, m)
        j = rng.randrange(0, m)
        if abs(i - j) < 2:
            continue
        i, j = min(i, j), max(i, j)
        pair = (waypoints[i], waypoints[j])
        if pair in blocked:
            known.add((i, j))
        elif not segment_hits_xy(obstacles, *pair[0], *pair[1]):
            waypoints = waypoints[: i + 1] + waypoints[j:]
            known.clear()
        else:
            blocked.add(pair)
            known.add((i, j))
    return Path((start, *[Pose2(x, y) for x, y in waypoints[1:-1]], goal))


def grasp_pose(object_pose: Pose2, side: str, ow: float, oh: float, rs: float) -> Pose2:
    dx, dy = side_offset(side, ow, oh, rs)
    return Pose2(object_pose.x + dx, object_pose.y + dy)


def solve_pick_config(scene: Scene, object_id: str) -> Subgoal | None:
    """Pick a grasp side whose flush robot pose is collision-free.

    Sides are tried in order of proximity to the robot's current position;
    None when all four are blocked.
    """
    body = scene.body(object_id)
    robot = scene.robot
    order = sorted(
        SIDES,
        key=lambda s: (robot.pose.dist(grasp_pose(body.pose, s, body.w, body.h, robot.w)), s),
    )
    for side in order:
        gp = grasp_pose(body.pose, side, body.w, body.h, robot.w)
        if not footprint_collides(scene, robot_parts(scene), gp, frozenset({robot.id})):
            return Subgoal(body.pose, contact_point(side, body.pose, body.w, body.h), side)
    return None


def plan_object_path(
    scene: Scene,
    object_id: str,
    target: Pose2,
    seed: int,
    *,
    max_iters: int = 5000,
    spec: GridSpec,
) -> ObjectPath | None:
    """Plan the object footprint alone against statics (auxiliary scene)."""
    if not scene.workspace.contains_point(target):
        return None
    body = scene.body(object_id)
    aux = scene.statics_only(keep=object_id)
    path = birrt(
        aux,
        (body.w, body.h),
        body.pose,
        target,
        seed,
        max_iters,
        ignore=frozenset({object_id, aux.robot.id}),
        spec=spec,
    )
    if path is None:
        return None
    return ObjectPath(object_id, path.waypoints)


def _arc_interp(pts, arcs, s: float) -> Pose2:
    if s <= 0:
        return pts[0]
    if s >= arcs[-1]:
        return pts[-1]
    for i in range(1, len(arcs)):
        if s <= arcs[i]:
            seg = arcs[i] - arcs[i - 1]
            t = 0.0 if seg <= 0 else (s - arcs[i - 1]) / seg
            a, b = pts[i - 1], pts[i]
            return Pose2(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
    return pts[-1]


def _leg_side_ok(scene: Scene, side: str, ow: float, oh: float, rs: float, poly, ignore) -> bool:
    gp = grasp_pose(poly[0], side, ow, oh, rs)
    if footprint_collides(scene, ((0.0, 0.0, rs, rs),), gp, ignore):
        return False
    return sweep_clear(scene, compound_parts(side, ow, oh, rs), poly, ignore)


def _side_order(*preferred) -> list[str]:
    """The preferred sides that are not None, then the rest of SIDES,
    each side once."""
    return list(dict.fromkeys([*(s for s in preferred if s is not None), *SIDES]))


def assign_leg_side(
    scene: Scene,
    poly,
    ow: float,
    oh: float,
    rs: float,
    prev_side: str | None,
    ignore=frozenset(),
) -> str | None:
    """Grasp side for one transport leg: keep the previous side when it
    still works, otherwise push from behind the dominant motion direction,
    otherwise any side that admits the sweep."""
    dx = poly[-1].x - poly[0].x
    dy = poly[-1].y - poly[0].y
    if abs(dx) >= abs(dy):
        push = "W" if dx >= 0 else "E"
    else:
        push = "S" if dy >= 0 else "N"
    for side in _side_order(prev_side, push):
        if _leg_side_ok(scene, side, ow, oh, rs, poly, ignore):
            return side
    return None


def select_subgoals(
    mu: ObjectPath,
    scene: Scene,
    *,
    spec: GridSpec,
) -> list[Subgoal]:
    """Sample subgoals along mu, densely where static clearance is low.

    Each step is KAPPA times the static clearance, clamped to
    [half the robot side, 4 x the robot side].
    The first subgoal is the initial grasp at mu's start; the last is mu's
    endpoint.  Each subgoal carries the leg's grasp side and the mu
    geometry (via points) between it and its predecessor.
    """
    if not mu.waypoints:
        raise ValueError("empty object path")
    robot = scene.robot
    rs = robot.w
    delta_min = 0.5 * rs
    delta_max = 4.0 * rs
    body = scene.body(mu.object_id)
    statics = scene.statics_only()
    clearance = grids.static_clearance(scene, spec)

    pts = list(mu.waypoints)
    arcs = [0.0]
    for a, b in zip(pts, pts[1:]):
        arcs.append(arcs[-1] + a.dist(b))
    total = arcs[-1]

    stops = [0.0]
    cur = 0.0
    while cur < total - 1e-9:
        p = _arc_interp(pts, arcs, cur)
        cx, cy = spec.cell_of(p)
        step = max(delta_min, min(KAPPA * float(clearance[cy, cx]), delta_max))
        cur = min(cur + step, total)
        stops.append(cur)

    # grasp sides per leg, checked against statics only; movable blockage
    # is discovered at planning time and handed to the relocation search.
    # Leg k runs from subgoal k-1 to subgoal k and gives subgoal k its side;
    # subgoal 0 takes leg 1's.  A zero-length mu keeps one degenerate leg.
    ignore = frozenset({mu.object_id, robot.id})
    poses = [_arc_interp(pts, arcs, s) for s in stops]
    vias = [
        tuple(pts[i] for i in range(len(pts)) if lo + 1e-9 < arcs[i] < hi - 1e-9)
        for lo, hi in zip(stops, stops[1:])
    ]
    legs = list(zip(poses, vias, poses[1:])) or [(poses[0], (), poses[0])]
    sides: list[str] = []
    for k, (a, via, b) in enumerate(legs, 1):
        prev = sides[-1] if sides else None
        side = assign_leg_side(statics, [a, *via, b], body.w, body.h, rs, prev, ignore)
        if side is None:
            # a first leg with no side leaves the initial grasp without one
            raise SubgoalBlocked(k, b) if sides else SubgoalBlocked(0, a)
        sides.append(side)
    return [
        Subgoal(p, contact_point(side, p, body.w, body.h), side, via)
        for p, side, via in zip(poses, [sides[0], *sides], [(), *vias])
    ]


def _local_cp(sg: Subgoal) -> tuple[float, float]:
    return (sg.contact_point.x - sg.object_pose.x, sg.contact_point.y - sg.object_pose.y)


def refine_subgoals(
    subgoals: list[Subgoal],
    scene: Scene,
    epsilon: float,
    *,
    object_id: str,
) -> list[Subgoal]:
    """Merge consecutive legs whose contact points (object frame) are
    within epsilon, when the combined sweep stays collision-free.

    Dropped subgoals become via points of the surviving leg, so the
    object still follows the same geometry but is released fewer times.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if len(subgoals) <= 2:
        return list(subgoals)
    body = scene.body(object_id)
    rs = scene.robot.w
    ignore = frozenset({object_id, scene.robot.id})

    out = list(subgoals)
    merged = True
    while merged:
        merged = False
        for k in range(1, len(out) - 1):
            a, b = out[k], out[k + 1]
            ca, cb = _local_cp(a), _local_cp(b)
            if math.hypot(ca[0] - cb[0], ca[1] - cb[1]) >= epsilon:
                continue
            poly = [out[k - 1].object_pose, *a.via, a.object_pose, *b.via, b.object_pose]
            if not _leg_side_ok(scene, b.grasp_side, body.w, body.h, rs, poly, ignore):
                continue
            out[k + 1] = replace(b, via=a.via + (a.object_pose,) + b.via)
            del out[k]
            merged = True
            break
    return out


def plan_pick_place(
    scene: Scene,
    object_id: str,
    subgoals: list[Subgoal],
    seed: int = 0,
    *,
    max_iters: int = 5000,
    spec: GridSpec,
    purpose: str = "goal",
) -> tuple[MotionPlan, Scene]:
    """Chain pick and place legs through the subgoal list.

    Raises InfeasibleLeg when a leg cannot be planned with any usable
    grasp side (the relocation search consumes that).
    """
    if not subgoals:
        raise ValueError("no subgoals")
    body = scene.body(object_id)
    robot = scene.robot
    rs = robot.w
    cur_scene = scene
    cur_robot = robot.pose
    pairs: list[PickPlacePair] = []

    for k in range(1, len(subgoals)):
        prev, cur = subgoals[k - 1], subgoals[k]
        poly_obj = (prev.object_pose, *cur.via, cur.object_pose)
        # side preference: the planned side, then the side already grasped
        held = pairs[-1].subgoal.grasp_side if pairs else None
        chosen = None
        last_fail = None
        for side in _side_order(cur.grasp_side, held):
            off = side_offset(side, body.w, body.h, rs)
            gp = Pose2(prev.object_pose.x + off[0], prev.object_pose.y + off[1])
            if footprint_collides(cur_scene, robot_parts(cur_scene), gp, frozenset({robot.id})):
                last_fail = ("pick", side, cur_robot, gp)
                continue
            # settle the transport route first: a hopeless place leg should
            # not cost a full pick plan (the compound query fast-fails on
            # its grid precheck when a blocker cuts the route)
            parts = compound_parts(side, body.w, body.h, rs)
            ignore = frozenset({object_id, robot.id})
            if sweep_clear(cur_scene, parts, poly_obj, ignore):
                obj_wps = poly_obj
            elif cur.via:
                last_fail = ("place", side, prev.object_pose, cur.object_pose)
                continue
            else:
                free_leg = birrt(
                    cur_scene,
                    parts,
                    prev.object_pose,
                    cur.object_pose,
                    _mix_seed(seed, k, side, 1),
                    max_iters,
                    ignore=ignore,
                    spec=spec,
                )
                if free_leg is None:
                    last_fail = ("place", side, prev.object_pose, cur.object_pose)
                    continue
                obj_wps = free_leg.waypoints
            pick = birrt(
                cur_scene,
                (rs, rs),
                cur_robot,
                gp,
                _mix_seed(seed, k, side, 0),
                max_iters,
                ignore=frozenset({robot.id}),
                spec=spec,
            )
            if pick is None:
                last_fail = ("pick", side, cur_robot, gp)
                continue
            chosen = (side, off, gp, pick, obj_wps)
            break

        if chosen is None:
            kind, side, start, goal = last_fail if last_fail else ("pick", cur.grasp_side, cur_robot, prev.object_pose)
            raise InfeasibleLeg(kind, object_id, k, side, start, goal)

        side, off, gp, pick, obj_wps = chosen
        place_wps = (gp,) + tuple(Pose2(p.x + off[0], p.y + off[1]) for p in obj_wps[1:])
        sg = cur if side == cur.grasp_side else replace(
            cur, grasp_side=side, contact_point=contact_point(side, cur.object_pose, body.w, body.h)
        )
        pairs.append(
            PickPlacePair(
                pick=pick,
                place=Path(place_wps),
                object_waypoints=tuple(obj_wps),
                subgoal=sg,
                robot_offset=off,
            )
        )
        cur_robot = place_wps[-1]
        cur_scene = cur_scene.with_pose(object_id, cur.object_pose).with_pose(robot.id, cur_robot)

    return MotionPlan(object_id, tuple(pairs), purpose), cur_scene


def _mix_seed(seed: int, *parts) -> int:
    tag = f"{seed}:" + ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "big")
