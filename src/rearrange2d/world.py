"""Geometric world model: rectangular bodies in a planar workspace.

All bodies are axis-aligned rectangles addressed by center pose.  The robot
is a translating square; rotation is not modeled, so every collision test
reduces to interval arithmetic on the two axes.

Packed rows.  Each Body carries its bounds ``(xmin, ymin, xmax, ymax)``,
computed once with ``rect_at``'s arithmetic; each Scene carries one row
``(id, xmin, ymin, xmax, ymax)`` per body, in body order; a successor scene
copies its parent's, with the moved body's row replaced or the dropped
bodies' rows left out.  Every collision test runs on these rows through
two loops that allocate no Rect or Pose2, and one batch entry:

- box overlap (``footprint_collides_xy``; ``collides`` is its one-part case
  that never ignores walls);
- the swept test (``segment_hits_xy``): one Liang-Barsky clip of a part's
  center segment against the rows grown by the part's half extents
  (``inflate``), which skips a rect the segment's bounding box at most
  touches before dividing; ``segment_hits_rect`` is its single-rect case;
  and
- the batch box overlap (``footprints_collide_xy``): one bool per point of
  two coordinate arrays, equal element by element to
  ``footprint_collides_xy`` at that point.  It repeats the loop's
  arithmetic with one numpy ufunc per Python operation, so every bound and
  overlap is the same double; the loop's four strict-order tests are
  implied by its EPS tests and are left out.  ``motion.birrt``'s lookahead
  and ``guided_search.gen_relocation_points`` ask it.

The ``_xy`` entry points take plain coordinates, so a caller that keeps
its points as floats (``motion.birrt``) builds no Pose2 to ask;
``footprint_collides`` and ``segment_hits`` are their Pose2 forms and
delegate to them.

Contract kept by every entry, so planner decisions are reproducible bit for
bit: interiors overlap iff ``min(maxes) - max(mins) > EPS`` on both axes,
so flush contact is free; containment in the workspace tolerates EPS; the
clip treats a segment parallel to an axis (``abs(p) < 1e-12``) as outside
when ``q <= EPS``, and counts a hit only when the clipped parameter
interval is longer than 1e-9, so grazing a boundary is free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Interiors closer than this are considered overlapping; flush contact
# (shared edge) is not a collision.
EPS = 1e-9

KIND_WALL = "static-wall"
KIND_OBSTACLE = "movable-obstacle"
KIND_GOAL = "goal-object"
KIND_ROBOT = "robot"

MOVABLE_KINDS = (KIND_OBSTACLE, KIND_GOAL)


def left_sum(values):
    """The sum of values added left to right from the int 0, as sum() adds
    floats up to Python 3.11; 3.12 made sum() compensated, and results
    must not depend on the Python version."""
    total = 0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class Pose2:
    x: float
    y: float

    def dist(self, other: "Pose2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle given by its corner bounds."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    def contains_rect(self, other: "Rect") -> bool:
        return (
            other.xmin >= self.xmin - EPS
            and other.ymin >= self.ymin - EPS
            and other.xmax <= self.xmax + EPS
            and other.ymax <= self.ymax + EPS
        )

    def contains_point(self, p: Pose2) -> bool:
        return self.xmin - EPS <= p.x <= self.xmax + EPS and self.ymin - EPS <= p.y <= self.ymax + EPS


def rect_at(pose: Pose2, w: float, h: float) -> Rect:
    return Rect(pose.x - w / 2.0, pose.y - h / 2.0, pose.x + w / 2.0, pose.y + h / 2.0)


def rects_overlap(a: Rect, b: Rect) -> bool:
    """True iff the interiors of a and b overlap (flush contact excluded)."""
    return (
        min(a.xmax, b.xmax) - max(a.xmin, b.xmin) > EPS
        and min(a.ymax, b.ymax) - max(a.ymin, b.ymin) > EPS
    )


@dataclass(frozen=True)
class Body:
    id: str
    w: float
    h: float
    kind: str
    pose: Pose2
    # (xmin, ymin, xmax, ymax) at pose, with rect_at's arithmetic
    bounds: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x, y = self.pose.x, self.pose.y
        object.__setattr__(
            self, "bounds", (x - self.w / 2.0, y - self.h / 2.0, x + self.w / 2.0, y + self.h / 2.0)
        )

    def rect(self) -> Rect:
        return Rect(*self.bounds)

    @property
    def footprint(self) -> tuple[tuple[float, float, float, float], ...]:
        """The body alone as footprint parts: one (dx, dy, w, h) at its center."""
        return ((0.0, 0.0, self.w, self.h),)

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def min_side(self) -> float:
        return min(self.w, self.h)


class SceneError(ValueError):
    """Raised for malformed scenes or queries about unknown bodies."""


@dataclass(frozen=True)
class Scene:
    """Immutable world state.  Successor states are built, never mutated.

    The constructor checks the scene's invariants: unique body ids, exactly
    one robot and it square, positive extents, and goals only for goal
    bodies.  The successors ``with_pose``, ``without`` and ``statics_only``
    come from ``_successor``, which copies the parent's rows and id table,
    replacing or filtering entries, and runs no check again: moving one
    body or dropping bodies other than the robot keeps every one of them.
    """

    workspace: Rect
    bodies: tuple[Body, ...]
    goals: dict[str, Pose2] = field(default_factory=dict)
    # (id, xmin, ymin, xmax, ymax) per body, in body order
    rows: tuple[tuple[str, float, float, float, float], ...] = field(
        init=False, repr=False, compare=False
    )
    # the one body of KIND_ROBOT
    robot: Body = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = [b.id for b in self.bodies]
        if len(set(ids)) != len(ids):
            raise SceneError("duplicate body ids")
        robots = [b for b in self.bodies if b.kind == KIND_ROBOT]
        if len(robots) != 1:
            raise SceneError("scene must contain exactly one robot")
        for b in self.bodies:
            if b.w <= 0 or b.h <= 0:
                raise SceneError(f"body {b.id!r} has non-positive extent")
        # the planner takes the robot's side from robot.w alone
        if robots[0].w != robots[0].h:
            raise SceneError(f"robot {robots[0].id!r} is not square")
        by_id = {b.id: b for b in self.bodies}
        for gid in self.goals:
            if gid not in by_id or by_id[gid].kind != KIND_GOAL:
                raise SceneError(f"goal assigned to non-goal body {gid!r}")
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "rows", tuple((b.id, *b.bounds) for b in self.bodies))
        object.__setattr__(self, "robot", robots[0])
        ws = self.workspace
        # Rect.contains_rect's bounds, loosened by EPS
        object.__setattr__(
            self, "_ws_loose", (ws.xmin - EPS, ws.ymin - EPS, ws.xmax + EPS, ws.ymax + EPS)
        )

    # -- lookups ----------------------------------------------------------

    def body(self, body_id: str) -> Body:
        try:
            return self._by_id[body_id]
        except KeyError:
            raise SceneError(f"unknown body id {body_id!r}") from None

    def has_body(self, body_id: str) -> bool:
        return body_id in self._by_id

    @property
    def walls(self) -> tuple[Body, ...]:
        return tuple(b for b in self.bodies if b.kind == KIND_WALL)

    @property
    def movables(self) -> tuple[Body, ...]:
        return tuple(b for b in self.bodies if b.kind in MOVABLE_KINDS)

    def goal_of(self, body_id: str) -> Pose2:
        try:
            return self.goals[body_id]
        except KeyError:
            raise SceneError(f"no goal for body {body_id!r}") from None

    # -- successors -------------------------------------------------------

    def _successor(self, bodies, goals, by_id, rows, robot) -> "Scene":
        """A scene of this workspace with the given parts, built without
        __post_init__: the caller derives them from this scene's own."""
        s = object.__new__(Scene)
        vars(s).update(
            workspace=self.workspace, bodies=bodies, goals=goals, rows=rows, robot=robot,
            _by_id=by_id, _ws_loose=self._ws_loose,
        )
        return s

    def with_pose(self, body_id: str, pose: Pose2) -> "Scene":
        old = self.body(body_id)
        new = Body(old.id, old.w, old.h, old.kind, pose)
        for i, b in enumerate(self.bodies):
            if b is old:
                break
        by_id = dict(self._by_id)
        by_id[body_id] = new
        return self._successor(
            self.bodies[:i] + (new,) + self.bodies[i + 1 :],
            self.goals,
            by_id,
            self.rows[:i] + ((body_id, *new.bounds),) + self.rows[i + 1 :],
            new if old is self.robot else self.robot,
        )

    def without(self, ids) -> "Scene":
        drop = set(ids)
        if KIND_ROBOT in {self.body(i).kind for i in drop}:
            raise SceneError("cannot remove the robot")
        return self._keeping(self._by_id.keys() - drop)

    def statics_only(self, keep: str | None = None) -> "Scene":
        """Walls and the robot only; optionally keep one movable body."""
        return self._keeping(
            {b.id for b in self.bodies if b.kind == KIND_WALL or b.kind == KIND_ROBOT or b.id == keep}
        )

    def _keeping(self, ids) -> "Scene":
        """The successor with the bodies whose ids are in ids, and their
        goals; ids holds the robot's."""
        bodies = tuple(b for b in self.bodies if b.id in ids)
        return self._successor(
            bodies,
            {k: v for k, v in self.goals.items() if k in ids},
            {b.id: b for b in bodies},
            tuple(r for r in self.rows if r[0] in ids),
            self.robot,
        )

    def validate(self) -> list[str]:
        """Scene-invariant audit; returns a list of violation messages."""
        problems = []
        for b in self.bodies:
            if not self.workspace.contains_rect(b.rect()):
                problems.append(f"{b.id} outside workspace")
        non_robot = [b for b in self.bodies if b.kind != KIND_ROBOT]
        for i, a in enumerate(non_robot):
            for b in non_robot[i + 1 :]:
                if rects_overlap(a.rect(), b.rect()):
                    problems.append(f"{a.id} overlaps {b.id}")
        robot = self.robot
        for b in non_robot:
            if rects_overlap(robot.rect(), b.rect()):
                problems.append(f"{robot.id} overlaps {b.id}")
        for gid, gp in self.goals.items():
            body = self.body(gid)
            if not self.workspace.contains_rect(rect_at(gp, body.w, body.h)):
                problems.append(f"goal of {gid} outside workspace")
        return problems


def collides(scene: Scene, body_id: str, pose: Pose2) -> bool:
    """Does body_id placed at pose hit the boundary, a wall, or another body?

    The queried body itself is never counted.
    """
    return footprint_collides(scene, scene.body(body_id).footprint, pose, frozenset({body_id}))


def footprint_collides(scene: Scene, parts, pose: Pose2, ignore=frozenset()) -> bool:
    """Collision test for a rigid multi-rectangle footprint at a reference pose.

    parts: iterable of (dx, dy, w, h) offsets relative to the reference pose.
    A part collides when it leaves the workspace or its interior overlaps
    the row of a body not in ignore.
    """
    return footprint_collides_xy(scene, parts, pose.x, pose.y, ignore)


def footprint_collides_xy(scene: Scene, parts, x: float, y: float, ignore=frozenset()) -> bool:
    """``footprint_collides`` with the reference pose given as x, y."""
    wx0, wy0, wx1, wy1 = scene._ws_loose
    rows = scene.rows
    for dx, dy, w, h in parts:
        cx = x + dx
        cy = y + dy
        x0 = cx - w / 2.0
        y0 = cy - h / 2.0
        x1 = cx + w / 2.0
        y1 = cy + h / 2.0
        if not (x0 >= wx0 and y0 >= wy0 and x1 <= wx1 and y1 <= wy1):
            return True
        # The four comparisons are implied by the EPS test (a float difference
        # is positive only if its operands are ordered), so they only reject
        # early; min/max are spelled out with the builtins' tie rules.
        for bid, bx0, by0, bx1, by1 in rows:
            if (
                bx0 < x1 and x0 < bx1 and by0 < y1 and y0 < by1
                and (bx1 if bx1 < x1 else x1) - (bx0 if bx0 > x0 else x0) > EPS
                and (by1 if by1 < y1 else y1) - (by0 if by0 > y0 else y0) > EPS
                and bid not in ignore
            ):
                return True
    return False


def footprints_collide_xy(scene: Scene, parts, xs, ys, ignore=frozenset()) -> np.ndarray:
    """Per point (xs[i], ys[i]), footprint_collides_xy(scene, parts, xs[i],
    ys[i], ignore), as a bool array; xs and ys are float arrays of one shape
    (n,).

    Each ufunc is one Python operation of the loop, in the same order, so
    every bound and overlap is the same double.  The loop's four
    strict-order tests are implied by its EPS tests and are left out.
    """
    wx0, wy0, wx1, wy1 = scene._ws_loose
    rx0, ry0, rx1, ry1 = (
        np.array([r[1:] for r in scene.rows if r[0] not in ignore], dtype=float).reshape(-1, 4).T[:, :, None]
    )
    hit = np.zeros(len(xs), dtype=bool)
    for dx, dy, w, h in parts:
        cx = xs + dx
        cy = ys + dy
        x0 = cx - w / 2.0
        y0 = cy - h / 2.0
        x1 = cx + w / 2.0
        y1 = cy + h / 2.0
        hit |= ~((x0 >= wx0) & (y0 >= wy0) & (x1 <= wx1) & (y1 <= wy1))
        over = np.minimum(rx1, x1) - np.maximum(rx0, x0) > EPS
        over &= np.minimum(ry1, y1) - np.maximum(ry0, y0) > EPS
        hit |= over.any(axis=0)
    return hit


def inflate(scene: Scene, parts, ignore=frozenset()):
    """Per part, (dx, dy, rects): each row not in ignore grown by the part's
    half extents.

    A part translating along a segment hits a body exactly when the part
    center segment, shifted by (dx, dy), enters the grown rect.
    """
    out = []
    for dx, dy, w, h in parts:
        hw, hh = w / 2, h / 2
        rects = tuple(
            (x0 - hw, y0 - hh, x1 + hw, y1 + hh)
            for bid, x0, y0, x1, y1 in scene.rows
            if bid not in ignore
        )
        out.append((dx, dy, rects))
    return out


def segment_hits(inflated, a: Pose2, b: Pose2) -> bool:
    """Swept test: does any part moving from a to b enter a body's interior?

    inflated comes from ``inflate``.
    """
    return segment_hits_xy(inflated, a.x, a.y, b.x, b.y)


def segment_hits_xy(inflated, ax: float, ay: float, bx: float, by: float) -> bool:
    """``segment_hits`` with the segment given as (ax, ay)-(bx, by)."""
    for dx, dy, rects in inflated:
        if _clip_hits(ax + dx, ay + dy, bx + dx, by + dy, rects):
            return True
    return False


def segment_hits_rect(a: Pose2, b: Pose2, r: Rect) -> bool:
    """Does the segment a-b pass through the rect's interior?"""
    return _clip_hits(a.x, a.y, b.x, b.y, ((r.xmin, r.ymin, r.xmax, r.ymax),))


def _clip_hits(ax: float, ay: float, bx: float, by: float, rects) -> bool:
    """Liang-Barsky clip of segment (ax, ay)-(bx, by) against each rect.

    True iff the segment passes through some rect's interior; boundary
    contact does not count, matching the open-interval overlap convention.
    Per rect the clip visits (p, q) = (-dx, ax - xmin), (dx, xmax - ax),
    (-dy, ay - ymin), (dy, ymax - ay): p < 0 raises t0 to q / p, p > 0
    lowers t1 to q / p, and |p| < 1e-12 rejects the rect when q <= EPS.
    The sign tests depend on the segment alone, so they are made once.

    A rect that the segment's bounding box at most touches is skipped
    before any division, with the clip's own answer.  Take hix <= xmin
    (the other three sides are mirror images).  A flat x axis has
    ax - xmin <= 0 <= EPS.  Moving left, ax is hix, so the first x
    quotient (ax - xmin) / -dx is <= 0 and t1 <= 0.  Moving right, bx is
    hix, so the exact xmin - ax is at least the exact bx - ax; rounded
    subtraction and division are monotone, so the rounded (xmin - ax) / dx
    is >= dx / dx = 1 and t0 >= 1.  Either way t1 - t0 <= 0, and the y
    axis only raises t0 or lowers t1.
    """
    dx = bx - ax
    dy = by - ay
    ndx = -dx
    ndy = -dy
    xflat = abs(ndx) < 1e-12
    yflat = abs(ndy) < 1e-12
    lox, hix = (ax, bx) if ax < bx else (bx, ax)
    loy, hiy = (ay, by) if ay < by else (by, ay)
    for x0, y0, x1, y1 in rects:
        if hix <= x0 or lox >= x1 or hiy <= y0 or loy >= y1:
            continue
        t0 = 0.0
        t1 = 1.0
        if xflat:
            if ax - x0 <= EPS or x1 - ax <= EPS:
                continue
        elif ndx < 0:
            t = (ax - x0) / ndx
            if t > t0:
                t0 = t
            t = (x1 - ax) / dx
            if t < t1:
                t1 = t
        else:
            t = (ax - x0) / ndx
            if t < t1:
                t1 = t
            t = (x1 - ax) / dx
            if t > t0:
                t0 = t
        if yflat:
            if ay - y0 <= EPS or y1 - ay <= EPS:
                continue
        elif ndy < 0:
            t = (ay - y0) / ndy
            if t > t0:
                t0 = t
            t = (y1 - ay) / dy
            if t < t1:
                t1 = t
        else:
            t = (ay - y0) / ndy
            if t < t1:
                t1 = t
            t = (y1 - ay) / dy
            if t > t0:
                t0 = t
        if t1 - t0 > 1e-9:
            return True
    return False


def verify_placements(scene: Scene, tol: float) -> set[str]:
    """Goal objects currently within tol (center distance) of their goal."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    placed = set()
    for gid, goal in scene.goals.items():
        if scene.body(gid).pose.dist(goal) <= tol:
            placed.add(gid)
    return placed


def default_tolerance(scene: Scene) -> float:
    """Placement tolerance: a quarter of the smallest movable side."""
    sides = [b.min_side for b in scene.movables]
    if not sides:
        return 0.1
    return 0.25 * min(sides)
