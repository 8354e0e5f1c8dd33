"""Exact agreement of the packed collision kernel with the scalar reference.

The reference functions below are the straightforward per-body loops the
kernel replaced: one Rect per body and query, ``rects_overlap`` and
``Rect.contains_rect`` for boxes, one Liang-Barsky call per inflated rect for
segments.  The kernel must return *equal* booleans, not approximately equal
ones, because every planner decision (and so every serialized result) rests
on them.  Scenes and queries sit on a coarse lattice, nudged by multiples of
EPS, so flush contacts, exact-EPS gaps, axis-parallel and zero-length
segments are common rather than measure-zero.  The point-level entries
(``footprint_collides_xy``, ``segment_hits_xy``) are checked on the same
inputs, and on tables of flush, EPS-grazing, compound-footprint and
wall-ignoring cases whose answers are pinned as well.  The clip's
bounding-box skip is checked on tables of edge-contact, flat-threshold
and zero-length segments, and shown to fire on the lattice inputs.  The
batch entry (``footprints_collide_xy``) must equal ``footprint_collides_xy``
element by element: on the lattice scenes, with ignore sets that hold the
robot or every body, at the workspace edges and across overlaps of exactly
EPS.
"""

import math
import random

import numpy as np
import pytest

from rearrange2d.motion import compound_parts, sweep_clear
from rearrange2d.world import (
    EPS,
    KIND_GOAL,
    KIND_OBSTACLE,
    KIND_ROBOT,
    KIND_WALL,
    Body,
    Pose2,
    Rect,
    Scene,
    SceneError,
    collides,
    footprint_collides,
    footprint_collides_xy,
    footprints_collide_xy,
    inflate,
    rect_at,
    rects_overlap,
    segment_hits,
    segment_hits_rect,
    segment_hits_xy,
)

# -- scalar reference -------------------------------------------------------


def ref_collides(scene, body_id, pose):
    body = scene.body(body_id)
    r = rect_at(pose, body.w, body.h)
    if not scene.workspace.contains_rect(r):
        return True
    for other in scene.bodies:
        if other.id == body_id:
            continue
        if rects_overlap(r, rect_at(other.pose, other.w, other.h)):
            return True
    return False


def ref_footprint_collides(scene, parts, pose, ignore=frozenset()):
    for dx, dy, w, h in parts:
        r = rect_at(Pose2(pose.x + dx, pose.y + dy), w, h)
        if not scene.workspace.contains_rect(r):
            return True
        for other in scene.bodies:
            if other.id in ignore:
                continue
            if rects_overlap(r, rect_at(other.pose, other.w, other.h)):
                return True
    return False


def ref_segment_hits_rect(a, b, r):
    t0, t1 = 0.0, 1.0
    dx, dy = b.x - a.x, b.y - a.y
    for p, q in (
        (-dx, a.x - r.xmin),
        (dx, r.xmax - a.x),
        (-dy, a.y - r.ymin),
        (dy, r.ymax - a.y),
    ):
        if abs(p) < 1e-12:
            if q <= EPS:
                return False
        else:
            t = q / p
            if p < 0:
                t0 = max(t0, t)
            else:
                t1 = min(t1, t)
    return t1 - t0 > 1e-9


def ref_inflated(scene, parts, ignore):
    out = []
    for dx, dy, w, h in parts:
        rects = []
        for body in scene.bodies:
            if body.id in ignore:
                continue
            r = rect_at(body.pose, body.w, body.h)
            rects.append(Rect(r.xmin - w / 2, r.ymin - h / 2, r.xmax + w / 2, r.ymax + h / 2))
        out.append((dx, dy, rects))
    return out


def ref_segment_blocked(obstacles, a, b):
    """The per-rect loop birrt's edge test and sweep_clear ran."""
    for dx, dy, rects in obstacles:
        a2 = Pose2(a.x + dx, a.y + dy)
        b2 = Pose2(b.x + dx, b.y + dy)
        for r in rects:
            if ref_segment_hits_rect(a2, b2, r):
                return True
    return False


def ref_sweep_clear(scene, parts, poses, ignore=frozenset()):
    pts = list(poses)
    if not pts:
        return True
    for p in pts:
        if ref_footprint_collides(scene, parts, p, ignore):
            return False
    obstacles = ref_inflated(scene, parts, ignore)
    for a, b in zip(pts, pts[1:]):
        if a.dist(b) < 1e-12:
            continue
        if ref_segment_blocked(obstacles, a, b):
            return False
    return True


# -- lattice fuzz inputs ----------------------------------------------------

STEP = 0.25
SIZES = (0.25, 0.5, 0.75, 1.0, 1.5)
# EPS itself, dyadic steps just under and over EPS that lattice arithmetic
# keeps exact, and a step under the clip's 1e-12 parallel threshold
NUDGES = (0.0, 0.0, 0.0, EPS, -EPS, 2.0**-30, -(2.0**-30), 2.0**-29, 1e-13)
WS = Rect(0.0, 0.0, 6.0, 6.0)


def coord(rng, lo=-0.5, hi=6.5):
    return rng.randint(int(lo / STEP), int(hi / STEP)) * STEP + rng.choice(NUDGES)


def lattice_pose(rng):
    return Pose2(coord(rng), coord(rng))


def random_scene(rng):
    bodies = [Body("robot", 0.5, 0.5, KIND_ROBOT, lattice_pose(rng))]
    for i in range(rng.randint(1, 18)):
        kind = rng.choice((KIND_WALL, KIND_OBSTACLE, KIND_GOAL))
        bodies.append(Body(f"b{i}", rng.choice(SIZES), rng.choice(SIZES), kind, lattice_pose(rng)))
    rng.shuffle(bodies)
    return Scene(WS, tuple(bodies))


def random_parts(rng):
    ow, oh = rng.choice(SIZES), rng.choice(SIZES)
    if rng.random() < 0.5:
        return ((0.0, 0.0, ow, oh),)
    return compound_parts(rng.choice("NESW"), ow, oh, 0.5)


def random_ignore(rng, scene):
    ids = [b.id for b in scene.bodies]
    return frozenset(i for i in ids if rng.random() < 0.3)


def random_segment(rng):
    a = lattice_pose(rng)
    roll = rng.random()
    if roll < 0.15:
        b = Pose2(a.x, a.y)
    elif roll < 0.4:
        b = Pose2(a.x, coord(rng))
    elif roll < 0.65:
        b = Pose2(coord(rng), a.y)
    else:
        b = lattice_pose(rng)
    return a, b


def rows_of(scene):
    return tuple(
        (b.id, r.xmin, r.ymin, r.xmax, r.ymax)
        for b in scene.bodies
        for r in (rect_at(b.pose, b.w, b.h),)
    )


# -- agreement --------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_box_overlap_agrees_exactly(seed):
    rng = random.Random(seed)
    outcomes = []
    for _ in range(150):
        scene = random_scene(rng)
        for _ in range(10):
            pose = lattice_pose(rng)
            ignore = random_ignore(rng, scene)
            bid = rng.choice(scene.bodies).id
            got = collides(scene, bid, pose)
            assert got == ref_collides(scene, bid, pose), (seed, bid, pose)
            parts = random_parts(rng)
            got_fp = footprint_collides(scene, parts, pose, ignore)
            assert got_fp == ref_footprint_collides(scene, parts, pose, ignore), (seed, parts, pose)
            assert footprint_collides_xy(scene, parts, pose.x, pose.y, ignore) == got_fp
            outcomes += [got, got_fp]
    # both answers occur often enough for the agreement to mean something
    assert 0.2 < sum(outcomes) / len(outcomes) < 0.95


@pytest.mark.parametrize("seed", range(4))
def test_swept_test_agrees_exactly(seed):
    rng = random.Random(100 + seed)
    outcomes = []
    for _ in range(100):
        scene = random_scene(rng)
        parts = random_parts(rng)
        ignore = random_ignore(rng, scene)
        obstacles = inflate(scene, parts, ignore)
        expected_obstacles = ref_inflated(scene, parts, ignore)
        for _ in range(10):
            a, b = random_segment(rng)
            got = segment_hits(obstacles, a, b)
            assert got == ref_segment_blocked(expected_obstacles, a, b), (seed, parts, a, b)
            assert segment_hits_xy(obstacles, a.x, a.y, b.x, b.y) == got
            outcomes.append(got)
            poly = [a, b] + [lattice_pose(rng) for _ in range(rng.randint(0, 2))]
            assert sweep_clear(scene, parts, poly, ignore) == ref_sweep_clear(
                scene, parts, poly, ignore
            ), (seed, parts, poly)
    assert 0.2 < sum(outcomes) / len(outcomes) < 0.95


# a wall spanning [2.5, 3.5] on both axes and an obstacle spanning
# [2.5, 3.5] x [4.75, 5.25]; offsets of 2**-30 (under EPS) and 2**-29
# (over it) are exact on this lattice
EDGE_SCENE = Scene(
    WS,
    (
        Body("robot", 0.5, 0.5, KIND_ROBOT, Pose2(5.5, 0.5)),
        Body("w", 1.0, 1.0, KIND_WALL, Pose2(3.0, 3.0)),
        Body("o", 1.0, 0.5, KIND_OBSTACLE, Pose2(3.0, 5.0)),
    ),
)
SQUARE = ((0.0, 0.0, 0.5, 0.5),)
# a 0.5 object with the 0.5 robot flush on its east face
PAIR = compound_parts("E", 0.5, 0.5, 0.5)
UNDER, OVER = 2.0**-30, 2.0**-29
ROBOT = frozenset({"robot"})
WALL_TOO = frozenset({"robot", "w"})

# (parts, x, y, ignore, collides)
POINT_CASES = [
    (SQUARE, 3.75, 3.0, ROBOT, False),                  # flush with the wall
    (SQUARE, 3.75 - UNDER, 3.0, ROBOT, False),          # overlap under EPS
    (SQUARE, 3.75 - OVER, 3.0, ROBOT, True),
    (SQUARE, 3.0, 4.5, ROBOT, False),                   # flush between both
    (SQUARE, 3.0, 4.5 + OVER, ROBOT, True),
    (SQUARE, 0.25 - UNDER, 1.0, ROBOT, False),          # workspace edge, EPS slack
    (SQUARE, 0.25 - OVER, 1.0, ROBOT, True),
    (PAIR, 1.75, 3.0, ROBOT, False),                    # robot part flush with the wall
    (PAIR, 1.75 + UNDER, 3.0, ROBOT, False),
    (PAIR, 1.75 + OVER, 3.0, ROBOT, True),
    (PAIR, 2.5, 4.5, ROBOT, False),                     # both parts flush under the obstacle
    (PAIR, 2.5, 4.5 + OVER, ROBOT, True),
    (PAIR, 5.25 + UNDER, 1.0, ROBOT, False),            # robot part at the workspace edge
    (PAIR, 5.25 + OVER, 1.0, ROBOT, True),
    (SQUARE, 3.0, 3.0, WALL_TOO, False),                # inside an ignored wall
    (PAIR, 2.5, 3.0, WALL_TOO, False),
    (PAIR, 2.5, 3.0, frozenset({"robot", "o"}), True),
    (PAIR, 2.5, 4.5 + OVER, WALL_TOO, True),            # the obstacle still counts
]

# (parts, a, b, ignore, hits)
SEGMENT_CASES = [
    (SQUARE, (1.0, 3.75), (5.0, 3.75), ROBOT, False),   # slides flush over the wall
    (SQUARE, (1.0, 3.75 - UNDER), (5.0, 3.75 - UNDER), ROBOT, False),
    (SQUARE, (1.0, 3.75 - OVER), (5.0, 3.75 - OVER), ROBOT, True),
    (SQUARE, (3.25, 4.25), (4.25, 3.25), ROBOT, False),  # touches a grown corner only
    (SQUARE, (3.25, 4.25 - OVER), (4.25, 3.25 - OVER), ROBOT, True),
    (SQUARE, (1.0, 1.0), (5.0, 5.0), WALL_TOO, False),  # through an ignored wall
    (SQUARE, (1.0, 1.0), (5.0, 5.0), ROBOT, True),
    (PAIR, (0.75, 3.0), (1.75, 3.0), ROBOT, False),     # robot part stops flush
    (PAIR, (0.75, 3.0), (1.75 + UNDER, 3.0), ROBOT, False),
    (PAIR, (0.75, 3.0), (1.75 + OVER, 3.0), ROBOT, True),
    (PAIR, (0.75, 3.0), (4.25, 3.0), WALL_TOO, False),
    (PAIR, (0.75, 4.5), (4.25, 4.5), WALL_TOO, False),  # both parts flush under the obstacle
    (PAIR, (0.75, 4.5 + OVER), (4.25, 4.5 + OVER), WALL_TOO, True),
]


@pytest.mark.parametrize("parts,x,y,ignore,expected", POINT_CASES)
def test_point_entry_edge_cases(parts, x, y, ignore, expected):
    got = footprint_collides_xy(EDGE_SCENE, parts, x, y, ignore)
    assert got == ref_footprint_collides(EDGE_SCENE, parts, Pose2(x, y), ignore) == expected
    assert footprint_collides(EDGE_SCENE, parts, Pose2(x, y), ignore) == got


@pytest.mark.parametrize("parts,a,b,ignore,expected", SEGMENT_CASES)
def test_segment_entry_edge_cases(parts, a, b, ignore, expected):
    got = segment_hits_xy(inflate(EDGE_SCENE, parts, ignore), *a, *b)
    pa, pb = Pose2(*a), Pose2(*b)
    assert got == ref_segment_blocked(ref_inflated(EDGE_SCENE, parts, ignore), pa, pb) == expected
    assert segment_hits(inflate(EDGE_SCENE, parts, ignore), pa, pb) == got


def pre_rejected(a, b, r):
    """The kernel's skip test: the segment's bounding box at most touches r."""
    return (
        max(a.x, b.x) <= r.xmin or min(a.x, b.x) >= r.xmax
        or max(a.y, b.y) <= r.ymin or min(a.y, b.y) >= r.ymax
    )


def test_single_rect_clip_agrees_exactly():
    rng = random.Random(11)
    hits = skipped = touching = 0
    for _ in range(20000):
        x0, y0 = coord(rng, 0.5, 3.0), coord(rng, 0.5, 3.0)
        r = Rect(x0, y0, x0 + 2 * rng.choice(SIZES), y0 + 2 * rng.choice(SIZES))
        a, b = random_segment(rng)
        got = segment_hits_rect(a, b, r)
        assert got == ref_segment_hits_rect(a, b, r), (a, b, r)
        hits += got
        if pre_rejected(a, b, r):
            skipped += 1
            touching += max(a.x, b.x) == r.xmin or min(a.x, b.x) == r.xmax or max(a.y, b.y) == r.ymin or min(a.y, b.y) == r.ymax
    assert 0.1 < hits / 20000 < 0.9
    # the bounding-box skip decides a good share of the cases, exact
    # contact among them, and the clip still decides both ways
    assert 0.2 < skipped / 20000 < 0.8
    assert touching > 200
    assert 20000 - skipped - hits > 500


def pre_reject_cases():
    """Segments around R whose bounding box ends on one of its edges, from
    outside and from inside, exactly and one ulp, 2**-30 or 2**-29 off it;
    segments along each edge; zero-length segments on an edge, just inside
    one and at the center.  (u, v) is (x, y) for the x edges and (y, x) for
    the y edges."""
    cases = []
    for lo, hi, vlo, vhi, pose in (
        (R.xmin, R.xmax, R.ymin, R.ymax, lambda u, v: Pose2(u, v)),
        (R.ymin, R.ymax, R.xmin, R.xmax, lambda u, v: Pose2(v, u)),
    ):
        vc = (vlo + vhi) / 2
        for edge, out in ((lo, -1.0), (hi, 1.0)):
            ends = [edge + off for off in (0.0, UNDER, -UNDER, OVER, -OVER)]
            ends += [math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
            for u in ends:
                for u0 in (edge + out, edge - 0.5 * out):       # from outside, from inside
                    cases.append((pose(u0, vc), pose(u, vc)))
                    cases.append((pose(u0, vlo - 0.5), pose(u, vc)))
                cases.append((pose(u, vlo - 1.0), pose(u, vhi + 1.0)))   # along the edge
                cases.append((pose(u, vc - 0.25), pose(u, vc + 0.25)))
            for off in (0.0, UNDER, OVER):                      # zero length
                cases.append((pose(edge - out * off, vc),) * 2)
    mid = Pose2((R.xmin + R.xmax) / 2, (R.ymin + R.ymax) / 2)
    cases.append((mid, mid))
    return cases


def flat_threshold_cases():
    """|dx| or |dy| at the clip's 1e-12 parallel threshold and one ulp
    either side, on the x = 0 and y = 0 edges of R0, where the difference
    of the two coordinates is exact."""
    cases = []
    for d in (math.nextafter(1e-12, 0.0), 1e-12, math.nextafter(1e-12, 1.0)):
        for x, dx in ((0.0, d), (-d, d), (d, -d), (0.0, -d), (0.5, d)):
            cases.append((Pose2(x, -1.0), Pose2(x + dx, 2.0)))
            cases.append((Pose2(-1.0, x), Pose2(2.0, x + dx)))
    return cases


# R has no edge at 0, so its edge offsets are rounded; R0 has two
R = Rect(1.0, 1.0, 3.0, 2.0)
R0 = Rect(0.0, 0.0, 1.0, 1.0)
# a rect every case below misses, placed first so a skip must go on
FAR = Rect(10.0, 10.0, 11.0, 11.0)


@pytest.mark.parametrize("rect,cases", [(R, pre_reject_cases()), (R0, flat_threshold_cases())], ids=["edges", "flat"])
def test_pre_reject_cases_agree(rect, cases):
    skipped = hits = 0
    for a, b in cases:
        for s, t in ((a, b), (b, a)):
            got = segment_hits_rect(s, t, rect)
            assert got == ref_segment_hits_rect(s, t, rect), (s, t)
            rects = (FAR, rect)
            blocked = segment_hits_xy(((0.0, 0.0, tuple((r.xmin, r.ymin, r.xmax, r.ymax) for r in rects)),), s.x, s.y, t.x, t.y)
            assert blocked == ref_segment_blocked(((0.0, 0.0, rects),), s, t) == got, (s, t)
            skipped += pre_rejected(s, t, rect)
            hits += got
    n = 2 * len(cases)
    assert 0 < skipped < n and 0 < hits < n - skipped


def test_clip_boundary_cases_agree():
    r = Rect(0.0, 0.0, 1.0, 1.0)
    cases = [
        (Pose2(EPS, -1.0), Pose2(EPS, 2.0)),                # q == EPS on a flat axis
        (Pose2(-1.0, EPS), Pose2(2.0, EPS)),
        (Pose2(2.0**-29, -1.0), Pose2(2.0**-29, 2.0)),      # just over EPS
        (Pose2(2.0**-31, -1.0), Pose2(2.0**-31 + 1e-13, 2.0)),  # below the parallel threshold
        (Pose2(1.0 - 2.0**-30, 0.5), Pose2(1.0 - 2.0**-30, 0.5)),
        (Pose2(-1.0, -1.0), Pose2(2.0, 2.0)),
        (Pose2(0.0, 1.0), Pose2(1.0, 0.0)),
    ]
    for a, b in cases:
        for s, e in ((a, b), (b, a)):
            assert segment_hits_rect(s, e, r) == ref_segment_hits_rect(s, e, r), (s, e)


def test_collides_never_ignores_walls():
    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        scene = random_scene(rng)
        walls = [b for b in scene.bodies if b.kind == KIND_WALL]
        if not walls:
            continue
        w = rng.choice(walls)
        # the robot placed onto a wall collides
        assert collides(scene, "robot", w.pose)
        assert ref_collides(scene, "robot", w.pose)
        checked += 1
    assert checked > 100


def assert_successor(got, want):
    """got, a successor scene, is want, the Scene built afresh from the
    bodies and goals it should hold: equal, with the same rows, lookups,
    robot and loosened workspace bounds."""
    assert got == want
    assert got.rows == want.rows == rows_of(want)
    assert [got.body(b.id) for b in want.bodies] == list(want.bodies)
    assert all(got.body(b.id) is b for b in got.bodies)
    assert got.robot == want.robot and got.robot is got.body(want.robot.id)
    assert got._ws_loose == want._ws_loose


def test_rows_track_bodies_through_successors():
    rng = random.Random(3)
    for _ in range(200):
        base = random_scene(rng)
        for b in base.bodies:
            r = rect_at(b.pose, b.w, b.h)
            assert b.bounds == (r.xmin, r.ymin, r.xmax, r.ymax)
        goals = {b.id: lattice_pose(rng) for b in base.bodies if b.kind == KIND_GOAL and rng.random() < 0.7}
        scene = Scene(base.workspace, base.bodies, goals)
        assert scene.rows == rows_of(scene)
        # a chain of successors, each checked against a scene built afresh
        for _ in range(4):
            ids = [b.id for b in scene.bodies]
            roll = rng.random()
            if roll < 0.5:
                moved_id, pose = rng.choice(ids), lattice_pose(rng)
                succ = scene.with_pose(moved_id, pose)
                bodies = tuple(Body(b.id, b.w, b.h, b.kind, pose) if b.id == moved_id else b for b in scene.bodies)
                want = Scene(scene.workspace, bodies, scene.goals)
                assert succ.rows != scene.rows or pose == scene.body(moved_id).pose
            elif roll < 0.75:
                drop = {i for i in ids if i != "robot" and rng.random() < 0.4}
                succ = scene.without(drop)
                bodies = tuple(b for b in scene.bodies if b.id not in drop)
                want = Scene(scene.workspace, bodies, {k: v for k, v in scene.goals.items() if k not in drop})
            else:
                keep = rng.choice([None, *ids])
                succ = scene.statics_only(keep=keep)
                bodies = tuple(b for b in scene.bodies if b.kind in (KIND_WALL, KIND_ROBOT) or b.id == keep)
                want = Scene(scene.workspace, bodies, {k: v for k, v in scene.goals.items() if k == keep})
            before = (scene.bodies, dict(scene.goals), scene.rows)
            assert_successor(succ, want)
            assert (scene.bodies, scene.goals, scene.rows) == before
            scene = succ
        with pytest.raises(SceneError):
            scene.with_pose("nope", Pose2(1.0, 1.0))
        with pytest.raises(SceneError):
            scene.without({"robot"})
        with pytest.raises(SceneError):
            scene.without({"nope"})


# -- batch entry --------------------------------------------------------------


def assert_batch_agrees(scene, parts, xs, ys, ignore):
    """footprints_collide_xy on the points must be footprint_collides_xy at
    each; returns the answers."""
    got = footprints_collide_xy(scene, parts, np.array(xs, dtype=float), np.array(ys, dtype=float), ignore)
    assert got.dtype == bool and got.shape == (len(xs),)
    want = [footprint_collides_xy(scene, parts, x, y, ignore) for x, y in zip(xs, ys)]
    assert got.tolist() == want, (parts, ignore)
    return want


@pytest.mark.parametrize("seed", range(4))
def test_batch_entry_agrees_on_lattice_scenes(seed):
    # single and compound footprints; random ignore sets, the robot alone,
    # the robot plus random bodies, and every body (no rows left)
    rng = random.Random(300 + seed)
    outcomes = []
    for _ in range(120):
        scene = random_scene(rng)
        parts = random_parts(rng)
        ids = frozenset(b.id for b in scene.bodies)
        poses = [lattice_pose(rng) for _ in range(rng.randint(0, 30))]
        xs, ys = [p.x for p in poses], [p.y for p in poses]
        for ignore in (random_ignore(rng, scene), ROBOT, ROBOT | random_ignore(rng, scene), ids):
            outcomes += assert_batch_agrees(scene, parts, xs, ys, ignore)
    assert 0.2 < sum(outcomes) / len(outcomes) < 0.95


def test_batch_entry_on_the_point_cases():
    for parts, x, y, ignore, expected in POINT_CASES:
        assert assert_batch_agrees(EDGE_SCENE, parts, [x], [y], ignore) == [expected]


def test_batch_entry_with_every_row_ignored():
    # an empty row array: only the workspace bounds decide
    ids = frozenset(b.id for b in EDGE_SCENE.bodies)
    xs = [3.0, 0.25, 0.25 - OVER, 5.75 + OVER, 1.0]
    ys = [3.0, 1.0, 1.0, 1.0, 5.75 + OVER]
    assert assert_batch_agrees(EDGE_SCENE, SQUARE, xs, ys, ids) == [False, False, True, True, True]
    assert assert_batch_agrees(EDGE_SCENE, PAIR, [], [], ids) == []


def ulps_around(c, n=6):
    """The 2n + 1 doubles nearest c, c in the middle."""
    lo = hi = c
    below, above = [], []
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        below.append(lo)
        above.append(hi)
    return below[::-1] + [c] + above


def test_batch_entry_at_the_workspace_edges():
    # centres whose part edge lands within a few ulps of each loosened
    # workspace bound (ws -/+ EPS), for a single and a compound footprint
    ids = frozenset(b.id for b in EDGE_SCENE.bodies)
    for parts in (SQUARE, PAIR):
        for dx, dy, w, h in parts:
            for x in ulps_around(0.0 - EPS + w / 2.0 - dx) + ulps_around(6.0 + EPS - w / 2.0 - dx):
                assert_batch_agrees(EDGE_SCENE, parts, [x] * 2, [1.0, 3.0], ROBOT)
            for y in ulps_around(0.0 - EPS + h / 2.0 - dy) + ulps_around(6.0 + EPS - h / 2.0 - dy):
                assert_batch_agrees(EDGE_SCENE, parts, [1.0, 5.0], [y] * 2, ids)
    # both answers occur across the ulps of one edge
    xs = ulps_around(0.25 - EPS, 40)
    got = assert_batch_agrees(EDGE_SCENE, SQUARE, xs, [1.0] * len(xs), ROBOT)
    assert True in got and False in got


# a sliver body whose east edge is EPS exactly: a part with its west edge on
# x = 0 overlaps it by EPS, which is free, and one ulp more is a hit
SLIVER = Scene(
    WS,
    (
        Body("robot", 0.5, 0.5, KIND_ROBOT, Pose2(5.5, 0.5)),
        Body("s", 2 * EPS, 1.0, KIND_OBSTACLE, Pose2(0.0, 3.0)),
        Body("t", 2 * math.nextafter(EPS, 1.0), 1.0, KIND_OBSTACLE, Pose2(0.0, 5.0)),
    ),
)


def test_batch_entry_on_overlaps_of_exactly_eps():
    assert SLIVER.body("s").bounds[2] == EPS
    xs = [0.25, 0.25, 0.25, 0.5]
    ys = [3.0, 5.0, 4.25, 5.0]
    assert assert_batch_agrees(SLIVER, SQUARE, xs, ys, ROBOT) == [False, True, False, False]
    # the compound footprint's robot part is the one on x = 0
    xs = [0.75, 0.75]
    ys = [3.0, 5.0]
    assert assert_batch_agrees(SLIVER, compound_parts("W", 0.5, 0.5, 0.5), xs, ys, ROBOT) == [False, True]
