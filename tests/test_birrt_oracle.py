"""Exact agreement of the Bi-RRT with its per-node Pose2.dist reference.

``ref_birrt`` below is ``motion.birrt`` as it was before its trees kept
packed coordinates: it scans every node with ``Pose2.dist`` in a strict
``<`` loop and rescans the whole tree at every connect step.  The packed
scan and the incremental connect must give the same answer bit for bit:
``None`` in both, or equal ``Path.waypoints`` (Pose2 equality compares the
doubles exactly).  The queries come from real planning calls on desk,
relocation and scale scenes, from random robot, compound and object
queries with ignore sets, from budgets small enough that sampling gives
up and the grid route is taken, and from lattice scenes with dyadic
coordinates.

Uniform samples practically never lie at exactly the same distance from
two tree nodes (no such scan among the 10K of the dyadic lattice queries
below), so one test swaps in a random.Random whose samples sit on a coarse
lattice, where scans tie often.  The first-index tie rule is also pinned
on ``motion._nearest`` directly, against the old loop, on tie-heavy
inputs.

The reference's shortcut smoothing makes all SHORTCUT_ATTEMPTS attempts
and may test one point pair many times.  ``birrt`` tests each pair once
per call and stops drawing once no attempt can change the path, so its
smoothing draws are a prefix of the reference's, with the same path.

A lookahead block row whose node still stands and whose step ends in
collision skips its footprint test.  The numpy verdict behind the skip
(``motion._steps_collide``) must equal ``footprint_collides_xy`` at the
endpoint grow computes, on random queries and on hand-built boundaries:
flush contacts, overlaps of exactly EPS and one ulp either side, and part
edges on the loosened workspace bounds.

The reference's grid precheck is ``birrt``'s: it runs only when the start
has a grid anchor (``grids.grid_anchor``), and a start with none samples.

Pick-and-place legs run ``birrt`` with ``defer``: a query that passes the
prechecks (both endpoints free, no straight segment, a grid route or no
anchored start) comes back as a ``DeferredLeg`` before it samples.  A
query must be deferred exactly when the reference's prechecks pass; a
deferred one must plan to the reference's path, or raise where the
reference finds none (the narrow slot below), and any other must give
the reference's answer.

Every query checked against the reference, deferred ones aside, also
requires ``birrt`` to return the two-pose route exactly when
``sweep_clear`` passes on its two poses: ``plan_pick_place`` routes a leg
without via points through ``birrt`` alone on that ground.  Endpoints
flush with a wall, a few ulps into it, and across sliver walls EPS wide
and one ulp either side add inputs for that check.

The reference keeps one known defect: when the last grid cell center lies
within 1e-12 of the goal, its grid route ends at that center.
``test_grid_route_ends_at_goal_itself`` pins the fix; no other query here
reaches that case.
"""

import math
import random

import numpy as np
import pytest

from rearrange2d import grids, motion, planner
from rearrange2d.bench import make_scene
from rearrange2d.grids import GridSpec
from rearrange2d.motion import (
    GOAL_BIAS,
    SHORTCUT_ATTEMPTS,
    Path,
    compound_parts,
)
from rearrange2d.world import (
    EPS,
    Pose2,
    Rect,
    Scene,
    footprint_collides,
    footprint_collides_xy,
    inflate,
    segment_hits,
)

from conftest import obstacle, robot, scene, slot_scene, wall

# -- reference --------------------------------------------------------------


def ref_birrt(
    scene: Scene,
    parts,
    start: Pose2,
    goal: Pose2,
    seed: int,
    max_iters: int = 5000,
    *,
    ignore=frozenset(),
    spec: GridSpec | None = None,
) -> Path | None:
    """Bi-directional RRT over a translating footprint, with shortcut smoothing.

    Deterministic for a fixed seed.  The tuning is fixed: each extension
    moves at most half the robot side, GOAL_BIAS of the samples are the
    other tree's root, and SHORTCUT_ATTEMPTS random shortcuts smooth the
    result.  A grid connectivity precheck on spec (built from the scene
    when None) rejects disconnected queries quickly; if sampling exhausts
    max_iters while the grid still shows a route, the grid path is used
    as a fallback so narrow but feasible corridors do not read as
    infeasible.
    """
    step = 0.5 * scene.robot.w

    def blocked(p: Pose2) -> bool:
        return footprint_collides(scene, parts, p, ignore)

    obstacles = inflate(scene, parts, ignore)

    def edge_free(a: Pose2, b: Pose2) -> bool:
        # endpoints are vetted by blocked(); the segment test is exact, so
        # workspace containment follows from endpoint containment
        return not blocked(b) and not segment_hits(obstacles, a, b)

    if blocked(start) or blocked(goal):
        return None
    if start.dist(goal) < 1e-12:
        return Path((start, goal))
    if edge_free(start, goal):
        return Path((start, goal))

    if spec is None:
        spec = GridSpec.from_scene(scene)
    free = grids.fit_mask(scene, spec, parts, ignore)
    anchor = grids.grid_anchor(free, spec, start)
    if anchor is not None and not grids.grid_connected(free, anchor, spec.cell_of(goal), spec):
        return None

    rng = random.Random(seed)
    ws = scene.workspace

    ta_nodes, ta_parent = [start], [-1]
    tb_nodes, tb_parent = [goal], [-1]

    def nearest(nodes, q):
        best, best_d = 0, nodes[0].dist(q)
        for i in range(1, len(nodes)):
            d = nodes[i].dist(q)
            if d < best_d:
                best, best_d = i, d
        return best

    def extend(nodes, parents, q):
        """One step from the nearest node toward q; returns new index or -1."""
        i = nearest(nodes, q)
        a = nodes[i]
        d = a.dist(q)
        if d < 1e-12:
            return -1
        t = min(1.0, step / d)
        b = Pose2(a.x + (q.x - a.x) * t, a.y + (q.y - a.y) * t)
        if not edge_free(a, b):
            return -1
        nodes.append(b)
        parents.append(i)
        return len(nodes) - 1

    def connect(nodes, parents, q):
        last = -1
        while True:
            i = extend(nodes, parents, q)
            if i < 0:
                return last
            last = i
            if nodes[i].dist(q) < 1e-9:
                return i

    bridge = None  # (index in ta, index in tb)
    swapped = False
    for _ in range(max_iters):
        if rng.random() < GOAL_BIAS:
            q = tb_nodes[0] if not swapped else ta_nodes[0]
        else:
            q = Pose2(rng.uniform(ws.xmin, ws.xmax), rng.uniform(ws.ymin, ws.ymax))
        a_nodes, a_par = (ta_nodes, ta_parent) if not swapped else (tb_nodes, tb_parent)
        b_nodes, b_par = (tb_nodes, tb_parent) if not swapped else (ta_nodes, ta_parent)
        i = extend(a_nodes, a_par, q)
        if i >= 0:
            j = connect(b_nodes, b_par, a_nodes[i])
            if j >= 0 and b_nodes[j].dist(a_nodes[i]) < 1e-9:
                bridge = (i, j) if not swapped else (j, i)
                break
        swapped = not swapped

    if bridge is None:
        # sampling failed; fall back to the grid route when one exists
        cells = grids.grid_path(free, spec.cell_of(start), spec.cell_of(goal))
        if cells is None:
            return None
        wps = [start] + [spec.center(c) for c in cells] + [goal]
        dedup = [wps[0]]
        for p in wps[1:]:
            if p.dist(dedup[-1]) > 1e-12:
                dedup.append(p)
        if len(dedup) < 2:
            dedup.append(goal)
        for a, b in zip(dedup, dedup[1:]):
            if not edge_free(a, b):
                return None
        waypoints = dedup
    else:
        ia, ib = bridge
        left = []
        while ia >= 0:
            left.append(ta_nodes[ia])
            ia = ta_parent[ia]
        left.reverse()
        right = []
        while ib >= 0:
            right.append(tb_nodes[ib])
            ib = tb_parent[ib]
        waypoints = left + right
        if waypoints[-1] is not goal:
            waypoints[-1] = goal
        waypoints[0] = start

    for _ in range(SHORTCUT_ATTEMPTS):
        if len(waypoints) <= 2:
            break
        i = rng.randrange(0, len(waypoints) - 1)
        j = rng.randrange(0, len(waypoints) - 1)
        if abs(i - j) < 2:
            continue
        i, j = min(i, j), max(i, j)
        if edge_free(waypoints[i], waypoints[j]):
            waypoints = waypoints[: i + 1] + waypoints[j:]
    return Path(tuple(waypoints))


def ref_nearest(pts, q: Pose2) -> tuple[int, float]:
    """The reference's scan over the same points, with its distance."""
    nodes = [Pose2(x, y) for x, y in pts]
    best, best_d = 0, nodes[0].dist(q)
    for i in range(1, len(nodes)):
        d = nodes[i].dist(q)
        if d < best_d:
            best, best_d = i, d
    return best, best_d


# -- helpers ----------------------------------------------------------------


def waypoints(path):
    return None if path is None else path.waypoints


def block_nearest(pts, qs):
    """motion._block_nearest on packed point lists."""
    return motion._block_nearest(motion._columns(pts), motion._columns(qs))


class FallbackCounter:
    """Counts birrt calls that end sampling and ask for the grid route."""

    def __init__(self, monkeypatch):
        self.count = 0
        inner = grids.grid_path

        def spy(*args, **kwargs):
            self.count += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(grids, "grid_path", spy)


def assert_straight_iff_clear(got, sc, parts, start, goal, ignore):
    """birrt's answer is the two-pose route exactly when sweep_clear passes
    on those two poses: plan_pick_place routes a leg without via points
    through birrt alone on that ground."""
    straight = got is not None and got.waypoints == (start, goal)
    assert straight == motion.sweep_clear(sc, parts, (start, goal), ignore), (parts, start, goal, ignore)
    return straight


def assert_agrees(sc, parts, start, goal, seed, max_iters, ignore, spec):
    got = motion.birrt(sc, parts, start, goal, seed, max_iters, ignore=ignore, spec=spec)
    want = ref_birrt(sc, parts, start, goal, seed, max_iters, ignore=ignore, spec=spec)
    assert waypoints(got) == waypoints(want), (parts, start, goal, seed, max_iters, ignore)
    assert_straight_iff_clear(got, sc, parts, start, goal, ignore)
    return got


def square(side: float):
    """The footprint of one side x side square centred on the reference pose."""
    return ((0.0, 0.0, side, side),)


def random_pose(rng, ws: Rect) -> Pose2:
    return Pose2(rng.uniform(ws.xmin, ws.xmax), rng.uniform(ws.ymin, ws.ymax))


# -- planning queries -------------------------------------------------------

# (scenario, scene seed): desk, relocation and scale instances of the
# benchmark; nested_blockers@0 has three queries that exhaust 5000 samples
PLANNED = [
    ("four_blocks", 0),
    ("narrow_room", 1),
    ("triple_swap", 2),
    ("doorway", 0),
    ("nested_blockers", 0),
    ("swap_pocket", 3),
    ("m_block_12", 2),
]


def birrt_recorder(calls, deferred):
    """A motion.birrt spy: each run it ends appends (args, kwargs, result)
    to calls, in the form ref_birrt takes, and each DeferredLeg it returns
    goes to deferred."""
    inner = motion.birrt

    def record(*args, defer=False, **kwargs):
        out = inner(*args, defer=defer, **kwargs)
        if isinstance(out, motion.DeferredLeg):
            deferred.append(out)
        else:
            calls.append((args, kwargs, out))
        return out

    return record


def assert_deferred_find_paths(deferred):
    """Every query these runs deferred finds a path: the reference finds one
    for each."""
    for d in deferred:
        assert ref_birrt(d.scene, d.parts, d.start, d.goal, d.seed, d.max_iters, ignore=d.ignore, spec=d.spec)


@pytest.mark.parametrize("name,seed", PLANNED)
def test_planning_queries_match_reference(monkeypatch, name, seed):
    # every birrt run, the relocation search's deferring ones among them,
    # and every query deferred
    calls, deferred = [], []
    monkeypatch.setattr(motion, "birrt", birrt_recorder(calls, deferred))
    cfg = planner.PlannerConfig().merged({"seed": seed}, "test")
    result = planner.plan_rearrangement(make_scene(name, seed), cfg)
    assert result.status == "success"
    monkeypatch.undo()

    fallbacks = FallbackCounter(monkeypatch)
    for args, kwargs, out in calls:
        assert waypoints(out) == waypoints(ref_birrt(*args, **kwargs))
    assert_deferred_find_paths(deferred)
    assert calls
    if name == "nested_blockers":
        assert deferred
        assert fallbacks.count >= 3


# -- random queries ---------------------------------------------------------


def random_queries(sc: Scene, rng: random.Random, n: int):
    """Robot, compound (object + robot) and object-alone queries between
    random poses, each with the ignore set its planner call would use."""
    ws = sc.workspace
    rid = sc.robot.id
    rs = sc.robot.w
    movables = sorted(sc.movables, key=lambda b: b.id)
    for k in range(n):
        start, goal = random_pose(rng, ws), random_pose(rng, ws)
        kind = k % 3
        if kind == 0 or not movables:
            yield sc, sc.robot.footprint, start, goal, frozenset({rid})
            continue
        body = rng.choice(movables)
        if kind == 1:
            parts = compound_parts(rng.choice(motion.SIDES), body.w, body.h, rs)
            yield sc, parts, start, goal, frozenset({body.id, rid})
        else:
            aux = sc.statics_only(keep=body.id)
            yield aux, body.footprint, start, goal, frozenset({body.id, rid})


@pytest.mark.parametrize("name", ["four_blocks", "narrow_room", "doorway", "nested_blockers", "m_block_12"])
def test_random_queries_match_reference(name):
    rng = random.Random(f"birrt-{name}")
    sc = make_scene(name, 1)
    spec = GridSpec.from_scene(sc)
    found = lost = 0
    for qsc, parts, start, goal, ignore in random_queries(sc, rng, 45):
        max_iters = rng.choice((0, 2, 10, 60, 400))
        got = assert_agrees(qsc, parts, start, goal, rng.randrange(2**32), max_iters, ignore, spec)
        found += got is not None
        lost += got is None
    assert found and lost


@pytest.mark.parametrize("max_iters", [0, 1, 3, 8, 20])
def test_exhausted_queries_take_the_grid_route(monkeypatch, max_iters):
    # across the door of doorway, with and without the obstacle parked in it
    sc = make_scene("doorway", 0)
    spec = GridSpec.from_scene(sc)
    fallbacks = FallbackCounter(monkeypatch)
    rs = sc.robot.w
    found = 0
    for k, q in enumerate([sc, sc.without({"b1"})]):
        for seed in range(6):
            for start, goal in [(Pose2(1.0, 2.0), Pose2(8.0, 8.0)), (Pose2(8.0, 2.0), Pose2(1.5, 7.5))]:
                got = assert_agrees(q, square(rs), start, goal, 97 * seed + k, max_iters, frozenset({"robot"}), spec)
                found += got is not None
    assert found
    assert fallbacks.count


# -- lattice scenes ---------------------------------------------------------


def lattice_scene(rng: random.Random) -> Scene:
    """Walls and obstacles on a quarter-unit lattice in an 8x8 workspace, a
    robot of side 0.5, so extension steps are 0.25 and every body bound,
    root and axis-aligned step is an exact dyadic double."""
    bodies = [robot(1.0, 1.0, 0.5), wall("w_mid", 4.0, rng.choice((3.0, 4.0, 5.0)), 0.5, 5.0)]
    for k in range(rng.randint(1, 4)):
        bodies.append(wall(f"w{k}", rng.randrange(4, 29) / 4, rng.randrange(4, 29) / 4, 0.25 * rng.randint(1, 6), 0.25 * rng.randint(1, 6)))
    for k in range(rng.randint(0, 3)):
        bodies.append(obstacle(f"b{k}", rng.randrange(4, 29) / 4, rng.randrange(4, 29) / 4, 0.5, 0.5))
    return scene(bodies, ws=Rect(0.0, 0.0, 8.0, 8.0))


@pytest.mark.parametrize("seed", range(4))
def test_lattice_queries_match_reference(seed):
    rng = random.Random(5100 + seed)
    found = 0
    for _ in range(8):
        sc = lattice_scene(rng)
        obstacles = frozenset(b.id for b in sc.movables)
        for _ in range(6):
            # same row or column half the time, so steps run along the lattice
            start = Pose2(rng.randrange(2, 30) / 4, rng.randrange(2, 30) / 4)
            goal = Pose2(rng.randrange(2, 30) / 4, start.y if rng.random() < 0.5 else rng.randrange(2, 30) / 4)
            ignore = frozenset({"robot"}) | (obstacles if rng.random() < 0.3 else frozenset())
            got = assert_agrees(
                sc, square(0.5), start, goal, rng.randrange(2**32), rng.choice((5, 50, 300)), ignore,
                GridSpec.from_scene(sc),
            )
            found += got is not None
    assert found


# -- straight legs ----------------------------------------------------------


def nudged(c: float, n: int) -> list[float]:
    """c and the n doubles above it."""
    out = [c]
    for _ in range(n):
        out.append(math.nextafter(out[-1], math.inf))
    return out


def test_straight_legs_exactly_when_the_sweep_is_clear():
    # robot, compound and object-alone footprints with endpoints flush with
    # a wall's left and top edges and up to 2 ulps into them, and across
    # sliver walls EPS wide and one ulp either side; assert_agrees checks
    # each query against the reference and the straight route against
    # sweep_clear
    outcomes = []
    sc = scene([robot(1.0, 1.0, 0.5), wall("w", 6.0, 5.0, 1.0, 4.0), obstacle("b", 2.0, 8.0, 0.5, 0.5)])
    aux = sc.statics_only(keep="b")
    spec = GridSpec.from_scene(sc)
    robot_only = frozenset({"robot"})
    # (scene, parts, ignore, center x flush with the wall's left edge
    # x = 5.5, center y flush with its top edge y = 7)
    kinds = [
        (sc, square(0.5), robot_only, 5.25, 7.25),
        (sc, compound_parts("E", 0.5, 0.5, 0.5), robot_only, 4.75, 7.25),
        (sc, compound_parts("N", 0.5, 0.5, 0.5), robot_only, 5.25, 6.75),
        (aux, aux.body("b").footprint, frozenset({"b", "robot"}), 5.25, 7.25),
    ]
    for seed, (qsc, parts, ignore, fx, fy) in enumerate(kinds):
        queries = []
        for x in nudged(fx, 2):
            # slide flush along the wall's side, leave it, and pass its top
            queries += [((x, 4.0), (x, 6.0)), ((x, 5.0), (1.0, 5.0)), ((x, 5.0), (x, 9.0))]
        for y in nudged(math.nextafter(fy, 0.0), 3):
            # slide flush over the wall's top, and drop onto it
            queries += [((5.0, y), (7.0, y)), ((3.0, 9.0), (6.0, y))]
        for (ax, ay), (bx, by) in queries:
            got = assert_agrees(qsc, parts, Pose2(ax, ay), Pose2(bx, by), seed, 20, ignore, spec)
            outcomes.append(got is not None and len(got.waypoints) == 2)

    # a footprint across a sliver wall overlaps it by the wall's width:
    # exactly EPS is free, one ulp wider collides
    ws = Rect(-5.0, -5.0, 5.0, 5.0)
    for w in (math.nextafter(EPS, 0.0), EPS, math.nextafter(EPS, 1.0)):
        sc = scene([robot(-3.0, -3.0, 0.5), wall("s", w / 2, 0.0, w, 2.0)], ws=ws)
        spec = GridSpec.from_scene(sc)
        for parts in (square(0.5), compound_parts("W", 0.5, 0.5, 0.5)):
            for a, b in [((0.0, -0.5), (0.0, 0.5)), ((-2.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 3.0))]:
                got = assert_agrees(sc, parts, Pose2(*a), Pose2(*b), 7, 20, robot_only, spec)
                outcomes.append(got is not None and len(got.waypoints) == 2)
    assert any(outcomes) and not all(outcomes)


# -- deferred queries -------------------------------------------------------


def passes_prechecks(sc, parts, start, goal, ignore, spec) -> bool:
    """The reference's tests before it samples: both endpoints free, no
    straight segment between them, and a grid route or no anchored start."""
    if footprint_collides(sc, parts, start, ignore) or footprint_collides(sc, parts, goal, ignore):
        return False
    if start.dist(goal) < 1e-12 or not segment_hits(inflate(sc, parts, ignore), start, goal):
        return False
    free = grids.fit_mask(sc, spec, parts, ignore)
    anchor = grids.grid_anchor(free, spec, start)
    return anchor is None or grids.grid_connected(free, anchor, spec.cell_of(goal), spec)


def assert_decision_agrees(outcomes, sc, parts, start, goal, seed, max_iters, ignore, spec):
    """plan_pick_place's leg run with defer against the reference: deferred
    exactly when the prechecks pass, and then planned to the reference's
    path, or raising when the reference finds none; any other query gives
    the reference's answer at once."""
    got = motion.birrt(sc, parts, start, goal, seed, max_iters, ignore=ignore, spec=spec, defer=True)
    want = waypoints(ref_birrt(sc, parts, start, goal, seed, max_iters, ignore=ignore, spec=spec))
    query = (parts, start, goal, seed, max_iters, ignore)
    deferred = isinstance(got, motion.DeferredLeg)
    assert deferred == passes_prechecks(sc, parts, start, goal, ignore, spec), query
    if not deferred:
        assert_straight_iff_clear(got, sc, parts, start, goal, ignore)
        assert waypoints(got) == want, query
        outcomes["failed" if got is None else "straight"] += 1
    elif want is None:
        with pytest.raises(RuntimeError, match="found no path"):
            got.plan()
        outcomes["unresolved"] += 1
    else:
        assert got.plan().waypoints == want, query
        outcomes["deferred"] += 1


@pytest.mark.parametrize("name", ["narrow_room", "doorway", "nested_blockers"])
def test_deferral_decides_as_the_reference(name):
    rng = random.Random(f"defer-{name}")
    sc = make_scene(name, 1)
    spec = GridSpec.from_scene(sc)
    outcomes = dict.fromkeys(("deferred", "failed", "straight", "unresolved"), 0)
    for qsc, parts, start, goal, ignore in random_queries(sc, rng, 60):
        max_iters = rng.choice((100, 400, 1500))
        assert_decision_agrees(outcomes, qsc, parts, start, goal, rng.randrange(2**32), max_iters, ignore, spec)
    assert outcomes["deferred"] and outcomes["failed"] and outcomes["straight"], outcomes


def test_deferral_on_lattice_scenes():
    rng = random.Random(5200)
    outcomes = dict.fromkeys(("deferred", "failed", "straight", "unresolved"), 0)
    for _ in range(24):
        sc = lattice_scene(rng)
        spec = GridSpec.from_scene(sc)
        for qsc, parts, start, goal, ignore in random_queries(sc, rng, 6):
            max_iters = rng.choice((100, 400, 1500))
            assert_decision_agrees(outcomes, qsc, parts, start, goal, rng.randrange(2**32), max_iters, ignore, spec)
    assert outcomes["deferred"] and outcomes["failed"] and outcomes["straight"], outcomes


def test_deferral_fails_to_resolve_when_the_grid_route_is_blocked():
    sc = slot_scene()
    spec = GridSpec.from_scene(sc)
    start = sc.robot.pose
    free = grids.fit_mask(sc, spec, square(0.1), frozenset({"robot"}))
    assert grids.grid_anchor(free, spec, start)[0] > spec.cell_of(start)[0]
    outcomes = dict.fromkeys(("deferred", "failed", "straight", "unresolved"), 0)
    for k, goal in enumerate([Pose2(6.0, 2.0), Pose2(5.0, 7.0), Pose2(7.0, 4.0)]):
        assert_decision_agrees(outcomes, sc, square(0.1), start, goal, k, 400, frozenset({"robot"}), spec)
    assert outcomes == {"deferred": 0, "failed": 0, "straight": 0, "unresolved": 3}


class LatticeRandom(random.Random):
    """random.Random whose random() lands on a 1/16 grid of [0, 1], so
    uniform draws, and birrt's samples, land on a 1/16 grid of the range.
    On an 8x8 workspace the samples are then multiples of 0.5, a step that
    reaches its sample puts a node on them, and a sample often lies at the
    same distance from two nodes.  getrandbits is passed through so that
    randrange draws bits, as random.Random's does, rather than calling
    random()."""

    def random(self):
        return self.randrange(0, 17) / 16

    def getrandbits(self, k):
        return super().getrandbits(k)


def test_lattice_samples_tie_inside_birrt(monkeypatch):
    # both implementations draw from random.Random, so they see the same
    # lattice samples; a robot of side 1.5 (step 0.75) must go round a wall
    monkeypatch.setattr(random, "Random", LatticeRandom)
    ties = [0]
    inner = motion._nearest

    def spy(pts, q):
        i, d = inner(pts, q)
        ties[0] += sum(1 for p in pts if math.dist(p, q) == d) > 1
        return i, d

    monkeypatch.setattr(motion, "_nearest", spy)
    rng = random.Random(1)
    side, h = 1.5, 0.75
    for seed in range(200):
        wy = 3.0 if rng.random() < 0.5 else 5.0
        sc = scene([robot(1.0, 1.0, side), wall("w", 4.0, wy, 1.0, 6.0)], ws=Rect(0.0, 0.0, 8.0, 8.0))
        start = Pose2(rng.choice((h, h + 0.5, 1.5, 2.0)), rng.choice((h, 2.0, 4.0, 6.0, 8.0 - h)))
        goal = Pose2(8.0 - rng.choice((h, h + 0.5, 1.5, 2.0)), rng.choice((h, 2.0, 4.0, 6.0, 8.0 - h)))
        spec = GridSpec.from_scene(sc)
        assert assert_agrees(sc, square(side), start, goal, seed, 200, frozenset({"robot"}), spec) is not None
    assert ties[0] > 100


def test_lattice_samples_tie_inside_blocks(monkeypatch):
    # queries through a 1.75 gap in a wall, for a robot of side 1.5, run
    # past the warm-up; lattice samples then leave a second node within
    # the margin of a block row's minimum, and such rows take the full scan
    monkeypatch.setattr(random, "Random", LatticeRandom)
    rows = BlockRows(monkeypatch)
    side, h = 1.5, 0.75
    sc = scene([robot(h, h, side), wall("wn", 4.0, 6.4375, 1.0, 3.125), wall("ws", 4.0, 1.5625, 1.0, 3.125)],
               ws=Rect(0.0, 0.0, 8.0, 8.0))
    spec = GridSpec.from_scene(sc)
    for seed in range(12):
        assert_agrees(sc, square(side), Pose2(h, h), Pose2(8.0 - h, 8.0 - h), seed, 3000, frozenset({"robot"}), spec)
    assert rows.total > 1000
    assert rows.ambiguous > 20


# -- lookahead blocks -------------------------------------------------------


class BlockRows:
    """Counts the rows motion._block_nearest answers, the ambiguous ones,
    and the length of each block (its two calls, one per tree); nodes holds
    each call's tree size."""

    def __init__(self, monkeypatch):
        self.total = self.ambiguous = 0
        self.calls = []
        self.nodes = []
        inner = motion._block_nearest

        def spy(p, q):
            out = inner(p, q)
            self.total += len(out)
            self.ambiguous += out.count(-1)
            self.calls.append(q.shape[1])
            self.nodes.append(p.shape[1])
            return out

        monkeypatch.setattr(motion, "_block_nearest", spy)

    def take_blocks(self) -> list[int]:
        """Lengths of the blocks since the last take."""
        calls, self.calls = self.calls, []
        return [a + b for a, b in zip(calls[::2], calls[1::2])]


@pytest.fixture
def counting(monkeypatch):
    """Makes random.Random a generator that counts its draws: every random()
    call (birrt's samples call it directly, the reference's uniform draws
    through it) and, apart, every uniform() call.  The counts travel with
    getstate and setstate, so a rewound generator counts as if the rewound
    draws were never made; each randrange call (shortcut smoothing) marks
    the counts it finds.  getrandbits passes through, so randrange draws
    bits as production's random.Random does, not through random().
    Returns the list of generators made."""
    made = []

    class CountingRandom(random.Random):
        def __init__(self, x=None):
            self.draws = self.uniforms = 0
            self.marks = []
            super().__init__(x)
            made.append(self)

        def random(self):
            self.draws += 1
            return super().random()

        def uniform(self, a, b):
            self.uniforms += 1
            return super().uniform(a, b)

        def randrange(self, *args):
            self.marks.append((self.draws, self.uniforms))
            return super().randrange(*args)

        def getrandbits(self, k):
            return super().getrandbits(k)

        def getstate(self):
            return super().getstate(), self.draws, self.uniforms

        def setstate(self, state):
            inner, self.draws, self.uniforms = state
            super().setstate(inner)

    assert CountingRandom._randbelow.__name__ == "_randbelow_with_getrandbits"
    monkeypatch.setattr(random, "Random", CountingRandom)
    return made


def assert_counts_agree(made, sc, parts, start, goal, seed, max_iters, ignore, spec):
    """assert_agrees, and the same random() draws from both generators when
    the sampling loop ends (at the first smoothing draw, else at the end of
    the call).  Smoothing may stop sooner than the reference's, never
    later: the draws its marks found are a prefix of the reference's and it
    draws no more in all.  Returns the path and the iterations run, the
    reference's draws less its uniform calls (0 when the call drew
    nothing)."""
    n = len(made)
    got = assert_agrees(sc, parts, start, goal, seed, max_iters, ignore, spec)
    if len(made) == n:
        return got, 0
    assert len(made) == n + 2
    mine, ref = made[n:]

    def at_loop_end(rng):
        return rng.marks[0] if rng.marks else (rng.draws, rng.uniforms)

    (draws, _), (ref_draws, uniforms) = at_loop_end(mine), at_loop_end(ref)
    assert draws == ref_draws, (seed, max_iters)
    assert [d for d, _ in mine.marks] == [d for d, _ in ref.marks[: len(mine.marks)]], (seed, max_iters)
    assert mine.draws <= ref.draws, (seed, max_iters)
    return got, ref_draws - uniforms


def door_scene(thickness: float = 3.0, gap: float = 0.6, origin=(0.0, 0.0)) -> Scene:
    """A wall across x = 5 with a gap at y = 5, for a robot of side 0.4.
    Through the default 0.6 gap in a 3-unit wall, Bi-RRT queries from (2, 2)
    to (8, 8) take from tens to thousands of iterations (seeds 6, 7, 12 and
    16 more than 3000).  origin moves the 10x10 workspace's lower corner,
    and every body with it."""
    h = 5.0 - gap / 2
    ox, oy = origin
    return scene(
        [robot(ox + 2.0, oy + 2.0), wall("wn", ox + 5.0, oy + 10.0 - h / 2, thickness, h),
         wall("ws", ox + 5.0, oy + h / 2, thickness, h)],
        ws=Rect(ox, oy, ox + 10.0, oy + 10.0),
    )


def block_starts(count: int) -> list[int]:
    """The iterations at which the first count lookahead blocks start, for
    trees small enough that no block is cut short."""
    return [motion.LOOKAHEAD_WARMUP + i * motion.LOOKAHEAD_BLOCK for i in range(count)]


@pytest.fixture
def dense_lookahead(monkeypatch):
    """Blocks of 8 samples from the third iteration on, cut short once a
    tree passes 48 nodes: every lookahead path is taken within a few dozen
    iterations."""
    monkeypatch.setattr(motion, "LOOKAHEAD_WARMUP", 2)
    monkeypatch.setattr(motion, "LOOKAHEAD_BLOCK", 8)
    monkeypatch.setattr(motion, "LOOKAHEAD_CELLS", 384)


def test_max_iters_around_block_boundaries(monkeypatch, counting):
    # budgets just below, at and just above the warm-up length and the
    # first three block ends; the four door queries run past all of them,
    # so each call ends its last block where max_iters cuts it, takes the
    # grid route and smooths it from the generator's state there
    sc = door_scene()
    spec = GridSpec.from_scene(sc)
    rows = BlockRows(monkeypatch)
    fallbacks = FallbackCounter(monkeypatch)
    budgets = [b + e for b in block_starts(4) for e in (-1, 0, 1)]
    for max_iters in budgets:
        for seed in (6, 7, 12, 16):
            _, iterations = assert_counts_agree(
                counting, sc, square(0.4), Pose2(2.0, 2.0), Pose2(8.0, 8.0), seed, max_iters,
                frozenset({"robot"}), spec,
            )
            assert iterations == max_iters
    assert fallbacks.count == 2 * 4 * len(budgets)
    assert rows.total


def test_bridge_at_every_block_offset(monkeypatch, counting, dense_lookahead):
    # each bridge found inside a block rewinds the generator to the block's
    # start and redraws the iterations used; an offset of n - 1 ends the
    # query exactly at the end of its block
    rows = BlockRows(monkeypatch)
    sc = door_scene(0.4, 0.8)
    spec = GridSpec.from_scene(sc)
    rng = random.Random(7700)
    offsets = set()
    cut = False
    full = motion.LOOKAHEAD_BLOCK
    for seed in range(80):
        start = Pose2(rng.uniform(0.5, 3.0), rng.uniform(0.5, 9.5))
        goal = Pose2(rng.uniform(7.0, 9.5), rng.uniform(0.5, 9.5))
        rows.take_blocks()
        _, iterations = assert_counts_agree(counting, sc, square(0.4), start, goal, seed, 300, frozenset({"robot"}), spec)
        blocks = rows.take_blocks()
        k = motion.LOOKAHEAD_WARMUP + sum(blocks[:-1])
        if iterations < 300 and blocks and iterations > k:
            offsets.add((blocks[-1], iterations - 1 - k))
        # a block shorter than full before the last was cut short by the
        # cell bound
        cut |= any(n < full for n in blocks[:-1])
    assert {(full, o) for o in range(full)} <= offsets
    assert cut


def test_blocked_block_rows_skip_the_kernel(monkeypatch):
    # a door query past 3000 iterations; a block row whose node still
    # stands and whose step ends in collision calls no footprint test.
    # birrt made 6614 footprint tests here when every row ran one
    sc = door_scene()
    spec = GridSpec.from_scene(sc)
    calls = [0]
    inner = motion.footprint_collides_xy

    def spy(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(motion, "footprint_collides_xy", spy)
    rows = BlockRows(monkeypatch)
    assert assert_agrees(sc, square(0.4), Pose2(2.0, 2.0), Pose2(8.0, 8.0), 7, 5000, frozenset({"robot"}), spec)
    assert rows.total > 3000
    assert calls[0] <= 3596


def test_offset_workspaces_match_reference(counting):
    # workspaces whose lower corner is off the origin, where another
    # spelling of uniform's arithmetic, such as a * (1 - r) + b * r, rounds
    # otherwise; some door queries run past the warm-up into blocks
    found = longest = 0
    for ox, oy in ((0.3, -1.7), (-4.1, 2.9), (12.7, 0.1)):
        sc = door_scene(origin=(ox, oy))
        spec = GridSpec.from_scene(sc)
        for seed in range(4):
            got, iterations = assert_counts_agree(
                counting, sc, square(0.4), Pose2(ox + 2.0, oy + 2.0), Pose2(ox + 8.0, oy + 8.0), seed, 1500,
                frozenset({"robot"}), spec,
            )
            found += got is not None
            longest = max(longest, iterations)
    assert found == 12
    assert longest > motion.LOOKAHEAD_WARMUP


def test_blocks_run_at_the_cap(monkeypatch):
    # a door query past 3000 iterations: every block is LOOKAHEAD_BLOCK
    # rows long unless max_iters or the cell bound on the larger tree cuts
    # it, and the path is the reference's
    sc = door_scene()
    spec = GridSpec.from_scene(sc)
    rows = BlockRows(monkeypatch)
    max_iters = 5000
    assert assert_agrees(sc, square(0.4), Pose2(2.0, 2.0), Pose2(8.0, 8.0), 7, max_iters, frozenset({"robot"}), spec)
    blocks = rows.take_blocks()
    trees = [max(a, b) for a, b in zip(rows.nodes[::2], rows.nodes[1::2])]
    full = motion.LOOKAHEAD_BLOCK
    assert full == 256
    assert blocks[0] == full
    k = motion.LOOKAHEAD_WARMUP
    for n, nodes in zip(blocks, trees):
        assert n == min(full, max_iters - k, max(1, motion.LOOKAHEAD_CELLS // nodes)), (k, nodes)
        k += n
    assert blocks.count(full) >= 8


# -- blocked steps ----------------------------------------------------------


def grow_end(a, q, step):
    """The point birrt's grow steps to from node a toward sample q."""
    d = math.dist(a, q)
    t = min(1.0, step / d)
    return a[0] + (q[0] - a[0]) * t, a[1] + (q[1] - a[1]) * t


def check_verdicts(sc, parts, ignore, step, nodes, samples):
    """motion._steps_collide on the rows (node, sample) must be
    footprint_collides_xy at the point grow steps to; returns the kernel's
    answers."""
    d = np.array([math.dist(a, q) for a, q in zip(nodes, samples)])
    got = motion._steps_collide(sc, parts, ignore, step, motion._columns(nodes), motion._columns(samples), d)
    want = [footprint_collides_xy(sc, parts, *grow_end(a, q, step), ignore) for a, q in zip(nodes, samples)]
    assert got == want, (parts, ignore)
    return want


def test_step_verdicts_match_the_kernel():
    # robot, compound and object-alone footprints, each with its planner
    # call's ignore set and with none; half the samples lie within a step
    # of their node, and some of those outside the workspace
    rng = random.Random(8100)
    hits = total = 0
    for name in ("four_blocks", "doorway", "nested_blockers", "m_block_12"):
        sc = make_scene(name, 4)
        ws = sc.workspace
        for qsc, parts, _, _, ignore in random_queries(sc, rng, 9):
            step = 0.5 * qsc.robot.w
            nodes = [(rng.uniform(ws.xmin, ws.xmax), rng.uniform(ws.ymin, ws.ymax)) for _ in range(80)]
            samples = [
                (x + rng.uniform(-step, step), y + rng.uniform(-step, step))
                if k % 2
                else (rng.uniform(ws.xmin, ws.xmax), rng.uniform(ws.ymin, ws.ymax))
                for k, (x, y) in enumerate(nodes)
            ]
            for ig in (ignore, frozenset()):
                want = check_verdicts(qsc, parts, ig, step, nodes, samples)
                hits += sum(want)
                total += len(want)
    assert 0.2 * total < hits < 0.8 * total


def on_bound(bound, hw, sign):
    """Centers c whose part edge, c - hw (sign -1) or c + hw (sign 1), is
    exactly bound: the doubles within 4 ulps of bound - sign * hw."""
    c = bound - sign * hw
    for _ in range(4):
        c = math.nextafter(c, -math.inf)
    out = []
    for _ in range(9):
        if c + sign * hw == bound:
            out.append(c)
        c = math.nextafter(c, math.inf)
    return out


def test_step_verdicts_on_boundaries():
    # each endpoint is its sample, a step of 0.125 straight along one axis
    # from its node, so the endpoints are exact
    hw = 0.25
    parts = ((0.0, 0.0, 2 * hw, 2 * hw),)
    ignore = frozenset({"robot"})
    step = hw

    def along_x(x, y):
        return (x, y - 0.125), (x, y)

    def along_y(x, y):
        return (x - 0.125, y), (x, y)

    # flush with a wall's left and top edges, and up to 2 ulps into it
    sc = scene([robot(1.0, 1.0, 2 * hw), wall("w", 6.0, 5.0, 1.0, 4.0)])
    rows = [along_x(x, 5.0) for x in on_bound(5.5, hw, 1)]
    rows += [along_y(6.0, y) for y in on_bound(7.0, hw, -1)]
    x, y = 5.5 - hw, 7.0 + hw
    for _ in range(3):
        rows += [along_x(x, 5.0), along_y(6.0, y)]
        x, y = math.nextafter(x, math.inf), math.nextafter(y, -math.inf)
    assert not any(check_verdicts(sc, parts, ignore, step, *zip(*rows)))

    # a footprint across a sliver wall overlaps it by the wall's width:
    # exactly EPS is free, one ulp wider collides
    ws = Rect(-5.0, -5.0, 5.0, 5.0)
    for w, want in [(math.nextafter(EPS, 0.0), False), (EPS, False), (math.nextafter(EPS, 1.0), True)]:
        for sliver, row in [(wall("s", w / 2, 0.0, w, 2.0), along_x(0.0, 0.0)), (wall("s", 0.0, w / 2, 2.0, w), along_y(0.0, 0.0))]:
            sc = scene([robot(-3.0, -3.0, 2 * hw), sliver], ws=ws)
            assert check_verdicts(sc, parts, ignore, step, [row[0]], [row[1]]) == [want]

    # a part edge exactly on the loosened workspace bound is inside, one
    # ulp past it is out
    found = 0
    for a in (0.0, 0.3, 1.0, 1.7, 2.5):
        sc = scene([robot(a + 4.5, a + 4.5, 2 * hw)], ws=Rect(a, a, a + 9.0, a + 9.0))
        wx0, wy0, wx1, wy1 = sc._ws_loose
        mid = a + 4.5
        for bound, sign, make in [(wx0, -1, lambda c: along_x(c, mid)), (wx1, 1, lambda c: along_x(c, mid)),
                                  (wy0, -1, lambda c: along_y(mid, c)), (wy1, 1, lambda c: along_y(mid, c))]:
            for c in on_bound(bound, hw, sign):
                past = math.nextafter(c, sign * math.inf)
                rows = [make(c), make(past)]
                assert check_verdicts(sc, parts, ignore, step, *zip(*rows)) == [False, True]
                found += 1
    assert found >= 8


# -- shortcut smoothing -----------------------------------------------------


def zigzag_scene() -> Scene:
    """Two staggered walls for a robot of side 1: from (1, 9) to (9, 1) a
    route passes over the first wall and under the second, and its smoothed
    path keeps a waypoint at each turn."""
    return scene([robot(1.0, 9.0, 1.0), wall("w1", 3.5, 3.5, 1.0, 7.0), wall("w2", 6.5, 6.5, 1.0, 7.0)])


def test_smoothing_tests_each_pair_once(monkeypatch, counting):
    # the segment tests each implementation makes from its first smoothing
    # draw on; the reference repeats pairs, birrt must not
    mine, theirs = [], []
    first = [0]

    def smoothing(k):
        n = first[0] + k
        return len(counting) > n and counting[n].marks

    inner_xy = motion.segment_hits_xy
    inner = segment_hits

    def spy_xy(obstacles, ax, ay, bx, by):
        if smoothing(0):
            mine[-1].append((ax, ay, bx, by))
        return inner_xy(obstacles, ax, ay, bx, by)

    def spy(obstacles, a, b):
        if smoothing(1):
            theirs[-1].append((a.x, a.y, b.x, b.y))
        return inner(obstacles, a, b)

    monkeypatch.setattr(motion, "segment_hits_xy", spy_xy)
    monkeypatch.setitem(globals(), "segment_hits", spy)
    rng = random.Random(7900)
    queries = []
    for name in ("nested_blockers", "m_block_12"):
        sc = make_scene(name, 2)
        spec = GridSpec.from_scene(sc)
        queries += [(*q, spec) for q in random_queries(sc, rng, 30)]
    zz = zigzag_scene()
    queries += [(zz, square(1.0), Pose2(1.0, 9.0), Pose2(9.0, 1.0), frozenset({"robot"}), GridSpec.from_scene(zz))] * 4
    for qsc, parts, start, goal, ignore, spec in queries:
        first[0] = len(counting)
        mine.append([])
        theirs.append([])
        assert_counts_agree(counting, qsc, parts, start, goal, rng.randrange(2**32), rng.choice((60, 400, 2000)), ignore, spec)
        assert len(set(mine[-1])) == len(mine[-1]), (parts, start, goal)
        assert set(mine[-1]) <= set(theirs[-1])
    assert sum(map(len, mine)) > 100
    assert sum(len(t) - len(set(t)) for t in theirs) > 100


def test_smoothing_tests_no_footprint(monkeypatch, counting):
    # every waypoint was found free before smoothing starts, so birrt's
    # shortcuts test the segment alone; the paths still equal the
    # reference's, whose shortcuts also test the far end's footprint
    late = []
    first = [0]
    inner = motion.footprint_collides_xy

    def spy(*args):
        if len(counting) > first[0] and counting[first[0]].marks:
            late.append(args[2:4])
        return inner(*args)

    monkeypatch.setattr(motion, "footprint_collides_xy", spy)
    # about one random query in six reaches smoothing (13 of these 80), so
    # with the zig-zag's three, 16 calls smooth, over the ten asked below
    rng = random.Random(7950)
    queries = []
    for name in ("nested_blockers", "m_block_12"):
        sc = make_scene(name, 3)
        spec = GridSpec.from_scene(sc)
        queries += [(*q, spec) for q in random_queries(sc, rng, 40)]
    zz = zigzag_scene()
    queries += [(zz, square(1.0), Pose2(1.0, 9.0), Pose2(9.0, 1.0), frozenset({"robot"}), GridSpec.from_scene(zz))] * 3
    smoothed = 0
    for qsc, parts, start, goal, ignore, spec in queries:
        first[0] = len(counting)
        assert_counts_agree(counting, qsc, parts, start, goal, rng.randrange(2**32), rng.choice((60, 400, 2000)), ignore, spec)
        smoothed += bool(counting[first[0]:] and counting[first[0]].marks)
    assert late == []
    assert smoothed >= 10


def test_smoothing_stops_once_every_pair_is_blocked(counting):
    # on the zig-zag every pair of the smoothed path at least two apart is
    # often blocked, so later attempts cannot change the path, and birrt
    # stops drawing long before the reference's SHORTCUT_ATTEMPTS pairs; a
    # call that stops early must have its every reachable pair blocked
    sc = zigzag_scene()
    spec = GridSpec.from_scene(sc)
    start, goal = Pose2(1.0, 9.0), Pose2(9.0, 1.0)
    obstacles = inflate(sc, ((0.0, 0.0, 1.0, 1.0),), frozenset({"robot"}))
    stopped = []
    for seed in range(12):
        path, _ = assert_counts_agree(counting, sc, square(1.0), start, goal, seed, 5000, frozenset({"robot"}), spec)
        mine, ref = counting[-2:]
        assert len(ref.marks) == 2 * SHORTCUT_ATTEMPTS
        if len(mine.marks) == len(ref.marks):
            continue
        # the draws reach the first m waypoints
        wps = path.waypoints
        m = len(wps) - 1
        assert m >= 3
        assert all(segment_hits(obstacles, wps[i], wps[j]) for i in range(m) for j in range(i + 2, m))
        stopped.append(seed)
    assert 3 in stopped and len(stopped) >= 8


@pytest.mark.parametrize("name,seed", [("nested_blockers", 0), ("m_block_12", 2)])
def test_planning_queries_match_reference_in_blocks(monkeypatch, dense_lookahead, name, seed):
    calls, deferred = [], []
    inner = motion.birrt
    monkeypatch.setattr(motion, "birrt", birrt_recorder(calls, deferred))
    rows = BlockRows(monkeypatch)
    cfg = planner.PlannerConfig().merged({"seed": seed}, "test")
    planner.plan_rearrangement(make_scene(name, seed), cfg)
    monkeypatch.setattr(motion, "birrt", inner)
    for args, kwargs, out in calls:
        assert waypoints(out) == waypoints(ref_birrt(*args, **kwargs))
    assert_deferred_find_paths(deferred)
    assert rows.total > 1000


def test_lattice_samples_tie_inside_dense_blocks(monkeypatch, dense_lookahead):
    # the scenes of test_lattice_samples_tie_inside_birrt, answered in
    # blocks almost from the start, where block rows tie often
    monkeypatch.setattr(random, "Random", LatticeRandom)
    rows = BlockRows(monkeypatch)
    rng = random.Random(2)
    side, h = 1.5, 0.75
    for seed in range(200):
        wy = 3.0 if rng.random() < 0.5 else 5.0
        sc = scene([robot(1.0, 1.0, side), wall("w", 4.0, wy, 1.0, 6.0)], ws=Rect(0.0, 0.0, 8.0, 8.0))
        start = Pose2(rng.choice((h, h + 0.5, 1.5, 2.0)), rng.choice((h, 2.0, 4.0, 6.0, 8.0 - h)))
        goal = Pose2(8.0 - rng.choice((h, h + 0.5, 1.5, 2.0)), rng.choice((h, 2.0, 4.0, 6.0, 8.0 - h)))
        assert_agrees(sc, square(side), start, goal, seed, 200, frozenset({"robot"}), GridSpec.from_scene(sc))
    assert rows.ambiguous > 50


def near_ties(rng: random.Random):
    """Points at almost the same distance from q (on one circle, rounded to
    doubles), so the squared sums can order them otherwise than math.dist."""
    qx, qy = rng.uniform(-5, 5), rng.uniform(-5, 5)
    r = rng.uniform(0.1, 5)
    pts = []
    for _ in range(rng.randint(2, 12)):
        t = rng.uniform(0, 2 * math.pi)
        pts.append((qx + r * math.cos(t), qy + r * math.sin(t)))
    if rng.random() < 0.3:
        pts.append(rng.choice(pts))
    return pts, (qx, qy)


def test_block_rows_are_exact_or_ambiguous():
    # every unambiguous row is _nearest's index; the inputs include rows
    # whose smallest squared sum is not at that index, so an argmin with
    # no margin would be wrong
    rng = random.Random(6400)
    misordered = ambiguous = 0
    for _ in range(300):
        pts, q = near_ties(rng)
        qs = [q] + [(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(rng.randint(0, 3))]
        rows = block_nearest(pts, qs)
        assert len(rows) == len(qs)
        for row, p in zip(rows, qs):
            want = motion._nearest(pts, p)[0]
            if row < 0:
                ambiguous += 1
            else:
                assert row == want, (pts, p)
            d2 = [(x - p[0]) * (x - p[0]) + (y - p[1]) * (y - p[1]) for x, y in pts]
            misordered += d2.index(min(d2)) != want
    assert misordered > 10
    assert ambiguous > misordered
    assert block_nearest([(0.0, 0.0)], []) == []


# -- the scan itself --------------------------------------------------------


def tie_heavy(rng: random.Random):
    """Points on a coarse dyadic lattice around q: duplicates, mirror images
    and equal-radius points, so the minimum is often shared."""
    qx, qy = rng.randrange(-8, 9) / 4, rng.randrange(-8, 9) / 4
    pts = []
    for _ in range(rng.randint(1, 60)):
        r = rng.random()
        if r < 0.3 and pts:
            pts.append(rng.choice(pts))                       # duplicate node
        elif r < 0.6:
            dx, dy = rng.randrange(-3, 4) / 4, rng.randrange(-3, 4) / 4
            sx, sy = rng.choice((-1, 1)), rng.choice((-1, 1))
            pts.append((qx + sx * dx, qy + sy * dy))          # mirror images
        elif r < 0.8:
            dx, dy = rng.choice(((0.75, 1.0), (1.0, 0.75), (1.25, 0.0), (0.0, 1.25), (0.6, 0.8)))
            pts.append((qx + rng.choice((-1, 1)) * dx, qy + rng.choice((-1, 1)) * dy))   # radius 1.25
        else:
            pts.append((rng.randrange(-16, 17) / 4, rng.randrange(-16, 17) / 4))
    return pts, Pose2(qx, qy)


def test_nearest_matches_the_loop_on_ties():
    rng = random.Random(6200)
    tied = 0
    for _ in range(3000):
        pts, q = tie_heavy(rng)
        got = motion._nearest(pts, (q.x, q.y))
        want = ref_nearest(pts, q)
        assert got == want, (pts, q)
        tied += sum(1 for x, y in pts if Pose2(x, y).dist(q) == want[1]) > 1
    assert tied > 1000


def test_nearest_distances_are_pose_dist_doubles():
    # magnitudes from 1e-9 to 1e6, negative and integer coordinates: every
    # distance must be the double Pose2.dist gives, not merely close to it
    rng = random.Random(6300)
    for _ in range(2000):
        scale = 10.0 ** rng.randint(-9, 6)
        pts = [(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale) for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.2:
            pts.append((rng.randint(-50, 50), rng.randint(-50, 50)))
        q = Pose2(rng.uniform(-1, 1) * scale, rng.randint(-50, 50) if rng.random() < 0.2 else rng.uniform(-1, 1) * scale)
        for k in range(len(pts)):
            i, d = motion._nearest(pts[k:k + 1], (q.x, q.y))
            assert (i, d) == (0, Pose2(*pts[k]).dist(q))
        assert motion._nearest(pts, (q.x, q.y)) == ref_nearest(pts, q)


def test_nearest_since_matches_the_loop_on_ties():
    # points appended after the block row was computed, on tie-heavy
    # inputs: duplicates and equal-radius points on both sides of the cut
    rng = random.Random(6500)
    tied_across = 0
    for _ in range(3000):
        pts, q = tie_heavy(rng)
        q = (q.x, q.y)
        n0 = rng.randint(1, len(pts))
        row = block_nearest(pts[:n0], [q])[0]
        want = ref_nearest(pts, Pose2(*q))
        assert motion._nearest_since(pts, q, row, n0) == want, (pts, q, n0)
        if row >= 0:
            tied_across += any(math.dist(p, q) == want[1] for p in pts[n0:])
    assert tied_across > 100


# -- grid route endpoint ----------------------------------------------------


def test_grid_route_ends_at_goal_itself():
    # a wall between start and goal forces a route; max_iters=0 sends it to
    # the grid at once, and the goal sits 5e-13 off its cell center, so the
    # center and the goal are within the 1e-12 dedup distance
    sc = scene([robot(1.0, 5.0), wall("w", 5.0, 5.0, 0.5, 4.0)])
    spec = GridSpec.from_scene(sc)
    center = spec.center(spec.cell_of(Pose2(8.0, 5.0)))
    goal = Pose2(center.x + 5e-13, center.y)
    assert goal != center and goal.dist(center) <= 1e-12
    start = Pose2(1.0, 5.0)
    path = motion.birrt(sc, square(0.4), start, goal, 3, 0, ignore=frozenset({"robot"}), spec=spec)
    assert path is not None
    assert path.waypoints[0] == start
    assert path.waypoints[-1] == goal
    assert motion.sweep_clear(sc, ((0.0, 0.0, 0.4, 0.4),), path.waypoints, frozenset({"robot"}))
    # the reference ended the same route at the cell center
    old = ref_birrt(sc, square(0.4), start, goal, 3, 0, ignore=frozenset({"robot"}), spec=spec)
    assert old.waypoints[-1] == center
    assert path.waypoints[:-1] == old.waypoints[:-1]
