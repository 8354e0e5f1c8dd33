"""The raster memo on GridSpec against the uncached computations.

The reference functions below are the uncached per-part fit mask, component
labelling, swept-cell stamping and static clearance map that the memo now
serves.  On seeded scenes and their with_pose / without / statics_only
successors, all queried through one spec so that entries from earlier
scenes are there to be (wrongly) hit, the memoized outputs must equal the
reference exactly.  Cached arrays must be read-only, cached lists must come
out as copies, and no entry may outlive the planning call that made it.

``ref_swept_cells`` is the stamping loop that the numpy sweep replaced.
Both must give identical cell tuples on every ``swept_cells`` call that
planning makes on the desk and relocation suites and m_block_16 at seeds
0-9, and on polylines with zero-length segments, a single pose and no
poses, poses and rect edges on cell edges and one ulp either side,
footprints hanging off each grid edge, and two-part footprints.
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from scipy import ndimage

from rearrange2d import bench, grids
from rearrange2d.bench import make_scene
from rearrange2d.grids import (
    GridSpec,
    component_labels,
    fit_mask,
    grid_connected,
    static_clearance,
    swept_cells,
)
from rearrange2d.motion import compound_parts
from rearrange2d.planner import PlannerConfig, plan_rearrangement
from rearrange2d.world import EPS, KIND_ROBOT, Pose2, Rect

from conftest import goal_obj, obstacle, robot, scene, wall

# -- reference --------------------------------------------------------------


def ref_part_fit(scene, spec, dx, dy, w, h, ignore):
    """Reference cells whose center puts one offset part collision-free."""
    free = np.zeros((spec.ny, spec.nx), dtype=bool)
    ws = scene.workspace
    x0 = ws.xmin + w / 2.0 - dx - EPS
    x1 = ws.xmax - w / 2.0 - dx + EPS
    y0 = ws.ymin + h / 2.0 - dy - EPS
    y1 = ws.ymax - h / 2.0 - dy + EPS
    ix0 = int(math.ceil((x0 - spec.origin.x) / spec.cell_w - 0.5))
    ix1 = int(math.floor((x1 - spec.origin.x) / spec.cell_w - 0.5))
    iy0 = int(math.ceil((y0 - spec.origin.y) / spec.cell_h - 0.5))
    iy1 = int(math.floor((y1 - spec.origin.y) / spec.cell_h - 0.5))
    ix0, ix1 = max(ix0, 0), min(ix1, spec.nx - 1)
    iy0, iy1 = max(iy0, 0), min(iy1, spec.ny - 1)
    if ix0 > ix1 or iy0 > iy1:
        return free
    free[iy0 : iy1 + 1, ix0 : ix1 + 1] = True
    for b in scene.bodies:
        if b.kind == KIND_ROBOT or b.id in ignore:
            continue
        r = b.rect()
        bx0 = int(math.floor((r.xmin - w / 2.0 - dx - spec.origin.x) / spec.cell_w - 0.5 + 1e-9)) + 1
        bx1 = int(math.ceil((r.xmax + w / 2.0 - dx - spec.origin.x) / spec.cell_w - 0.5 - 1e-9)) - 1
        by0 = int(math.floor((r.ymin - h / 2.0 - dy - spec.origin.y) / spec.cell_h - 0.5 + 1e-9)) + 1
        by1 = int(math.ceil((r.ymax + h / 2.0 - dy - spec.origin.y) / spec.cell_h - 0.5 - 1e-9)) - 1
        bx0, bx1 = max(bx0, 0), min(bx1, spec.nx - 1)
        by0, by1 = max(by0, 0), min(by1, spec.ny - 1)
        if bx0 <= bx1 and by0 <= by1:
            free[by0 : by1 + 1, bx0 : bx1 + 1] = False
    return free


def ref_fit_mask_parts(scene, spec, parts, ignore):
    free = None
    for dx, dy, w, h in parts:
        m = ref_part_fit(scene, spec, dx, dy, w, h, ignore)
        free = m if free is None else (free & m)
    return free


def ref_grid_connected(free, a, b):
    a = grids.snap_to_free(free, a)
    b = grids.snap_to_free(free, b)
    if a is None or b is None:
        return False
    labels, _ = ndimage.label(free)
    return labels[a[1], a[0]] == labels[b[1], b[0]]


def ref_swept_cells(spec, parts, poses):
    step = 0.5 * min(spec.cell_w, spec.cell_h)
    seen = {}
    order = 0

    def stamp(p):
        nonlocal order
        for dx, dy, w, h in parts:
            r = Rect(p.x + dx - w / 2, p.y + dy - h / 2, p.x + dx + w / 2, p.y + dy + h / 2)
            ix0, ix1, iy0, iy1 = spec.rect_cells(r)
            for iy in range(iy0, iy1 + 1):
                for ix in range(ix0, ix1 + 1):
                    if (ix, iy) not in seen:
                        seen[(ix, iy)] = order
                        order += 1

    pts = list(poses)
    if not pts:
        return []
    stamp(pts[0])
    for a, b in zip(pts, pts[1:]):
        d = a.dist(b)
        n = max(1, int(math.ceil(d / step)))
        for k in range(1, n + 1):
            t = k / n
            stamp(Pose2(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t))
    return sorted(seen, key=seen.get)


def ref_static_clearance(scene, spec):
    occ = grids.occupancy_mask(scene.statics_only(), spec)
    return grids.edt(occ) * spec.resolution


# -- inputs -----------------------------------------------------------------


def random_scene(rng: random.Random):
    """Walls, obstacles and goal objects on a 0.25 lattice (so flush contacts
    and exact cell-edge alignments are common), plus the robot."""
    snap = lambda v: round(v * 4) / 4  # noqa: E731
    bodies = [robot(snap(rng.uniform(0.5, 9.5)), snap(rng.uniform(0.5, 9.5)))]
    for i in range(rng.randint(0, 3)):
        vertical = rng.random() < 0.5
        w, h = (0.5, snap(rng.uniform(1.0, 5.0))) if vertical else (snap(rng.uniform(1.0, 5.0)), 0.5)
        bodies.append(wall(f"w{i}", snap(rng.uniform(1, 9)), snap(rng.uniform(1, 9)), w, h))
    goals = {}
    for i in range(rng.randint(2, 7)):
        x, y = snap(rng.uniform(0.5, 9.5)), snap(rng.uniform(0.5, 9.5))
        w, h = snap(rng.uniform(0.25, 1.25)), snap(rng.uniform(0.25, 1.25))
        if rng.random() < 0.5:
            bodies.append(goal_obj(f"g{i}", x, y, w, h))
            goals[f"g{i}"] = Pose2(snap(rng.uniform(1, 9)), snap(rng.uniform(1, 9)))
        else:
            bodies.append(obstacle(f"o{i}", x, y, w, h))
    return scene(bodies, goals)


def successors(sc, rng: random.Random):
    """sc, then successors that change, restore and drop bodies."""
    movables = [b.id for b in sc.movables]
    out = [sc]
    if movables:
        oid = rng.choice(movables)
        home = sc.body(oid).pose
        moved = sc.with_pose(oid, Pose2(home.x + 0.25, home.y - 0.5))
        out += [moved, moved.with_pose(oid, home)]
        out.append(sc.without(tuple(rng.sample(movables, rng.randint(1, len(movables))))))
        out.append(sc.statics_only(keep=oid))
    out.append(sc.with_pose(sc.robot.id, Pose2(5.0, 5.0)))
    out.append(sc.statics_only())
    if sc.walls:
        out.append(sc.without((sc.walls[0].id,)))
    # an equal scene built afresh, as task_feasible builds scene.without(...)
    out.append(sc.without(()))
    return out


def queries(sc, rng: random.Random):
    """Footprints and ignore sets the planner asks about in sc."""
    rs = sc.robot.w
    ids = [b.id for b in sc.bodies]
    out = [((0.0, 0.0, rs, rs),), ((0.0, 0.0, 0.5, 0.75),)]
    for b in sc.movables[:2]:
        out.append(((0.0, 0.0, b.w, b.h),))
        out.append(compound_parts(rng.choice("NESW"), b.w, b.h, rs))
    ignores = [frozenset(), frozenset({sc.robot.id}), frozenset(rng.sample(ids, min(2, len(ids))))]
    return [(parts, ignore) for parts in out for ignore in ignores]


def pose_runs(sc, rng: random.Random):
    ws = sc.workspace
    runs = [[], [Pose2(1.0, 1.0)], [Pose2(1.0, 5.0), Pose2(4.0, 5.0)]]
    for _ in range(3):
        runs.append([Pose2(rng.uniform(ws.xmin, ws.xmax), rng.uniform(ws.ymin, ws.ymax))
                     for _ in range(rng.randint(2, 4))])
    return runs


# -- agreement --------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_memo_agrees_with_reference(seed):
    rng = random.Random(5300 + seed)
    base = random_scene(rng)
    spec = GridSpec.from_scene(base, rng.choice((16, 32, 64)))
    for sc in successors(base, rng):
        for parts, ignore in queries(sc, rng):
            want = ref_fit_mask_parts(sc, spec, parts, ignore)
            for _ in range(2):  # the second round is served by the memo
                got = fit_mask(sc, spec, parts, ignore)
                assert np.array_equal(got, want)
                assert np.array_equal(component_labels(got, spec), ndimage.label(want)[0])
                for _ in range(4):
                    a = (rng.randrange(spec.nx), rng.randrange(spec.ny))
                    b = (rng.randrange(spec.nx), rng.randrange(spec.ny))
                    assert grid_connected(got, a, b, spec) == ref_grid_connected(want, a, b)
        for poses in pose_runs(sc, rng):
            for parts, _ in queries(sc, rng)[::3]:
                want = ref_swept_cells(spec, parts, poses)
                assert swept_cells(spec, parts, poses) == want
                assert swept_cells(spec, parts, iter(poses)) == want
        for _ in range(2):
            assert np.array_equal(static_clearance(sc, spec), ref_static_clearance(sc, spec))


def test_labels_follow_mask_content():
    spec = GridSpec.from_scene(scene([robot(1.0, 1.0)]), 8)
    free = np.ones((8, 8), dtype=bool)
    free[:, 3] = False
    assert not grid_connected(free, (0, 0), (7, 7), spec)
    free[0, 3] = True   # same array object, new content
    assert grid_connected(free, (0, 0), (7, 7), spec)


# -- read-only arrays, copied lists ----------------------------------------

BOX = ((0.0, 0.0, 0.4, 0.4),)


def test_cached_arrays_are_read_only(simple_scene):
    spec = GridSpec.from_scene(simple_scene)
    mask = fit_mask(simple_scene, spec, BOX)
    parts = fit_mask(simple_scene, spec, compound_parts("W", 0.6, 0.6, 0.4))
    arrays = [mask, parts, component_labels(mask, spec), static_clearance(simple_scene, spec)]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0, 0] = arr[0, 0]
    with pytest.raises(ValueError):
        mask &= False
    assert np.array_equal(fit_mask(simple_scene, spec, BOX), ref_part_fit(
        simple_scene, spec, 0.0, 0.0, 0.4, 0.4, frozenset()))


def test_swept_cells_hands_out_copies():
    spec = GridSpec.from_scene(scene([robot(1.0, 1.0)]))
    parts = ((0.0, 0.0, 0.4, 0.4),)
    poses = [Pose2(1.0, 5.0), Pose2(4.0, 5.0)]
    first = swept_cells(spec, parts, poses)
    want = list(first)
    first.clear()
    assert swept_cells(spec, parts, poses) == want


# -- the numpy sweep against the stamping loop -------------------------------


def assert_sweeps_match(spec, parts, poses):
    """swept_cells, the memo bypassed and through it, equals the loop."""
    want = ref_swept_cells(spec, parts, poses)
    assert list(grids._swept_cells(spec, tuple(map(tuple, parts)), tuple(poses))) == want
    assert swept_cells(spec, parts, poses) == want


SWEPT_RUNS = [
    ("desk", bench.SUITES["desk"]),
    ("relocation", bench.SUITES["relocation"]),
    ("m_block_16", ("m_block_16",)),
]


@pytest.mark.parametrize("names", [names for _, names in SWEPT_RUNS], ids=[run for run, _ in SWEPT_RUNS])
def test_every_sweep_of_planning_matches_the_loop(monkeypatch, names):
    # every swept_cells call planning makes at seeds 0-9
    calls = []
    inner = grids.swept_cells

    def record(spec, parts, poses):
        poses = tuple(poses)
        # a copy of the spec with an empty memo: planning's memos are freed
        calls.append((dataclasses.replace(spec), parts, poses))
        return inner(spec, parts, poses)

    monkeypatch.setattr(grids, "swept_cells", record)
    for name in names:
        for seed in range(10):
            plan_rearrangement(make_scene(name, seed), PlannerConfig(seed=seed))
    monkeypatch.undo()
    assert calls
    for spec, parts, poses in calls:
        assert_sweeps_match(spec, parts, poses)


@pytest.mark.parametrize("seed", range(8))
def test_polylines_with_zero_length_segments(seed):
    rng = random.Random(7100 + seed)
    n = rng.choice((16, 32, 64))
    spec = GridSpec(Pose2(0.0, 0.0), n, n, 10.0 / n, 10.0 / n)
    for _ in range(20):
        poses = [Pose2(rng.uniform(0.5, 9.5), rng.uniform(0.5, 9.5))]
        for _ in range(rng.randint(1, 5)):
            # repeat a pose as often as move on
            poses.append(poses[-1] if rng.random() < 0.5 else Pose2(rng.uniform(0.5, 9.5), rng.uniform(0.5, 9.5)))
        w, h = rng.uniform(0.1, 1.5), rng.uniform(0.1, 1.5)
        assert_sweeps_match(spec, ((0.0, 0.0, w, h),), poses)
        assert_sweeps_match(spec, compound_parts(rng.choice("NESW"), w, h, 0.4), poses)


def test_a_single_pose_and_no_poses():
    spec = GridSpec(Pose2(0.0, 0.0), 40, 40, 0.25, 0.25)
    for parts in (((0.0, 0.0, 0.4, 0.4),), compound_parts("S", 0.6, 0.9, 0.4)):
        assert_sweeps_match(spec, parts, [Pose2(3.3, 4.1)])
        assert_sweeps_match(spec, parts, [])
    assert swept_cells(spec, ((0.0, 0.0, 0.4, 0.4),), []) == []


def _ulps(v):
    return (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))


def test_poses_and_rects_on_cell_edges():
    # cells of 0.25 on a 10-wide grid: the poses, and with w and h whole
    # cells the rect edges too, sit on cell edges or one ulp either side
    spec = GridSpec(Pose2(0.0, 0.0), 40, 40, 0.25, 0.25)
    for w, h in ((0.5, 0.5), (0.25, 0.75), (0.4, 0.4)):
        for parts in (((0.0, 0.0, w, h),), compound_parts("E", w, h, 0.25)):
            for x in _ulps(2.5):
                for y in _ulps(3.75):
                    assert_sweeps_match(spec, parts, [Pose2(x, y)])
                    # a segment along a cell edge, and one across cell edges
                    assert_sweeps_match(spec, parts, [Pose2(x, y), Pose2(x, y + 1.0)])
                    assert_sweeps_match(spec, parts, [Pose2(x, y), Pose2(x + 0.75, y + 0.25), Pose2(x, y)])


@pytest.mark.parametrize("corner", [(0.0, 5.0), (10.0, 5.0), (5.0, 0.0), (5.0, 10.0), (0.0, 0.0), (10.0, 10.0)])
def test_footprints_hanging_off_the_grid(corner):
    # rects reaching past an edge are clamped to the grid; one wholly off
    # it covers nothing
    spec = GridSpec(Pose2(0.0, 0.0), 32, 32, 10.0 / 32, 10.0 / 32)
    x, y = corner
    for parts in (((0.0, 0.0, 1.2, 0.8),), compound_parts("N", 1.0, 0.6, 0.4), ((3.0, -3.0, 0.5, 0.5),)):
        assert_sweeps_match(spec, parts, [Pose2(x, y)])
        assert_sweeps_match(spec, parts, [Pose2(x, y), Pose2(5.0, 5.0), Pose2(x, y)])
        assert_sweeps_match(spec, parts, [Pose2(x - 2.0, y - 2.0), Pose2(x + 2.0, y - 2.0)])
    assert swept_cells(spec, ((0.0, 0.0, 0.5, 0.5),), [Pose2(-3.0, -3.0)]) == []


def test_two_part_footprints_keep_part_order():
    # the second part covers cells first reached in the same stamp after
    # the first part's, so the order tells the parts apart
    spec = GridSpec(Pose2(0.0, 0.0), 40, 40, 0.25, 0.25)
    rng = random.Random(7200)
    for side in "NESW":
        for _ in range(10):
            w, h = rng.uniform(0.2, 1.2), rng.uniform(0.2, 1.2)
            poses = [Pose2(rng.uniform(1, 9), rng.uniform(1, 9)) for _ in range(rng.randint(1, 4))]
            parts = compound_parts(side, w, h, 0.4)
            assert len(parts) == 2
            assert_sweeps_match(spec, parts, poses)
            assert_sweeps_match(spec, parts[::-1], poses)


# -- lifetime and keys ------------------------------------------------------


def _count_raw_masks(monkeypatch) -> list[int]:
    built = [0]
    inner = grids._part_mask

    def spy(*args):
        built[0] += 1
        return inner(*args)

    monkeypatch.setattr(grids, "_part_mask", spy)
    return built


def test_equal_scenes_share_entries(monkeypatch, simple_scene):
    # keys are contents: a fresh but equal scene is served from the memo
    spec = GridSpec.from_scene(simple_scene)
    built = _count_raw_masks(monkeypatch)
    fit_mask(simple_scene, spec, BOX)
    fit_mask(simple_scene.without(()), spec, BOX)
    # an ignored body and an absent one leave the same obstacles
    fit_mask(simple_scene, spec, BOX, frozenset({"b1"}))
    fit_mask(simple_scene.without(("b1",)), spec, BOX)
    assert built[0] == 2


def test_one_part_mask_is_its_part_entry_and_compounds_combine_once(simple_scene):
    spec = GridSpec.from_scene(simple_scene)
    obstacles = grids._obstacle_bounds(simple_scene, frozenset())
    mask = fit_mask(simple_scene, spec, BOX)
    # a one-part footprint adds no entry of its own: its mask is the part's
    assert mask is grids._part_fit(spec, simple_scene.workspace, obstacles, BOX[0])
    assert len(spec.memo) == 1
    parts = compound_parts("W", 0.6, 0.6, 0.4)
    first = fit_mask(simple_scene, spec, parts)
    assert np.array_equal(first, ref_fit_mask_parts(simple_scene, spec, parts, frozenset()))
    # a rebuilt compound would be a new array: equal parts, given as lists,
    # and an equal scene are served the one built above
    assert fit_mask(simple_scene, spec, [list(p) for p in parts]) is first
    assert fit_mask(simple_scene.without(()), spec, parts) is first
    # one entry for each of the two parts and one for the compound
    assert len(spec.memo) == 4
    # other obstacles key another compound
    assert fit_mask(simple_scene, spec, parts, frozenset({"b1"})) is not first


def test_memo_belongs_to_one_spec(simple_scene):
    a = GridSpec.from_scene(simple_scene)
    b = GridSpec.from_scene(simple_scene)
    fit_mask(simple_scene, a, BOX)
    assert a.memo and not b.memo
    assert a == b and hash(a) == hash(b)
    assert not dataclasses.replace(a).memo


def test_no_entry_outlives_its_planning_call(monkeypatch):
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
    built = _count_raw_masks(monkeypatch)
    first = plan_rearrangement(sc)
    per_call = built[0]
    second = plan_rearrangement(sc)
    assert first.status == second.status == "success"
    assert per_call > 0
    assert built[0] == 2 * per_call


@pytest.mark.parametrize("name,seed", [("m_block_8", 1), ("m_block_12", 2), ("nested_blockers", 0), ("swap_pocket", 3)])
def test_grid_n_reaches_every_raster(monkeypatch, name, seed):
    # make_scene first: gen_m_block vets its scenes on a spec of its own
    sc = make_scene(name, seed)
    specs, shapes = [], set()
    init = GridSpec.__init__

    def spec_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        specs.append(self)

    def shape_of(inner):
        def spy(*args, **kwargs):
            spec = next(a for a in (*args, *kwargs.values()) if isinstance(a, GridSpec))
            shapes.add((spec.nx, spec.ny))
            return inner(*args, **kwargs)

        return spy

    monkeypatch.setattr(GridSpec, "__init__", spec_init)
    monkeypatch.setattr(grids, "_part_mask", shape_of(grids._part_mask))
    monkeypatch.setattr(grids, "occupancy_mask", shape_of(grids.occupancy_mask))
    plan_rearrangement(sc, PlannerConfig(grid_n=32, seed=seed))
    assert len(specs) == 1
    assert shapes == {(32, 32)}
