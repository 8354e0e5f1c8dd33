import collections
import math
import random

import numpy as np
import pytest

from rearrange2d.grids import (
    ALPHA_M,
    ALPHA_R,
    BETA_M,
    BETA_R,
    GridSpec,
    edt,
    fit_mask,
    fit_mask_parts,
    grid_anchor,
    grid_connected,
    grid_path,
    occupancy_mask,
    rasterize_gom,
    reachability,
    rects_meet_cells,
    snap_to_free,
    swept_cells,
)
from rearrange2d.world import KIND_ROBOT, Pose2, Rect, footprint_collides

from conftest import obstacle, robot, scene, wall, wedged_scene


@pytest.fixture
def spec64(empty_scene):
    return GridSpec.from_scene(empty_scene)


class TestGridSpec:
    def test_from_scene_defaults(self, empty_scene, spec64):
        assert spec64.nx == spec64.ny == 64
        assert spec64.cell_w == pytest.approx(10.0 / 64)
        assert spec64.origin == Pose2(0.0, 0.0)
        assert spec64.resolution == pytest.approx(max(spec64.cell_w, spec64.cell_h))

    def test_cell_of_and_center(self, spec64):
        c = spec64.cell_of(Pose2(5.0, 5.0))
        assert c == (32, 32)
        mid = spec64.center(c)
        assert spec64.cell_of(mid) == c
        assert mid.x == pytest.approx((32 + 0.5) * spec64.cell_w)

    def test_cell_of_clamps(self, spec64):
        assert spec64.cell_of(Pose2(-5.0, -5.0)) == (0, 0)
        assert spec64.cell_of(Pose2(50.0, 50.0)) == (63, 63)

    def test_rect_cells_overlap_based(self, spec64):
        w = spec64.cell_w
        # rect spanning the interior of cells 2..4 in x, 3 in y
        r = Rect(2.1 * w, 3.2 * w, 4.9 * w, 3.8 * w)
        ix0, ix1, iy0, iy1 = spec64.rect_cells(r)
        assert (ix0, ix1, iy0, iy1) == (2, 4, 3, 3)

    def test_rect_cells_flush_contact_excluded(self, spec64):
        w = spec64.cell_w
        # edges exactly on cell boundaries claim only the interior cells
        r = Rect(2.0 * w, 3.0 * w, 4.0 * w, 5.0 * w)
        ix0, ix1, iy0, iy1 = spec64.rect_cells(r)
        assert (ix0, ix1, iy0, iy1) == (2, 3, 3, 4)

    def test_cells_of_rect(self, spec64):
        w = spec64.cell_w
        cells = spec64.cells_of_rect(Rect(0.5 * w, 0.5 * w, 1.5 * w, 1.5 * w))
        assert cells == {(0, 0), (1, 0), (0, 1), (1, 1)}


class TestOccupancyMask:
    def test_robot_never_rasterized(self, empty_scene, spec64):
        occ = occupancy_mask(empty_scene, spec64)
        assert not occ.any()

    def test_bodies_and_walls_marked(self, walled_scene):
        spec = GridSpec.from_scene(walled_scene)
        occ = occupancy_mask(walled_scene, spec)
        assert occ[spec.cell_of(Pose2(5.0, 4.0))[1], spec.cell_of(Pose2(5.0, 4.0))[0]]
        assert occ[spec.cell_of(Pose2(3.0, 8.0))[1], spec.cell_of(Pose2(3.0, 8.0))[0]]
        assert not occ[spec.cell_of(Pose2(1.0, 1.0))[1], spec.cell_of(Pose2(1.0, 1.0))[0]]

    def test_exclude(self, walled_scene):
        spec = GridSpec.from_scene(walled_scene)
        occ = occupancy_mask(walled_scene, spec, exclude=frozenset({"g1"}))
        ix, iy = spec.cell_of(Pose2(3.0, 8.0))
        assert not occ[iy, ix]

    def test_matches_the_loop(self):
        # bodies with edges on cell edges, within 1e-10 of one, and partly
        # or wholly off the grid, on grids of 16 to 64 cells a side
        rng = random.Random(77)
        nudges = (0.0, 0.0, 3e-11, -3e-11, 1e-8, -1e-8)
        for _ in range(150):
            spec = GridSpec.from_scene(scene([robot(5.0, 5.0)]), rng.choice((16, 40, 64)))
            cw = spec.cell_w

            def coord():
                return rng.randint(-4, spec.nx + 4) * cw + rng.choice(nudges)

            bodies = [robot(coord(), coord())]
            for i in range(rng.randint(0, 12)):
                make = wall if i % 2 else obstacle
                bodies.append(make(f"b{i}", coord(), coord(), rng.randint(1, 8) * cw + rng.choice(nudges), rng.randint(1, 8) * cw + rng.choice(nudges)))
            sc = scene(bodies)
            exclude = frozenset(b.id for b in sc.bodies if rng.random() < 0.3)
            assert np.array_equal(occupancy_mask(sc, spec, exclude), ref_occupancy_mask(sc, spec, exclude))


class TestRasterizeGom:
    def test_values(self, walled_scene):
        spec = GridSpec.from_scene(walled_scene)
        task = [(10, 10), (11, 10)]
        gom = rasterize_gom(walled_scene, task, spec)
        occ = occupancy_mask(walled_scene, spec)
        assert (gom[occ] == 0.0).all()
        assert gom[10, 10] == BETA_M
        assert gom[10, 11] == BETA_M
        free_plain = ~occ
        free_plain[10, 10] = free_plain[10, 11] = False
        assert (gom[free_plain] == ALPHA_M).all()
        assert (gom == BETA_M).sum() == 2

    def test_occupied_wins_over_task(self, walled_scene):
        spec = GridSpec.from_scene(walled_scene)
        wall_cell = spec.cell_of(Pose2(5.0, 4.0))
        gom = rasterize_gom(walled_scene, [wall_cell], spec)
        assert gom[wall_cell[1], wall_cell[0]] == 0.0

    def test_out_of_bounds_counted(self, empty_scene, spec64):
        gom = rasterize_gom(empty_scene, [(-1, 0), (64, 64), (5, 5)], spec64)
        assert (gom == BETA_M).sum() == 1
        assert gom[5, 5] == BETA_M

    @pytest.mark.parametrize(
        "task",
        [
            [(10, 10), (10, 10), (11, 10), (10, 10)],           # duplicates
            [(-1, 0), (0, -1), (64, 3), (3, 64), (-64, -64), (0, 0), (63, 63)],
            [(31, 20), (32, 20), (33, 20), (31, 40), (5, 5)],  # on the divider
            [],
            (),
        ],
        ids=["duplicates", "off-grid", "occupied", "empty-list", "empty-tuple"],
    )
    def test_matches_the_loop(self, walled_scene, task):
        spec = GridSpec.from_scene(walled_scene)
        occ = occupancy_mask(walled_scene, spec)
        if task and task[0] == (31, 20):
            assert occ[20, 31:34].any()
        for _ in range(2):  # the second call is served by the memo
            gom = rasterize_gom(walled_scene, task, spec)
            assert gom.dtype == np.float64
            assert np.array_equal(gom, ref_rasterize_gom(walled_scene, task, spec))

    def test_memo_safety(self, walled_scene):
        spec = GridSpec.from_scene(walled_scene)
        task = ((10, 10), (11, 10), (-1, 3))
        want = ref_rasterize_gom(walled_scene, task, spec)
        first = rasterize_gom(walled_scene, task, spec)
        assert first.flags.writeable
        first[:] = 7.0
        again = rasterize_gom(walled_scene, task, spec)
        assert again is not first
        assert np.array_equal(again, want)
        # equal content from a fresh list is served the same answer
        assert np.array_equal(rasterize_gom(walled_scene, list(task), spec), want)
        cached = [v for v in spec.memo.values() if isinstance(v, np.ndarray)]
        assert cached
        for v in cached:
            assert not v.flags.writeable
            with pytest.raises(ValueError):
                v[0, 0] = 1


class TestRectsMeetCells:
    def test_matches_cells_of_rect(self, spec64):
        # rect edges on cell edges, within a few 1e-10 of one and past the
        # grid, inverted rects among them; cell sets with cells on and off
        # the grid
        rng = random.Random(41)
        cw = spec64.cell_w
        nudges = (0.0, 0.0, 3e-11, -3e-11, 1e-9, -1e-9, 1e-8, -1e-8)

        def edge():
            return rng.randint(-3, 67) * cw + rng.choice(nudges)

        hits = 0
        for _ in range(60):
            cells = frozenset(
                (rng.randint(-2, 65), rng.randint(-2, 65)) for _ in range(rng.randint(0, 40))
            )
            rects = []
            for _ in range(50):
                x0, y0 = edge(), edge()
                rects.append(Rect(x0, y0, x0 + rng.randint(-4, 6) * cw + rng.choice(nudges), y0 + rng.randint(-4, 6) * cw + rng.choice(nudges)))
            got = rects_meet_cells(
                spec64, cells, *(np.array([getattr(r, a) for r in rects]) for a in ("xmin", "ymin", "xmax", "ymax"))
            )
            want = [not spec64.cells_of_rect(r).isdisjoint(cells) for r in rects]
            assert got.tolist() == want
            hits += sum(want)
        assert 20 < hits < 2900
        # a rect inverted on both axes holds no cell, whatever lies between
        # its edges
        inverted = Rect(10 * cw, 10 * cw, 5 * cw, 5 * cw)
        assert spec64.cells_of_rect(inverted) == set()
        got = rects_meet_cells(spec64, frozenset({(7, 7)}), *(np.array([v]) for v in (10 * cw, 10 * cw, 5 * cw, 5 * cw)))
        assert got.tolist() == [False]
        for v in spec64.memo.values():
            assert not v.flags.writeable


def ref_occupancy_mask(scene, spec, exclude=frozenset()):
    """The per-body loop occupancy_mask replaced."""
    occ = np.zeros((spec.ny, spec.nx), dtype=bool)
    for b in scene.bodies:
        if b.kind == KIND_ROBOT or b.id in exclude:
            continue
        ix0, ix1, iy0, iy1 = spec.rect_cells(b.rect())
        if ix0 <= ix1 and iy0 <= iy1:
            occ[iy0 : iy1 + 1, ix0 : ix1 + 1] = True
    return occ


def ref_rasterize_gom(scene, task_cells, spec):
    """The per-cell loop rasterize_gom replaced."""
    occ = ref_occupancy_mask(scene, spec)
    cells = np.where(occ, 0.0, ALPHA_M)
    for c in task_cells:
        ix, iy = c
        if 0 <= ix < spec.nx and 0 <= iy < spec.ny and not occ[iy, ix]:
            cells[iy, ix] = BETA_M
    return cells


class TestFitMask:
    def test_matches_collision_oracle(self):
        # per-cell equivalence with the continuous footprint test
        rng = random.Random(3)
        for trial in range(10):
            bodies = [robot(rng.uniform(0.5, 9.5), rng.uniform(0.5, 9.5))]
            for i in range(rng.randint(1, 4)):
                bodies.append(
                    obstacle(
                        f"o{i}",
                        rng.uniform(0.8, 9.2),
                        rng.uniform(0.8, 9.2),
                        w=rng.uniform(0.3, 1.4),
                        h=rng.uniform(0.3, 1.4),
                    )
                )
            sc = scene(bodies)
            spec = GridSpec.from_scene(sc, 32)
            w, h = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
            free = fit_mask(sc, spec, w, h)
            ignore = frozenset({sc.robot.id})
            for iy in range(spec.ny):
                for ix in range(spec.nx):
                    hit = footprint_collides(
                        sc, ((0.0, 0.0, w, h),), spec.center((ix, iy)), ignore
                    )
                    assert free[iy, ix] == (not hit), (trial, ix, iy)

    def test_ignore_opens_cells(self, simple_scene):
        spec = GridSpec.from_scene(simple_scene)
        blocked = fit_mask(simple_scene, spec, 0.4, 0.4)
        opened = fit_mask(simple_scene, spec, 0.4, 0.4, frozenset({"b1"}))
        ix, iy = spec.cell_of(Pose2(6.0, 6.0))
        assert not blocked[iy, ix]
        assert opened[iy, ix]

    def test_parts_and_of_single_masks(self, simple_scene):
        spec = GridSpec.from_scene(simple_scene)
        parts = ((0.0, 0.0, 0.4, 0.4), (0.5, 0.0, 0.6, 0.6))
        combined = fit_mask_parts(simple_scene, spec, parts)
        ignore = frozenset({simple_scene.robot.id})
        for iy in range(0, spec.ny, 3):
            for ix in range(0, spec.nx, 3):
                hit = footprint_collides(
                    simple_scene, parts, spec.center((ix, iy)), ignore
                )
                assert combined[iy, ix] == (not hit)

    def test_empty_parts_rejected(self, simple_scene):
        spec = GridSpec.from_scene(simple_scene)
        with pytest.raises(ValueError):
            fit_mask_parts(simple_scene, spec, ())


def _sealed_robot_scene():
    # 0.5 x 0.5 pocket walled on all sides; no cell center fits a 0.4 robot
    cx = 3.125
    bodies = [
        robot(cx, cx),
        wall("wl", cx - 0.5, cx, 0.5, 1.5),
        wall("wr", cx + 0.5, cx, 0.5, 1.5),
        wall("wb", cx, cx - 0.5, 1.5, 0.5),
        wall("wt", cx, cx + 0.5, 1.5, 0.5),
    ]
    return scene(bodies)


class TestReachability:
    def test_open_scene(self, simple_scene):
        spec = GridSpec.from_scene(simple_scene)
        reach = reachability(simple_scene, spec)
        assert (reach == ALPHA_R).sum() > 1
        free = fit_mask(simple_scene, spec, 0.4, 0.4)
        assert (reach[free] == ALPHA_R).all()
        # cells inside the obstacle stay at beta_r
        ix, iy = spec.cell_of(Pose2(6.0, 6.0))
        assert reach[iy, ix] == BETA_R

    def test_wall_splits_reachable_set(self, walled_scene):
        spec = GridSpec.from_scene(walled_scene)
        reach = reachability(walled_scene, spec)
        # gap at the top keeps both halves connected
        ix, iy = spec.cell_of(Pose2(8.0, 5.0))
        assert reach[iy, ix] == ALPHA_R

    def test_sealed_robot_degenerate(self):
        sc = _sealed_robot_scene()
        spec = GridSpec.from_scene(sc)
        reach = reachability(sc, spec)
        ix, iy = spec.cell_of(sc.robot.pose)
        # the robot's own cell is still marked reachable, and only it
        assert (reach == ALPHA_R).sum() == 1
        assert reach[iy, ix] == ALPHA_R


def _brute_edt(occ):
    ny, nx = occ.shape
    out = np.zeros((ny, nx))
    if occ.any():
        pts = [(iy, ix) for iy in range(ny) for ix in range(nx) if occ[iy, ix]]
        for iy in range(ny):
            for ix in range(nx):
                if occ[iy, ix]:
                    continue
                out[iy, ix] = math.sqrt(
                    min((iy - py) ** 2 + (ix - px) ** 2 for py, px in pts)
                )
    else:
        for iy in range(ny):
            for ix in range(nx):
                out[iy, ix] = min(ix + 1, nx - ix, iy + 1, ny - iy)
    return out


class TestEdt:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            occ = rng.random((16, 16)) < rng.uniform(0.05, 0.5)
            got = edt(occ)
            assert np.abs(got - _brute_edt(occ)).max() < 1e-9

    def test_all_free_uses_boundary(self):
        occ = np.zeros((8, 8), dtype=bool)
        got = edt(occ)
        assert got[0, 0] == pytest.approx(1.0)
        assert got[4, 4] == pytest.approx(4.0)
        assert np.abs(got - _brute_edt(occ)).max() < 1e-9

    def test_all_occupied(self):
        occ = np.ones((4, 4), dtype=bool)
        assert (edt(occ) == 0.0).all()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            edt(np.zeros((0, 0), dtype=bool))

    def test_lipschitz_between_neighbors(self):
        rng = np.random.default_rng(5)
        occ = rng.random((24, 24)) < 0.2
        d = edt(occ)
        limit = math.sqrt(2.0) + 1e-9
        for dy, dx in ((0, 1), (1, 0), (1, 1)):
            a = d[dy:, dx:]
            b = d[: d.shape[0] - dy, : d.shape[1] - dx]
            assert np.abs(a - b).max() <= limit


class TestSweptCells:
    def test_first_coverage_order(self, spec64):
        parts = ((0.0, 0.0, 0.4, 0.4),)
        cells = swept_cells(spec64, parts, [Pose2(1.0, 5.0), Pose2(4.0, 5.0)])
        assert len(cells) == len(set(cells))
        start_cells = spec64.cells_of_rect(Rect(0.8, 4.8, 1.2, 5.2))
        assert set(cells[: len(start_cells)]) == start_cells
        # first-coverage order is monotone in x for an eastward sweep
        xs = [c[0] for c in cells]
        first_at = {}
        for i, c in enumerate(cells):
            first_at.setdefault(c[0], i)
        ordered = sorted(first_at)
        assert all(
            first_at[a] < first_at[b] for a, b in zip(ordered, ordered[1:])
        )
        assert spec64.cell_of(Pose2(4.0, 5.0)) in cells

    def test_empty_poses(self, spec64):
        assert swept_cells(spec64, ((0.0, 0.0, 0.4, 0.4),), []) == []


class TestSnapToFree:
    def test_free_cell_is_identity(self):
        free = np.ones((5, 5), dtype=bool)
        assert snap_to_free(free, (2, 2)) == (2, 2)

    def test_nearest_by_distance(self):
        free = np.zeros((5, 5), dtype=bool)
        free[2, 4] = True
        assert snap_to_free(free, (3, 2), radius=2) == (4, 2)

    def test_tie_breaks_on_smaller_cell(self):
        free = np.zeros((5, 5), dtype=bool)
        free[2, 1] = True  # cell (1, 2)
        free[2, 3] = True  # cell (3, 2), same distance from (2, 2)
        assert snap_to_free(free, (2, 2)) == (1, 2)

    def test_none_beyond_radius(self):
        free = np.zeros((5, 5), dtype=bool)
        free[0, 0] = True
        assert snap_to_free(free, (4, 4), radius=2) is None

    def test_out_of_bounds_cell(self):
        free = np.ones((5, 5), dtype=bool)
        assert snap_to_free(free, (6, 2), radius=2) == (4, 2)


class TestGridAnchor:
    def test_is_the_pose_cell_snapped_at_radius_2(self):
        rng = random.Random(3)
        spec = GridSpec(Pose2(0.0, 0.0), 12, 9, 0.5, 0.75)
        for _ in range(200):
            free = np.array([[rng.random() < 0.1 for _ in range(12)] for _ in range(9)])
            p = Pose2(rng.uniform(-1.0, 7.0), rng.uniform(-1.0, 7.5))
            assert grid_anchor(free, spec, p) == snap_to_free(free, spec.cell_of(p), radius=2)

    def test_wedged_robot_has_none(self):
        sc = wedged_scene()
        spec = GridSpec.from_scene(sc)
        r = sc.robot
        free = fit_mask(sc, spec, r.w, r.h, frozenset({r.id}))
        assert not footprint_collides(sc, ((0.0, 0.0, r.w, r.h),), r.pose, frozenset({r.id}))
        assert grid_anchor(free, spec, r.pose) is None
        # out in the open, past the pocket's mouth, the anchor is the pose's cell
        p = Pose2(3.0, 2.18)
        assert grid_anchor(free, spec, p) == spec.cell_of(p)


def _bfs_dist(free, a, b):
    if not (free[a[1], a[0]] and free[b[1], b[0]]):
        return None
    q = collections.deque([(a, 0)])
    seen = {a}
    while q:
        cur, d = q.popleft()
        if cur == b:
            return d
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (cur[0] + dx, cur[1] + dy)
            if (
                0 <= nxt[0] < free.shape[1]
                and 0 <= nxt[1] < free.shape[0]
                and free[nxt[1], nxt[0]]
                and nxt not in seen
            ):
                seen.add(nxt)
                q.append((nxt, d + 1))
    return None


class TestGridPath:
    def test_shortest_in_steps_matches_bfs(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            free = rng.random((12, 12)) > 0.3
            free[0, 0] = free[11, 11] = True
            a, b = (0, 0), (11, 11)
            path = grid_path(free, a, b)
            dist = _bfs_dist(free, a, b)
            if dist is None:
                assert path is None
            else:
                assert path is not None
                assert len(path) == dist + 1
                assert path[0] == a and path[-1] == b
                for u, v in zip(path, path[1:]):
                    assert abs(u[0] - v[0]) + abs(u[1] - v[1]) == 1
                    assert free[v[1], v[0]]

    def test_endpoints_snap_to_nearby_free(self):
        free = np.ones((8, 8), dtype=bool)
        free[0, 0] = False
        path = grid_path(free, (0, 0), (7, 7))
        assert path is not None
        assert path[0] in {(1, 0), (0, 1)}

    def test_grid_connected(self):
        spec = GridSpec(Pose2(0.0, 0.0), 6, 6, 1.0, 1.0)
        free = np.ones((6, 6), dtype=bool)
        free[:, 3] = False
        assert not grid_connected(free, (0, 0), (5, 5), spec)
        free[0, 3] = True
        assert grid_connected(free, (0, 0), (5, 5), spec)
