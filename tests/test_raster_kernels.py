"""The two raster kernels, ``grids.edt`` and the component labelling behind
``grids.component_labels``, against independent oracles.

Both are pure numpy and must equal what scipy.ndimage gives bit for bit,
dtype included: ``distance_transform_edt`` (on the grid padded with an
occupied frame when it has no occupied cell) and ``label`` with its default
4-connected structure.  scipy is a test dependency only; the brute-force
distance and a BFS labeller that numbers components in raster order check
the same outputs without it.  A last test plans in a fresh interpreter
where importing scipy fails.
"""

import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import rearrange2d
from rearrange2d import grids
from rearrange2d.grids import GridSpec, component_labels, edt
from rearrange2d.world import Pose2

from test_grids import _brute_edt

DENSITIES = (0.0, 0.001, 0.1, 0.5, 0.95)
SHAPES = ((1, 1), (1, 9), (9, 1), (1, 64), (64, 1), (5, 13), (13, 5), (37, 70),
          (64, 64), (128, 128), (256, 256))


def _masks():
    """(name, occupancy) pairs: seeded random masks at each density and
    shape, serpentine and comb corridors, and all-occupied grids."""
    rng = np.random.default_rng(20240611)
    out = []
    for shape in SHAPES:
        for d in DENSITIES:
            out.append((f"random{shape}@{d}", rng.random(shape) < d))
        out.append((f"full{shape}", np.ones(shape, dtype=bool)))
    for n in (7, 64, 128):
        out.append((f"serpentine{n}", _serpentine(n)))
        out.append((f"serpentine{n}.T", _serpentine(n).T.copy()))
        out.append((f"comb{n}", _comb(n)))
        out.append((f"comb{n}.flipped", _comb(n)[::-1].copy()))
    # a diagonal staircase: free cells touch only at corners
    stairs = np.ones((16, 16), dtype=bool)
    stairs[np.arange(16), np.arange(16)] = False
    out.append(("diagonal", stairs))
    out.append(("checkerboard", np.indices((33, 31)).sum(axis=0) % 2 == 0))
    return out


def _serpentine(n):
    """A one-cell free corridor snaking through an n x n grid, so one
    component spans every other row."""
    occ = np.ones((n, n), dtype=bool)
    occ[::2] = False
    for i, row in enumerate(range(1, n, 2)):
        occ[row, n - 1 if i % 2 == 0 else 0] = False
    return occ


def _comb(n):
    """Free teeth hanging from a free spine on the last row: every tooth is
    its own run per row until the spine joins them, many runs at once."""
    occ = np.ones((n, n), dtype=bool)
    occ[:, ::2] = False
    occ[-1] = False
    return occ


MASKS = _masks()
IDS = [name for name, _ in MASKS]
# the brute-force distance is quadratic in the cell count
SMALL = [(name, occ) for name, occ in MASKS if occ.size <= 1024]


def _bfs_labels(free):
    """4-connected components by BFS, numbered 1.. in raster order of each
    component's first cell, 0 on blocked cells; int32."""
    ny, nx = free.shape
    out = np.zeros((ny, nx), dtype=np.int32)
    n = 0
    for y in range(ny):
        for x in range(nx):
            if not free[y, x] or out[y, x]:
                continue
            n += 1
            out[y, x] = n
            q = deque([(y, x)])
            while q:
                cy, cx = q.popleft()
                for ty, tx in ((cy + 1, cx), (cy - 1, cx), (cy, cx + 1), (cy, cx - 1)):
                    if 0 <= ty < ny and 0 <= tx < nx and free[ty, tx] and not out[ty, tx]:
                        out[ty, tx] = n
                        q.append((ty, tx))
    return out


def _scipy_edt(occ):
    ndimage = pytest.importorskip("scipy.ndimage")
    if occ.any():
        return ndimage.distance_transform_edt(~occ)
    return ndimage.distance_transform_edt(np.pad(~occ, 1, constant_values=False))[1:-1, 1:-1]


def _labels(free):
    return component_labels(free, GridSpec(Pose2(0.0, 0.0), free.shape[1], free.shape[0], 1.0, 1.0))


def _windows(shape, rng):
    ny, nx = shape
    wins = [(0, nx - 1, 0, ny - 1), (nx - 1, nx - 1, 0, 0), (0, 0, ny - 1, ny - 1)]
    for _ in range(3):
        ix0, ix1 = sorted(rng.integers(0, nx, 2).tolist())
        iy0, iy1 = sorted(rng.integers(0, ny, 2).tolist())
        wins.append((ix0, ix1, iy0, iy1))
    return wins


class TestEdt:
    @pytest.mark.parametrize("name,occ", MASKS, ids=IDS)
    def test_equals_scipy(self, name, occ):
        want = _scipy_edt(occ)
        got = edt(occ)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name,occ", SMALL, ids=[name for name, _ in SMALL])
    def test_equals_brute_force(self, name, occ):
        assert np.array_equal(edt(occ), _brute_edt(occ))

    @pytest.mark.parametrize("name,occ", MASKS, ids=IDS)
    def test_window_is_the_block_of_the_whole(self, name, occ):
        rng = np.random.default_rng(occ.size)
        whole = edt(occ)
        for ix0, ix1, iy0, iy1 in _windows(occ.shape, rng):
            got = edt(occ, (ix0, ix1, iy0, iy1))
            assert got.dtype == np.float64
            assert np.array_equal(got, whole[iy0 : iy1 + 1, ix0 : ix1 + 1])

    def test_row_pass_chunking_does_not_change_results(self, monkeypatch):
        rng = np.random.default_rng(3)
        occs = [rng.random((48, 40)) < d for d in (0.001, 0.1, 0.5)]
        want = [edt(o) for o in occs]
        for cells in (1, 7, 48 * 40 + 1):
            monkeypatch.setattr(grids, "_ROW_PASS_CELLS", cells)
            for o, w in zip(occs, want):
                assert np.array_equal(edt(o), w)

    def test_any_nonzero_input_counts_as_occupied(self):
        rng = np.random.default_rng(4)
        occ = rng.random((20, 30)) < 0.1
        want = edt(occ)
        for dtype in (np.uint8, np.int32, np.float64):
            assert np.array_equal(edt(occ.astype(dtype) * 3), want)

    def test_far_corner_of_a_large_grid(self):
        # one occupied corner: the largest squared distance of the grid,
        # 255^2 + 255^2, which no 16-bit type holds
        occ = np.zeros((256, 256), dtype=bool)
        occ[0, 0] = True
        assert edt(occ)[255, 255] == np.sqrt(2 * 255.0**2)


class TestLabels:
    @pytest.mark.parametrize("name,occ", MASKS, ids=IDS)
    def test_equals_scipy(self, name, occ):
        ndimage = pytest.importorskip("scipy.ndimage")
        free = ~occ
        want = ndimage.label(free)[0]
        got = _labels(free)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name,occ", MASKS, ids=IDS)
    def test_equals_bfs_in_raster_order(self, name, occ):
        free = ~occ
        got = _labels(free)
        assert got.dtype == np.int32
        assert np.array_equal(got, _bfs_labels(free))

    def test_corner_contact_does_not_connect(self):
        free = np.array([[1, 0, 0],
                         [0, 1, 0],
                         [1, 0, 1]], dtype=bool)
        assert _labels(free).tolist() == [[1, 0, 0], [0, 2, 0], [3, 0, 4]]

    def test_join_below_keeps_first_label(self):
        # two arms that meet only on the last row: one component, label 1
        free = np.array([[1, 0, 1],
                         [1, 0, 1],
                         [1, 1, 1]], dtype=bool)
        assert _labels(free).tolist() == [[1, 0, 1], [1, 0, 1], [1, 1, 1]]


def test_plans_without_scipy():
    """import rearrange2d and plan at grid_n=256 where importing scipy fails."""
    code = """
import sys
sys.modules["scipy"] = None
from rearrange2d import planner
from rearrange2d.bench import make_scene
for name in ("nested_blockers", "four_blocks"):
    cfg = planner.PlannerConfig().merged({"seed": 0, "grid_n": 256}, "test")
    result = planner.plan_rearrangement(make_scene(name, 0), cfg)
    assert result.status == "success", (name, result.status)
loaded = sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None)
assert not loaded, loaded
print("ok")
"""
    src = str(Path(rearrange2d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
