"""Raster transforms over the scene: occupancy, reachability, clearance.

The workspace is discretized into a fixed grid, a GridSpec.  Every raster
function takes the caller's spec and none builds one: ``plan_rearrangement``
builds the only spec of a planning call, grid_n cells a side.  Every raster
is a plain (ny, nx) numpy array, indexed [iy, ix]; cell sets use (ix, iy)
tuples.  Cell values are the fixed constants below: occupancy 0 = blocked,
ALPHA_M = free, BETA_M = task cell; reachability ALPHA_R = reachable,
BETA_R = not.

Memo.  Each GridSpec carries a memo (``GridSpec.memo``, excluded from
comparison and hashing) that holds the rasters computed on it, so a raster
is built once per spec.  ``plan_rearrangement`` builds one spec per call,
so an entry lives exactly as long as that call; the memo is never shared
between specs and never module-global.  Entries are keyed by the inputs
the computation reads, never by a Scene or an object's identity:

- a part's fit mask (``_part_fit``) by the workspace, the part
  ``(dx, dy, w, h)`` and the bounds of every body that is neither the
  robot nor ignored; ``fit_mask_parts``' combined mask by the same with
  all parts;
- component labels by the mask's shape, dtype and bytes;
- ``swept_cells`` by the parts and the poses;
- ``static_clearance`` by the wall bounds alone;
- a cell mask (``cell_mask``) and its summed-area table by the cells, a
  tuple or frozenset of (ix, iy).

Cached arrays are read-only (writing to one raises); cached cell lists are
handed out as fresh lists.

Kernels.  The two raster kernels are numpy code with an exactness contract:
their outputs equal scipy.ndimage's bit for bit, dtype included, and
``tests/test_raster_kernels.py`` holds them to it (scipy is a test
dependency only).

- ``edt``: squared distances are exact integers from two separable passes
  (Felzenszwalb & Huttenlocher 2012), and their float64 square roots are
  ``distance_transform_edt``'s.  A window computes one block of the grid
  with the same values.
- ``component_labels``: runs of free cells joined across rows
  (He, Chao & Suzuki 2008) give 4-connected components, numbered from 1 in
  raster order of their first cell as ``label`` numbers them; int32.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .world import EPS, Pose2, Rect, Scene, KIND_ROBOT, KIND_WALL

ALPHA_M = 1.0
BETA_M = 3.0
ALPHA_R = 1.0
BETA_R = 0.0

DEFAULT_GRID_N = 64


@dataclass(frozen=True)
class GridSpec:
    origin: Pose2          # workspace min corner
    nx: int
    ny: int
    cell_w: float
    cell_h: float
    # rasters computed on this spec, keyed by their inputs (module docstring)
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_scene(cls, scene: Scene, n: int = DEFAULT_GRID_N) -> "GridSpec":
        ws = scene.workspace
        return cls(Pose2(ws.xmin, ws.ymin), n, n, ws.width / n, ws.height / n)

    @property
    def resolution(self) -> float:
        return max(self.cell_w, self.cell_h)

    def cell_of(self, p: Pose2) -> tuple[int, int]:
        ix = int((p.x - self.origin.x) / self.cell_w)
        iy = int((p.y - self.origin.y) / self.cell_h)
        return (min(max(ix, 0), self.nx - 1), min(max(iy, 0), self.ny - 1))

    def center(self, cell: tuple[int, int]) -> Pose2:
        ix, iy = cell
        return Pose2(
            self.origin.x + (ix + 0.5) * self.cell_w,
            self.origin.y + (iy + 0.5) * self.cell_h,
        )

    def rect_cells(self, r: Rect) -> tuple[int, int, int, int]:
        """Inclusive (ix0, ix1, iy0, iy1) of cells whose interior overlaps r.

        Flush contact with a cell edge does not count as overlap; returns
        an empty range (ix0 > ix1) when r misses the grid entirely.
        """
        ix0 = int(math.floor((r.xmin - self.origin.x) / self.cell_w + 1e-9))
        ix1 = int(math.ceil((r.xmax - self.origin.x) / self.cell_w - 1e-9)) - 1
        iy0 = int(math.floor((r.ymin - self.origin.y) / self.cell_h + 1e-9))
        iy1 = int(math.ceil((r.ymax - self.origin.y) / self.cell_h - 1e-9)) - 1
        return (max(ix0, 0), min(ix1, self.nx - 1), max(iy0, 0), min(iy1, self.ny - 1))

    def cells_of_rect(self, r: Rect) -> set[tuple[int, int]]:
        ix0, ix1, iy0, iy1 = self.rect_cells(r)
        return {(ix, iy) for ix in range(ix0, ix1 + 1) for iy in range(iy0, iy1 + 1)}


def occupancy_mask(scene: Scene, spec: GridSpec, exclude=frozenset()) -> np.ndarray:
    """Boolean (ny, nx) mask, True where a wall or a body covers the cell.

    The robot is never rasterized; ids in exclude are skipped.  Each body
    covers the cells ``spec.rect_cells`` gives its rect.
    """
    bounds = np.array(
        [b.bounds for b in scene.bodies if b.kind != KIND_ROBOT and b.id not in exclude], dtype=float
    ).reshape(-1, 4)
    occ = np.zeros((spec.ny, spec.nx), dtype=bool)
    for x0, x1, y0, y1 in zip(*(r.tolist() for r in _cell_ranges(spec, *bounds.T))):
        occ[y0:y1, x0:x1] = True
    return occ


def _cell_ranges(spec: GridSpec, xmin, ymin, xmax, ymax):
    """``GridSpec.rect_cells``' floor and ceil arithmetic on arrays of rect
    bounds, as half-open cell ranges [x0, x1) and [y0, y1) with every end
    clamped to [0, n]: a range is empty exactly when rect_cells' is, and
    otherwise holds the same cells."""
    ox, oy = spec.origin.x, spec.origin.y
    x0 = np.floor((xmin - ox) / spec.cell_w + 1e-9).clip(0, spec.nx).astype(np.intp)
    x1 = np.ceil((xmax - ox) / spec.cell_w - 1e-9).clip(0, spec.nx).astype(np.intp)
    y0 = np.floor((ymin - oy) / spec.cell_h + 1e-9).clip(0, spec.ny).astype(np.intp)
    y1 = np.ceil((ymax - oy) / spec.cell_h - 1e-9).clip(0, spec.ny).astype(np.intp)
    return x0, x1, y0, y1


def rasterize_gom(scene: Scene, task_cells, spec: GridSpec) -> np.ndarray:
    """Global occupancy (ny, nx): 0 on occupied cells, ALPHA_M free, BETA_M on
    free task cells; task cells off the grid are skipped.  A fresh array."""
    occ = occupancy_mask(scene, spec)
    cells = np.where(occ, 0.0, ALPHA_M)
    cells[cell_mask(spec, task_cells) & ~occ] = BETA_M
    return cells


def _cells_key(cells):
    """The cells as a memo key: a tuple or frozenset as given, else a tuple."""
    return cells if isinstance(cells, (tuple, frozenset)) else tuple(cells)


def cell_mask(spec: GridSpec, cells) -> np.ndarray:
    """(ny, nx) bool mask, True on those of the (ix, iy) cells that lie on
    the grid.  Read-only, shared through the spec's memo by the cells."""
    key = _cells_key(cells)
    return _memoized(spec.memo, ("cells", key), _cell_mask, spec, key)


def _cell_mask(spec: GridSpec, cells) -> np.ndarray:
    ix, iy = np.array(list(cells), dtype=np.intp).reshape(-1, 2).T
    on = (ix >= 0) & (ix < spec.nx) & (iy >= 0) & (iy < spec.ny)
    mask = np.zeros((spec.ny, spec.nx), dtype=bool)
    mask[iy[on], ix[on]] = True
    return mask


def rects_meet_cells(spec: GridSpec, cells, xmin, ymin, xmax, ymax) -> np.ndarray:
    """Per rect of the bound arrays, whether ``spec.cells_of_rect(rect)``
    holds one of the (ix, iy) cells, as a bool array.

    The rects' cell ranges (``_cell_ranges``) are read through a
    summed-area table of ``cell_mask(spec, cells)``, memoized by the cells
    alongside the mask.
    """
    key = _cells_key(cells)
    table = _memoized(spec.memo, ("cell counts", key), _summed_area, cell_mask(spec, key))
    x0, x1, y0, y1 = _cell_ranges(spec, xmin, ymin, xmax, ymax)
    count = table[y1, x1] - table[y0, x1] - table[y1, x0] + table[y0, x0]
    return (x0 < x1) & (y0 < y1) & (count > 0)


def _summed_area(mask: np.ndarray) -> np.ndarray:
    """(ny + 1, nx + 1) table whose [iy, ix] counts mask's true cells in
    rows below iy and columns below ix."""
    table = np.zeros((mask.shape[0] + 1, mask.shape[1] + 1), dtype=np.intp)
    table[1:, 1:] = mask.cumsum(axis=0).cumsum(axis=1)
    return table


def _memoized(memo: dict, key, build, *args):
    """memo[key], computed by build(*args) on a miss; arrays are stored read-only."""
    try:
        return memo[key]
    except KeyError:
        pass
    val = build(*args)
    if isinstance(val, np.ndarray):
        val.flags.writeable = False
    memo[key] = val
    return val


def _obstacle_bounds(scene: Scene, ignore) -> tuple:
    """Bounds of the bodies a fit mask is tested against: all but the robot and ignore."""
    return tuple(b.bounds for b in scene.bodies if b.kind != KIND_ROBOT and b.id not in ignore)


def _part_mask(spec: GridSpec, ws: Rect, obstacles, dx: float, dy: float, w: float, h: float) -> np.ndarray:
    """Reference cells whose center puts one offset part collision-free."""
    free = np.zeros((spec.ny, spec.nx), dtype=bool)
    # reference centers keeping the part inside the workspace
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
    for xmin, ymin, xmax, ymax in obstacles:
        # colliding reference centers: open interval inflated by half-extents
        bx0 = int(math.floor((xmin - w / 2.0 - dx - spec.origin.x) / spec.cell_w - 0.5 + 1e-9)) + 1
        bx1 = int(math.ceil((xmax + w / 2.0 - dx - spec.origin.x) / spec.cell_w - 0.5 - 1e-9)) - 1
        by0 = int(math.floor((ymin - h / 2.0 - dy - spec.origin.y) / spec.cell_h - 0.5 + 1e-9)) + 1
        by1 = int(math.ceil((ymax + h / 2.0 - dy - spec.origin.y) / spec.cell_h - 0.5 - 1e-9)) - 1
        bx0, bx1 = max(bx0, 0), min(bx1, spec.nx - 1)
        by0, by1 = max(by0, 0), min(by1, spec.ny - 1)
        if bx0 <= bx1 and by0 <= by1:
            free[by0 : by1 + 1, bx0 : bx1 + 1] = False
    return free


def _part_fit(spec: GridSpec, ws: Rect, obstacles, part) -> np.ndarray:
    """_part_mask through the spec's memo; part is (dx, dy, w, h)."""
    return _memoized(spec.memo, ("part", ws, part, obstacles), _part_mask, spec, ws, obstacles, *part)


def fit_mask(scene: Scene, spec: GridSpec, w: float, h: float, ignore=frozenset()) -> np.ndarray:
    """Cells whose center admits a w x h footprint collision-free.

    Exact interval geometry against body rectangles (not a rasterized
    dilation), so narrow passages keep their true sub-cell width.
    Read-only, shared through the spec's memo.
    """
    return _part_fit(spec, scene.workspace, _obstacle_bounds(scene, ignore), (0.0, 0.0, w, h))


def fit_mask_parts(scene: Scene, spec: GridSpec, parts, ignore=frozenset()) -> np.ndarray:
    """fit_mask for a multi-rect footprint: all parts must fit at once."""
    parts = tuple(map(tuple, parts))
    if not parts:
        raise ValueError("empty footprint")
    ws = scene.workspace
    obstacles = _obstacle_bounds(scene, ignore)

    def combine():
        free = _part_fit(spec, ws, obstacles, parts[0])
        for part in parts[1:]:
            free = free & _part_fit(spec, ws, obstacles, part)
        return free

    return _memoized(spec.memo, ("parts", ws, parts, obstacles), combine)


def reachability(scene: Scene, spec: GridSpec) -> np.ndarray:
    """ALPHA_R on the cells the robot reaches by a 4-connected flood fill over
    cells where its footprint fits, BETA_R elsewhere; (ny, nx)."""
    robot = scene.robot
    free = fit_mask(scene, spec, robot.w, robot.h)
    rc0 = spec.cell_of(robot.pose)
    cells = np.full((spec.ny, spec.nx), BETA_R)
    rc = grid_anchor(free, spec, robot.pose)
    if rc is None:
        cells[rc0[1], rc0[0]] = ALPHA_R
        return cells
    labels = component_labels(free, spec)
    cells[labels == labels[rc[1], rc[0]]] = ALPHA_R
    cells[rc0[1], rc0[0]] = ALPHA_R
    return cells


def edt(local: np.ndarray, window=None) -> np.ndarray:
    """Exact Euclidean distance (in cells) to the nearest occupied cell.

    Input is a binary grid, nonzero = occupied.  An all-free grid treats
    the boundary as occupied so clearance stays finite.  window, an
    inclusive (ix0, ix1, iy0, iy1) as ``GridSpec.rect_cells`` gives it,
    computes and returns only that block of the grid's distances.
    """
    occ = np.asarray(local).astype(bool)
    if occ.size == 0:
        raise ValueError("empty grid")
    ny, nx = occ.shape
    ix0, ix1, iy0, iy1 = (0, nx - 1, 0, ny - 1) if window is None else window
    if occ.any():
        return np.sqrt(_sq_dist(occ, ix0, ix1 + 1, iy0, iy1 + 1), dtype=np.float64)
    # all free: the nearest cell of the occupied frame just outside the grid
    ys = np.arange(iy0, iy1 + 1)
    xs = np.arange(ix0, ix1 + 1)
    return np.minimum.outer(np.minimum(ys + 1, ny - ys), np.minimum(xs + 1, nx - xs)).astype(np.float64)


# most elements one temporary of the row pass may hold
_ROW_PASS_CELLS = 1 << 16


def _sq_dist(occ: np.ndarray, x0: int, x1: int, y0: int, y1: int) -> np.ndarray:
    """Squared distance from each cell of occ[y0:y1, x0:x1] to the nearest
    occupied cell of occ, which has one; exact integers.

    Two separable passes (Felzenszwalb & Huttenlocher 2012): g, the
    distance along each column to its nearest occupied cell, then along
    each row d2 = min over columns x' of g[y, x']^2 + (x - x')^2.  Only a
    column holding an occupied cell can be nearest, so the row pass runs
    over those columns alone, or over the rows when fewer rows hold one.
    """
    lines = np.flatnonzero(occ.any(axis=0))
    if lines.size > np.count_nonzero(occ.any(axis=1)):
        return _sq_dist(occ.T, y0, y1, x0, x1).T
    ny, nx = occ.shape
    # column pass over the occupied columns: nearest occupied row at or
    # above, and at or below, each cell (one of the two always exists)
    sub = occ[:, lines]
    rows = np.arange(ny)[:, None]
    above = np.maximum.accumulate(np.where(sub, rows, -ny), axis=0)
    below = np.minimum.accumulate(np.where(sub, rows, 2 * ny)[::-1], axis=0)[::-1]
    g = np.minimum(rows - above, below - rows)[y0:y1]
    # smallest unsigned type that holds every sum below
    top = (ny - 1) ** 2 + (nx - 1) ** 2
    dtype = np.uint16 if top <= 0xFFFF else np.uint32 if top <= 0xFFFFFFFF else np.uint64
    g2 = g.astype(dtype)
    g2 *= g2
    sq = np.abs(lines[:, None] - np.arange(x0, x1)).astype(dtype)
    sq *= sq                                      # [line, x]
    h, w, m = y1 - y0, x1 - x0, lines.size
    # row pass in chunks of columns, each temporary at most _ROW_PASS_CELLS
    step = max(1, _ROW_PASS_CELLS // (h * w))
    buf = np.empty((h, min(step, m), w), dtype=dtype)
    d2 = None
    for c0 in range(0, m, step):
        t = buf[:, : min(step, m - c0)]
        np.add(g2[:, c0 : c0 + step, None], sq[c0 : c0 + step], out=t)
        part = np.minimum.reduce(t, axis=1)
        d2 = part if d2 is None else np.minimum(d2, part, out=d2)
    return d2


def static_clearance(scene: Scene, spec: GridSpec) -> np.ndarray:
    """Distance (workspace units) from each cell to the nearest wall cell.

    Read-only, shared through the spec's memo by wall bounds.
    """
    walls = tuple(b.bounds for b in scene.bodies if b.kind == KIND_WALL)
    return _memoized(
        spec.memo, ("clearance", walls),
        lambda: edt(occupancy_mask(scene.statics_only(), spec)) * spec.resolution,
    )


def swept_cells(spec: GridSpec, parts, poses) -> list[tuple[int, int]]:
    """Cells covered by a multi-rect footprint swept along a polyline.

    parts: (dx, dy, w, h) offsets from the reference pose.  The footprint
    is stamped at intervals of half the smaller cell side.  Returns cells
    ordered by first coverage along the sweep, as a fresh list of the
    spec's memoized cells.
    """
    parts = tuple(map(tuple, parts))
    pts = tuple(poses)
    return list(_memoized(spec.memo, ("swept", parts, pts), _swept_cells, spec, parts, pts))


def _swept_cells(spec: GridSpec, parts, pts) -> tuple[tuple[int, int], ...]:
    step = 0.5 * min(spec.cell_w, spec.cell_h)
    seen: dict[tuple[int, int], int] = {}
    order = 0

    def stamp(p: Pose2):
        nonlocal order
        for dx, dy, w, h in parts:
            r = Rect(p.x + dx - w / 2, p.y + dy - h / 2, p.x + dx + w / 2, p.y + dy + h / 2)
            ix0, ix1, iy0, iy1 = spec.rect_cells(r)
            for iy in range(iy0, iy1 + 1):
                for ix in range(ix0, ix1 + 1):
                    if (ix, iy) not in seen:
                        seen[(ix, iy)] = order
                        order += 1

    if not pts:
        return ()
    stamp(pts[0])
    for a, b in zip(pts, pts[1:]):
        d = a.dist(b)
        n = max(1, int(math.ceil(d / step)))
        for k in range(1, n + 1):
            t = k / n
            stamp(Pose2(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t))
    return tuple(sorted(seen, key=seen.get))


NEIGH4 = ((1, 0), (-1, 0), (0, 1), (0, -1))


def snap_to_free(free: np.ndarray, cell: tuple[int, int], radius: int = 1) -> tuple[int, int] | None:
    """cell if free, else the nearest free cell within a small window."""
    ix, iy = cell
    ny, nx = free.shape
    if 0 <= ix < nx and 0 <= iy < ny and free[iy, ix]:
        return cell
    best = None
    best_d = None
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            jx, jy = ix + dx, iy + dy
            if 0 <= jx < nx and 0 <= jy < ny and free[jy, jx]:
                d = dx * dx + dy * dy
                if best_d is None or d < best_d or (d == best_d and (jx, jy) < best):
                    best, best_d = (jx, jy), d
    return best


def grid_anchor(free: np.ndarray, spec: GridSpec, pose: Pose2) -> tuple[int, int] | None:
    """The cell a grid check starting at pose starts from: pose's cell
    snapped to a free cell of the fit mask free within 2 cells, or None.

    A pose right after a place is flush against the placed object, which
    the cell-center fit test rejects, so the anchor is often a neighbour of
    pose's own cell; a pose in a pocket narrower than a cell may have none
    even when its footprint is exactly free.
    """
    return snap_to_free(free, spec.cell_of(pose), radius=2)


def component_labels(free: np.ndarray, spec: GridSpec) -> np.ndarray:
    """4-connected component labels of the free mask (0 on blocked cells).

    Read-only, shared through spec's memo by the mask's content.
    """
    return _memoized(spec.memo, ("labels", free.shape, free.dtype.str, free.tobytes()), _label, free)


def _label(free: np.ndarray) -> np.ndarray:
    """int32 labels of the 4-connected components of free's nonzero cells,
    numbered from 1 in raster order of each component's first cell; 0
    elsewhere.

    Run-based (He, Chao & Suzuki 2008): the horizontal runs of free cells
    come from one diff, each run is linked to the runs of the row above
    that share a column with it, and the links are joined into components.
    """
    ny, nx = free.shape
    w = nx + 1
    # every row after one blocked cell, and one blocked cell at the end, so
    # runs never cross rows; a run covers flat[start + 1 : end + 1]
    flat = np.zeros(ny * w + 1, dtype=bool)
    flat[:-1].reshape(ny, w)[:, 1:] = free
    bounds = np.flatnonzero(flat[1:] != flat[:-1])
    starts, ends = bounds[0::2], bounds[1::2]
    # runs of the row above sharing a column with each run: [lo, hi)
    lo = np.searchsorted(ends, starts - w, side="right")
    hi = np.searchsorted(starts, ends - w, side="left")
    run = np.arange(starts.size)
    # link each run to the first run above it that it touches; a link goes
    # up one row, so log2(ny) rounds of pointer jumping reach every root
    root = np.where(hi > lo, lo, run)
    for _ in range((ny - 1).bit_length()):
        root = root[root]
    many = hi - lo > 1
    if many.any():
        root = _join(root, lo[many].tolist(), hi[many].tolist())
    # a component's root is its first run, so numbering the roots in run
    # order numbers the components in raster order
    label = np.cumsum(root == run, dtype=np.int32)[root]
    # paint the runs: run k covers cells [cut[2k+1], cut[2k+2]) of the
    # unpadded grid
    cut = np.empty(bounds.size + 2, dtype=np.intp)
    cut[0], cut[-1] = 0, ny * nx
    cut[1:-1] = bounds - bounds // w
    values = np.zeros(bounds.size + 1, dtype=np.int32)
    values[1::2] = label
    return np.repeat(values, np.diff(cut)).reshape(ny, nx)


def _join(root: np.ndarray, lo: list[int], hi: list[int]) -> np.ndarray:
    """Roots after joining the trees of runs lo[i]..hi[i]-1 for every i; a
    joined tree keeps the smaller root, so every root stays its
    component's first run."""
    up: dict[int, int] = {}

    def find(r: int) -> int:
        while r in up:
            r = up[r]
        return r

    roots = root.tolist()
    for l, h in zip(lo, hi):
        first = roots[l]
        for k in range(l + 1, h):
            if roots[k] == first:
                continue
            a, b = find(first), find(roots[k])
            if a != b:
                up[max(a, b)] = min(a, b)
    if not up:
        return root
    final = np.arange(root.size)
    final[list(up)] = [find(r) for r in up]
    return final[root]


def grid_connected(free: np.ndarray, a: tuple[int, int], b: tuple[int, int], spec: GridSpec) -> bool:
    """4-connected reachability between two cells over the free mask;
    spec lends its memo to the component labels."""
    a = snap_to_free(free, a, radius=2)
    b = snap_to_free(free, b, radius=2)
    if a is None or b is None:
        return False
    labels = component_labels(free, spec)
    return labels[a[1], a[0]] == labels[b[1], b[0]]


def grid_path(free: np.ndarray, a, b) -> list[tuple[int, int]] | None:
    """Shortest 4-connected cell path a -> b (BFS)."""
    a = snap_to_free(free, a, radius=2)
    b = snap_to_free(free, b, radius=2)
    if a is None or b is None:
        return None
    ny, nx = free.shape
    prev: dict[tuple[int, int], tuple[int, int] | None] = {a: None}
    q = deque([a])
    while q:
        cur = q.popleft()
        if cur == b:
            break
        for dx, dy in NEIGH4:
            nxt = (cur[0] + dx, cur[1] + dy)
            if 0 <= nxt[0] < nx and 0 <= nxt[1] < ny and free[nxt[1], nxt[0]] and nxt not in prev:
                prev[nxt] = cur
                q.append(nxt)
    if b not in prev:
        return None
    path = [b]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]
