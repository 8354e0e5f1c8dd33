"""Placement ordering: dependency graph, cycle resolution, sequence search.

Goal objects constrain each other two ways: an object sitting on another's
route should move first (weak), and an object whose route crosses another's
goal must move before that goal is filled (strong).  Cycles among those
constraints are broken by discarding the most contested edges, then the
remaining precedence feeds an open-path sequencing problem whose costs can
be lazily upgraded from straight-line to planned path lengths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import motion
from .grids import GridSpec
from .world import EPS, Pose2, Rect, Scene, rect_at, segment_hits_rect
from .motion import ObjectPath, _mix_seed

WEAK = "weak"
STRONG = "strong"


class SequenceInfeasible(Exception):
    """A goal object has no statics-only route to its goal."""


@dataclass(frozen=True, order=True)
class Edge:
    src: str
    dst: str
    strength: str   # WEAK or STRONG; src is ordered before dst


@dataclass
class DependencyGraph:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]


def _enters(pts, r: Rect) -> bool:
    """Does the polyline through pts pass through r's interior?  A single
    waypoint must lie more than EPS inside r."""
    if len(pts) == 1:
        p = pts[0]
        return r.xmin + EPS < p.x < r.xmax - EPS and r.ymin + EPS < p.y < r.ymax - EPS
    return any(segment_hits_rect(a, b, r) for a, b in zip(pts, pts[1:]))


def build_dependency_graph(
    scene: Scene,
    *,
    unplaced,
    tol: float,
    seed: int = 0,
    spec: GridSpec,
    rrt_max_iters: int = 5000,
) -> DependencyGraph:
    """Precedence edges among the unplaced goal objects.

    unplaced lists the goal objects still away from their goals, as the
    caller found them with verify_placements at tolerance tol; the graph
    is built from that list alone.  Each object's statics-only route mu
    is planned once; weak edge j -> i when mu_i crosses j's current
    footprint, strong edge i -> j when mu_i crosses j's goal footprint.
    Raises SequenceInfeasible when some object has no route even with
    every movable removed.
    """
    unplaced = tuple(sorted(unplaced))

    paths: dict[str, ObjectPath] = {}
    for oid in unplaced:
        mu = motion.plan_object_path(
            scene, oid, scene.goal_of(oid), _mix_seed(seed, "mu", oid),
            max_iters=rrt_max_iters, spec=spec,
        )
        if mu is None:
            raise SequenceInfeasible(f"{oid} has no route to its goal past the walls")
        paths[oid] = mu

    # each object's current and goal bounds, with rect_at's arithmetic
    bounds = {}
    for oid in unplaced:
        b = scene.body(oid)
        g = rect_at(scene.goal_of(oid), b.w, b.h)
        bounds[oid] = (b.bounds, (g.xmin, g.ymin, g.xmax, g.ymax))

    # mu_i crosses a footprint when its centerline enters the footprint
    # grown by half of i's size (swept rectangle against rectangle); the
    # grown rects, by the moving object's size
    inflated: dict[tuple[float, float], dict[str, tuple[Rect, Rect]]] = {}
    edges: set[Edge] = set()
    for oi in unplaced:
        bi = scene.body(oi)
        size = (bi.w, bi.h)
        if size not in inflated:
            hw, hh = bi.w / 2.0, bi.h / 2.0
            inflated[size] = {
                oj: (
                    Rect(x0 - hw, y0 - hh, x1 + hw, y1 + hh),
                    Rect(gx0 - hw, gy0 - hh, gx1 + hw, gy1 + hh),
                )
                for oj, ((x0, y0, x1, y1), (gx0, gy0, gx1, gy1)) in bounds.items()
            }
        pts = paths[oi].waypoints
        for oj, (current, goal) in inflated[size].items():
            if oj == oi:
                continue
            if _enters(pts, current):
                edges.add(Edge(oj, oi, WEAK))
            if _enters(pts, goal):
                edges.add(Edge(oi, oj, STRONG))
    return DependencyGraph(unplaced, tuple(sorted(edges)))


def _ranked_pairs(graph: DependencyGraph):
    """Vertex names in string order, each name's rank in that order, and the
    parallel edges of each ordered pair of ranks, in graph.edges order.  A
    pair (a, b) is keyed by its id a * n + b, so ids sort like the pairs."""
    names = sorted(set(graph.vertices))
    rank = {v: i for i, v in enumerate(names)}
    n = len(names)
    pairs: dict[int, list[Edge]] = {}
    for e in graph.edges:
        if e.src in rank and e.dst in rank:
            pairs.setdefault(rank[e.src] * n + rank[e.dst], []).append(e)
    return names, rank, pairs


def _adjacency(n: int, pairs) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for p in sorted(pairs):
        adj[p // n].append(p % n)
    return adj


def _pair_counts(adj: list[list[int]], starts, cap: int) -> list[int]:
    """How many of the first max(cap, 1) elementary cycles use each vertex
    pair, indexed by pair id a * n + b.

    Johnson's search over ranked vertices: from each start s, in the given
    order, it follows adj[v] in list order and enters only vertices that
    rank above s, so each cycle is found once, from its lowest vertex, in
    the order a plain simple-path DFS reports it.  Blocking skips a vertex
    only while every path from it back to s crosses the current path, i.e.
    only subtrees that hold no cycle through s.

    Cycles are counted per DFS frame, not one by one: every cycle found
    while a vertex is on the path runs through the whole path up to it, so
    when the vertex leaves the path its pair from the parent gets the
    cycles found since it was entered, and it found a cycle iff that number
    is not zero.  At the cap-th cycle every pair still on the path gets its
    share the same way.
    """
    n = len(adj)
    limit = max(cap, 1)
    counts = [0] * (n * n)
    total = 0
    for s in starts:
        blocked = [False] * n
        # Johnson's B-lists; thawing reads only membership, so repeats are harmless
        waiting: list[list[int]] = [[] for _ in range(n)]
        blocked[s] = True
        path = [s]
        marks = [0]   # total when each path vertex was entered
        nbrs = [iter(adj[s])]
        while nbrs:
            v = path[-1]
            for w in nbrs[-1]:
                if w == s:
                    counts[v * n + s] += 1
                    total += 1
                    if total == limit:
                        for a, b, mark in zip(path, path[1:], marks[1:]):
                            counts[a * n + b] += total - mark
                        return counts
                elif w > s and not blocked[w]:
                    blocked[w] = True
                    path.append(w)
                    marks.append(total)
                    nbrs.append(iter(adj[w]))
                    break
            else:
                nbrs.pop()
                path.pop()
                found = total - marks.pop()
                if found:
                    if path:
                        counts[path[-1] * n + v] += found
                    thaw = [v]
                    while thaw:
                        u = thaw.pop()
                        if blocked[u]:
                            blocked[u] = False
                            thaw.extend(waiting[u])
                            waiting[u].clear()
                else:
                    for w in adj[v]:
                        waiting[w].append(v)
    return counts


def topo_order(vertices, edges) -> list[str] | None:
    """Kahn's algorithm with lexicographic tie-breaking; None if cyclic."""
    indeg = {v: 0 for v in vertices}
    out: dict[str, list[str]] = {v: [] for v in vertices}
    for e in edges:
        out[e.src].append(e.dst)
        indeg[e.dst] += 1
    ready = sorted(v for v in vertices if indeg[v] == 0)
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        changed = False
        for w in sorted(out[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
                changed = True
        if changed:
            ready.sort()
    return order if len(order) == len(vertices) else None


@dataclass(frozen=True)
class BreakResult:
    graph: DependencyGraph
    removed: tuple[Edge, ...]


def break_cycles(graph: DependencyGraph, cap: int = 10000, greedy: bool = False) -> BreakResult:
    """Delete edges until acyclic, most-contested first.

    An edge's frequency is the number of enumerated cycles through its
    ordered vertex pair.  Each cycle is found once, from its smallest
    vertex: starts run in graph.vertices order, successors in sorted
    (src, dst) order, and a start only visits vertices that sort above it.
    Each enumeration stops at its own cap-th cycle (at the first for
    cap <= 0).  Normally the live graph is enumerated again after each
    removal, until no cycle is left; greedy mode keeps the frequencies
    from the first enumeration (cheaper, can remove more edges than
    needed).  Ties prefer weak edges, then sources shedding the least net
    out-degree, then lexicographic order.
    """
    names, rank, live = _ranked_pairs(graph)
    n = len(names)
    starts = [rank[v] for v in graph.vertices]
    out_deg: dict[str, int] = {}
    in_deg: dict[str, int] = {}
    for e in graph.edges:
        out_deg[e.src] = out_deg.get(e.src, 0) + 1
        in_deg[e.dst] = in_deg.get(e.dst, 0) + 1
    removed: list[Edge] = []

    def frequencies() -> dict[Edge, int]:
        """Edge frequencies over the live graph's first cap cycles."""
        counts = _pair_counts(_adjacency(n, live), starts, cap)
        freq: dict[Edge, int] = {}
        for p, es in live.items():
            if k := counts[p]:
                for e in es:
                    freq[e] = freq.get(e, 0) + k
        return freq

    def pick(freq: dict[Edge, int]) -> Edge:
        return min(
            freq,
            key=lambda e: (
                -freq[e],
                0 if e.strength == WEAK else 1,
                out_deg.get(e.src, 0) - in_deg.get(e.src, 0),
                e,
            ),
        )

    def remove(e: Edge) -> None:
        """Drop every copy of e."""
        p = rank[e.src] * n + rank[e.dst]
        rest = [x for x in live[p] if x != e]
        copies = len(live[p]) - len(rest)
        out_deg[e.src] -= copies
        in_deg[e.dst] -= copies
        removed.append(e)
        if rest:
            live[p] = rest
        else:
            del live[p]

    def kept() -> tuple[Edge, ...]:
        dropped = set(removed)
        return tuple(x for x in graph.edges if x not in dropped)

    if greedy:
        freq = frequencies()
        while topo_order(graph.vertices, kept()) is None:
            stale = {e: f for e, f in freq.items() if e not in removed}
            if not stale:
                break   # stale frequencies exhausted (truncation); fall back
            remove(pick(stale))
        else:
            return BreakResult(DependencyGraph(graph.vertices, kept()), tuple(removed))

    while freq := frequencies():
        remove(pick(freq))
    edges = kept()
    if topo_order(graph.vertices, edges) is None:
        raise RuntimeError("cycle enumeration missed a cycle")
    return BreakResult(DependencyGraph(graph.vertices, edges), tuple(removed))


@dataclass
class CostMatrix:
    """Open-path costs: start[j] from the robot's pose to object j, and
    between[i, j] from i's goal to object j.  exact flags mark entries
    already upgraded to planned path lengths."""

    ids: tuple[str, ...]
    start: np.ndarray
    between: np.ndarray
    start_exact: np.ndarray
    between_exact: np.ndarray

    @classmethod
    def euclidean(cls, scene: Scene, ids) -> "CostMatrix":
        ids = tuple(ids)
        n = len(ids)
        start = np.zeros(n)
        between = np.full((n, n), math.inf)
        robot = scene.robot
        for j, oj in enumerate(ids):
            start[j] = robot.pose.dist(scene.body(oj).pose)
            for i, oi in enumerate(ids):
                if i != j:
                    between[i, j] = scene.goal_of(oi).dist(scene.body(oj).pose)
        return cls(ids, start, between, np.zeros(n, dtype=bool), np.zeros((n, n), dtype=bool))

    def order_cost(self, order) -> float:
        idx = {o: k for k, o in enumerate(self.ids)}
        seq = [idx[o] for o in order]
        if not seq:
            return 0.0
        total = float(self.start[seq[0]])
        for a, b in zip(seq, seq[1:]):
            total += float(self.between[a, b])
        return total


@dataclass(frozen=True)
class PlacementSequence:
    order: tuple[str, ...]
    cost: float


# sequences of at most this many objects are searched exactly; longer ones
# get greedy insertion and relocate moves
EXACT_LIMIT = 12


def _respects(order, pred: dict[int, set[int]]) -> bool:
    seen: set[int] = set()
    for v in order:
        if not pred[v] <= seen:
            return False
        seen.add(v)
    return True


def solve_patsp(costs: CostMatrix, precedence=(), *, warm=None) -> PlacementSequence:
    """Minimum-cost visit order starting from the robot, no return leg,
    honoring before/after pairs.  Exact branch and bound up to EXACT_LIMIT
    objects, greedy insertion with relocate moves beyond.  Raises
    ValueError for cyclic precedence and for a NaN cost (see below).

    Objects are indices; a set of them is an int bitmask, need[j] holds j's
    predecessors, and j is ready once need[j] & left == 0, left being the
    mask of objects not yet in the order.  The search is defined by keys,
    not by how they are computed:
    - Candidates from a previous object (or the robot) come in (cost, index)
      order.  order[cur] sorts every other object once, by cost alone in a
      stable sort of ascending indices, which is that order.  Filtering it
      by readiness gives the same sequence as sorting the ready subset, as
      long as costs are totally ordered.  NaN would break that, so a NaN in
      start or off the diagonal of between raises ValueError; inf is legal,
      and the diagonal is never read.  The greedy start takes the first
      ready object of order[cur], the key's minimum over the ready set;
      when none is ready the precedence is cyclic.
    - The exact search prunes a frame when cost + rest[left] >= best - 1e-12.
      rest[left] is the left fold (world.left_sum) of min_in over left's
      members in index order: rest[u] = rest[u minus its top member] +
      min_in[top] adds the same terms in the same order from the same int 0,
      so each bound is the same double as a fold taken in the frame.
    - Local search tries the relocate move (i, k), which takes seq[i] out
      and puts it at position k, in (i, k) order and takes the first whose
      folded cost c satisfies c < cost - 1e-9.  seq always honours
      precedence, so a k outside the positions strictly between seq[i]'s
      last predecessor and its first successor makes it jump one of them,
      and _respects would reject the move; those k are not visited.  A move
      whose delta (the three legs it adds minus the three it drops, each
      leg an entry of start or between, or 0 at the open end) exceeds
      -1e-9 + slack cannot pass either: with M the largest |entry| the
      folds read and u = 2^-53, each fold of n terms is off its exact sum
      by at most about n^2 M u, the delta by 16 M u and cost - 1e-9 by
      u (n M + 1e-9), so slack = 2^-50 ((n + 4)^2 M + 1e-9) covers all of
      it with room for the rounding of slack and of the threshold.  An
      infinite entry makes slack infinite, and then nothing is screened.
      Every other move still goes through _respects, the fold and the
      c < cost - 1e-9 test.
    """
    ids = costs.ids
    n = len(ids)
    if n == 0:
        return PlacementSequence((), 0.0)
    for j in np.flatnonzero(np.isnan(costs.start)):
        raise ValueError(f"cost start[{j}] ({ids[j]}) is NaN")
    for i, j in np.argwhere(np.isnan(costs.between)):
        if i != j:
            raise ValueError(f"cost between[{i}, {j}] ({ids[i]} -> {ids[j]}) is NaN")
    idx = {o: k for k, o in enumerate(ids)}
    pred: dict[int, set[int]] = {k: set() for k in range(n)}
    need = [0] * n
    for a, b in precedence:
        if a in idx and b in idx:
            pred[idx[b]].add(idx[a])
            need[idx[b]] |= 1 << idx[a]

    # plain floats: the search below reads single entries in every frame;
    # rows[cur] holds the legs out of cur, rows[n] those out of the robot
    start = costs.start.tolist()
    between = costs.between.tolist()
    rows = between + [start]
    order = [
        sorted([j for j in range(n) if j != cur], key=row.__getitem__)
        for cur, row in enumerate(rows)
    ]
    everything = (1 << n) - 1

    def greedy() -> list[int]:
        left = everything
        seq: list[int] = []
        cur = n
        while left:
            cur = next((j for j in order[cur] if left >> j & 1 and not need[j] & left), None)
            if cur is None:
                raise ValueError("precedence constraints are cyclic")
            seq.append(cur)
            left ^= 1 << cur
        return seq

    def seq_cost(seq) -> float:
        c = start[seq[0]]
        for a, b in zip(seq, seq[1:]):
            c += between[a][b]
        return c

    best = None
    if warm is not None:
        w = [idx[o] for o in warm if o in idx]
        if len(w) == n and _respects(w, pred):
            best = (seq_cost(w), w)
    g = greedy()
    if best is None or seq_cost(g) < best[0]:
        best = (seq_cost(g), g)

    if n <= EXACT_LIMIT:
        # admissible bound: every unvisited object still needs one incoming leg
        min_in = []
        for j in range(n):
            cands = [start[j]] + [between[i][j] for i in range(n) if i != j]
            finite = [c for c in cands if math.isfinite(c)]
            min_in.append(min(finite) if finite else 0.0)
        rest = [0]
        for u in range(1, 1 << n):
            top = u.bit_length() - 1
            rest.append(rest[u ^ 1 << top] + min_in[top])

        best_cost, best_seq = best
        seq: list[int] = []

        def dfs(cur: int, left: int, cost: float):
            nonlocal best_cost, best_seq
            if not left:
                if cost < best_cost - 1e-12:
                    best_cost, best_seq = cost, list(seq)
                return
            if cost + rest[left] >= best_cost - 1e-12:
                return
            row = rows[cur]
            for j in order[cur]:
                if left >> j & 1 and not need[j] & left:
                    seq.append(j)
                    dfs(j, left ^ 1 << j, cost + row[j])
                    seq.pop()

        dfs(n, everything, 0.0)
        best = (best_cost, best_seq)
    else:
        succ: list[list[int]] = [[] for _ in range(n)]
        for b in range(n):
            for a in pred[b]:
                succ[a].append(b)
        # legs as an (n + 1)-square: row n leaves the robot, column n is the
        # open end (cost 0); diagonal entries are never read
        legs = [row + [0.0] for row in rows]
        off_diagonal = costs.between[~np.eye(n, dtype=bool)]
        largest = float(np.abs(np.concatenate((costs.start, off_diagonal))).max())
        slack = 2.0**-50 * ((n + 4) ** 2 * largest + 1e-9)
        cost, seq = best
        improved = True
        while improved:
            improved = False
            q = [n, *seq, n]   # the order with the robot before it and the end after
            drop = [legs[a][b] for a, b in zip(q, q[1:])]
            pos = [0] * n
            for t, v in enumerate(seq):
                pos[v] = t
            for i in range(n):
                x = seq[i]
                lo = max((pos[a] for a in pred[x]), default=-1)
                hi = min((pos[b] for b in succ[x]), default=n)
                out_x = legs[x]
                gain = legs[q[i]][x] + out_x[q[i + 2]] - legs[q[i]][q[i + 2]]
                for k in range(lo + 1, hi):
                    if k == i:
                        continue
                    # x lands between q[e] and q[e + 1]
                    e = k if k < i else k + 1
                    if legs[q[e]][x] + out_x[q[e + 1]] - drop[e] - gain > slack - 1e-9:
                        continue
                    cand = seq[:i] + seq[i + 1 :]
                    cand = cand[:k] + [seq[i]] + cand[k:]
                    if not _respects(cand, pred):
                        continue
                    c = seq_cost(cand)
                    if c < cost - 1e-9:
                        cost, seq = c, cand
                        improved = True
                        break
                if improved:
                    break
        best = (cost, seq)

    cost, seq = best
    return PlacementSequence(tuple(ids[j] for j in seq), float(cost))


@dataclass
class SequencerCaches:
    lengths: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    failures: int = 0


def _leg_key(a: Pose2, b: Pose2) -> tuple:
    return (round(a.x, 9), round(a.y, 9), round(b.x, 9), round(b.y, 9))


def lazy_refine(
    costs: CostMatrix,
    scene: Scene,
    seed: int,
    *,
    precedence=(),
    rounds: int = 5,
    spec: GridSpec,
    caches: SequencerCaches,
    rrt_max_iters: int = 5000,
) -> tuple[PlacementSequence, int]:
    """Upgrade the incumbent order's legs to planned robot path lengths,
    re-solving after each batch, until the incumbent stops changing or the
    round budget runs out.

    Planned lengths can only exceed the straight-line seeds, so once an
    incumbent survives with every leg upgraded it is optimal under costs
    at least as large as any competitor's true costs, provided solve_patsp
    searched exactly: up to EXACT_LIMIT objects.  Above that the incumbent
    is solve_patsp's heuristic answer and carries no such guarantee.
    """
    statics = scene.statics_only()
    robot = scene.robot
    rparts = (robot.w, robot.h)
    idx = {o: k for k, o in enumerate(costs.ids)}

    def planned_length(a: Pose2, b: Pose2) -> float | None:
        key = _leg_key(a, b)
        if key in caches.lengths:
            caches.hits += 1
            return caches.lengths[key]
        caches.misses += 1
        path = motion.birrt(
            statics,
            rparts,
            a,
            b,
            _mix_seed(seed, "lazy", key),
            rrt_max_iters,
            ignore=frozenset({robot.id}),
            spec=spec,
        )
        length = None if path is None else path.length
        caches.lengths[key] = length
        return length

    incumbent = solve_patsp(costs, precedence)
    used_rounds = 0
    for _ in range(rounds):
        used_rounds += 1
        changed = False
        legs = []
        if incumbent.order:
            j0 = idx[incumbent.order[0]]
            if not costs.start_exact[j0]:
                legs.append(("start", j0, robot.pose, scene.body(incumbent.order[0]).pose))
            for oa, ob in zip(incumbent.order, incumbent.order[1:]):
                i, j = idx[oa], idx[ob]
                if not costs.between_exact[i, j]:
                    legs.append(("between", (i, j), scene.goal_of(oa), scene.body(ob).pose))
        for kind, where, a, b in legs:
            length = planned_length(a, b)
            if length is None:
                caches.failures += 1
                length = a.dist(b)  # keep the lower bound, mark settled
            if kind == "start":
                costs.start[where] = length
                costs.start_exact[where] = True
            else:
                costs.between[where] = length
                costs.between_exact[where] = True
            changed = True
        if not changed:
            break
        incumbent = solve_patsp(costs, precedence, warm=incumbent.order)
    return PlacementSequence(incumbent.order, costs.order_cost(incumbent.order)), used_rounds
