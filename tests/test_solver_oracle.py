"""Exact agreement of the sequence search and the dependency edges with references.

``sequencer.solve_patsp`` reads its readiness, bound and candidate order
from integer masks and precomputed tables, and screens relocate moves before
testing them; ``sequencer.build_dependency_graph`` computes each object's
bounds once.  The references below are the plain versions those replaced:
sets for readiness, a fresh fold for every bound, a sort per frame, every
relocate move tested in full, and two rects built per ordered pair.  Both
must agree *exactly*: the same order and the same cost to the last bit
(``float.hex``), and the same edges through the same number of segment
tests, because the order decides the plan and the cost is reported.

Cost families, each with random, chain and empty precedence:
- planar: straight-line legs between random points, as CostMatrix.euclidean;
- integer: small integer legs, so many keys tie and many orders cost the same;
- inflow: every leg into j costs a_j, so all orders cost the same up to
  rounding; near 2^14 the rounding of the bound decides pruning, near 2^23
  the folds' rounding exceeds the 1e-9 improvement margin of local search;
- with inf: some start and off-diagonal legs unusable.
"""

import math
import random

import numpy as np
import pytest

from rearrange2d import motion, sequencer
from rearrange2d.bench import make_scene
from rearrange2d.grids import GridSpec
from rearrange2d.motion import Path
from rearrange2d.sequencer import (
    STRONG,
    WEAK,
    CostMatrix,
    Edge,
    PlacementSequence,
    build_dependency_graph,
    solve_patsp,
    topo_order,
)
from rearrange2d.world import (
    EPS, Pose2, Rect, default_tolerance, left_sum, rect_at, verify_placements,
)

from conftest import goal_obj, robot, scene


# -- references: solve_patsp and the dependency-edge loop as they were ------


def _ref_respects(order, pred: dict[int, set[int]]) -> bool:
    seen: set[int] = set()
    for v in order:
        if not pred[v] <= seen:
            return False
        seen.add(v)
    return True


def ref_solve_patsp(
    costs: CostMatrix,
    precedence=(),
    *,
    exact_limit: int = 12,
    warm=None,
) -> PlacementSequence:
    ids = costs.ids
    n = len(ids)
    if n == 0:
        return PlacementSequence((), 0.0)
    idx = {o: k for k, o in enumerate(ids)}
    pred: dict[int, set[int]] = {k: set() for k in range(n)}
    for a, b in precedence:
        if a in idx and b in idx:
            pred[idx[b]].add(idx[a])
    if topo_order(ids, tuple(Edge(ids[a], ids[b], WEAK) for b in pred for a in pred[b])) is None:
        raise ValueError("precedence constraints are cyclic")

    # plain floats: the search below reads single entries in every frame
    start = costs.start.tolist()
    between = costs.between.tolist()

    def greedy() -> list[int]:
        left = set(range(n))
        seq: list[int] = []
        cur = -1
        while left:
            ready = sorted(j for j in left if pred[j] <= set(seq))
            if cur < 0:
                j = min(ready, key=lambda j: (start[j], j))
            else:
                j = min(ready, key=lambda j: (between[cur][j], j))
            seq.append(j)
            left.discard(j)
            cur = j
        return seq

    def seq_cost(seq) -> float:
        c = start[seq[0]]
        for a, b in zip(seq, seq[1:]):
            c += between[a][b]
        return c

    best = None
    if warm is not None:
        w = [idx[o] for o in warm if o in idx]
        if len(w) == n and _ref_respects(w, pred):
            best = (seq_cost(w), w)
    g = greedy()
    if best is None or seq_cost(g) < best[0]:
        best = (seq_cost(g), g)

    if n <= exact_limit:
        # admissible bound: every unvisited object still needs one incoming leg
        min_in = []
        for j in range(n):
            cands = [start[j]] + [between[i][j] for i in range(n) if i != j]
            finite = [c for c in cands if math.isfinite(c)]
            min_in.append(min(finite) if finite else 0.0)

        best_cost, best_seq = best

        def dfs(seq: list[int], used: set[int], cost: float):
            nonlocal best_cost, best_seq
            if len(seq) == n:
                if cost < best_cost - 1e-12:
                    best_cost, best_seq = cost, list(seq)
                return
            bound = cost + left_sum(min_in[j] for j in range(n) if j not in used)
            if bound >= best_cost - 1e-12:
                return
            cur = seq[-1] if seq else -1
            ready = [j for j in range(n) if j not in used and pred[j] <= used]
            step = start.__getitem__ if cur < 0 else between[cur].__getitem__
            for j in sorted(ready, key=lambda j: (step(j), j)):
                seq.append(j)
                used.add(j)
                dfs(seq, used, cost + step(j))
                used.discard(j)
                seq.pop()

        dfs([], set(), 0.0)
        best = (best_cost, best_seq)
    else:
        cost, seq = best
        improved = True
        while improved:
            improved = False
            # relocate moves keep precedence easy to re-check
            for i in range(n):
                for k in range(n):
                    if k == i:
                        continue
                    cand = seq[:i] + seq[i + 1 :]
                    cand = cand[:k] + [seq[i]] + cand[k:]
                    if not _ref_respects(cand, pred):
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


def ref_path_crosses_rect(mu: Path, footprint_rect: Rect, w: float, h: float) -> bool:
    inflated = Rect(
        footprint_rect.xmin - w / 2.0,
        footprint_rect.ymin - h / 2.0,
        footprint_rect.xmax + w / 2.0,
        footprint_rect.ymax + h / 2.0,
    )
    pts = mu.waypoints
    return any(sequencer.segment_hits_rect(a, b, inflated) for a, b in zip(pts, pts[1:]))


def ref_edges(scene, unplaced, paths) -> tuple[Edge, ...]:
    unplaced = tuple(sorted(unplaced))
    edges: set[Edge] = set()
    for oi in unplaced:
        bi = scene.body(oi)
        mu = paths[oi]
        for oj in unplaced:
            if oj == oi:
                continue
            bj = scene.body(oj)
            if ref_path_crosses_rect(mu, bj.rect(), bi.w, bi.h):
                edges.add(Edge(oj, oi, sequencer.WEAK))
            goal_rect = rect_at(scene.goal_of(oj), bj.w, bj.h)
            if ref_path_crosses_rect(mu, goal_rect, bi.w, bi.h):
                edges.add(Edge(oi, oj, sequencer.STRONG))
    return tuple(sorted(edges))


# -- solver cases -------------------------------------------------------------


def _matrix(n, start, between) -> CostMatrix:
    ids = tuple(f"o{i:02d}" for i in range(n))
    between = np.array(between, dtype=float).reshape(n, n)
    np.fill_diagonal(between, math.inf)
    return CostMatrix(
        ids, np.array(start, dtype=float), between,
        np.zeros(n, dtype=bool), np.zeros((n, n), dtype=bool),
    )


def planar(rng, n) -> CostMatrix:
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    goals = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    start = [math.hypot(x, y) for x, y in pts]
    between = [math.dist(g, p) for g in goals for p in pts]
    return _matrix(n, start, between)


def integer(rng, n) -> CostMatrix:
    return _matrix(n, [rng.randint(0, 3) for _ in range(n)],
                   [rng.randint(1, 4) for _ in range(n * n)])


def inflow(scale):
    def make(rng, n) -> CostMatrix:
        a = [scale * (1 + rng.random()) for _ in range(n)]
        return _matrix(n, a, [a[j] for _ in range(n) for j in range(n)])
    return make


def with_inf(rng, n) -> CostMatrix:
    costs = planar(rng, n)
    for _ in range(max(1, n // 4)):
        costs.start[rng.randrange(n)] = math.inf
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            costs.between[i, j] = math.inf
    return costs


FAMILIES = {
    "planar": planar,
    "integer": integer,
    "inflow14": inflow(2.0**14),
    "inflow23": inflow(2.0**23),
    "inf": with_inf,
}


def precedence(rng, ids, kind):
    order = list(ids)
    rng.shuffle(order)
    if kind == "none":
        return ()
    if kind == "chain":
        half = order[: max(2, len(order) // 2)]
        return tuple(zip(half, half[1:]))
    return tuple(
        (order[i], order[j])
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if rng.random() < 2.0 / len(order)
    )


def linear_extension(rng, ids, prec):
    """A random order of ids that honours prec."""
    pred = {o: {a for a, b in prec if b == o} for o in ids}
    done, out = set(), []
    while len(out) < len(ids):
        o = rng.choice(sorted(o for o in ids if o not in done and pred[o] <= done))
        out.append(o)
        done.add(o)
    return tuple(out)


def _same(costs, prec, warm=None):
    got = solve_patsp(costs, prec, warm=warm)
    want = ref_solve_patsp(costs, prec, warm=warm)
    assert (got.order, got.cost.hex()) == (want.order, want.cost.hex())
    return got


KINDS = ("none", "chain", "dag")
EXACT_CASES = [(n, fam, kind) for n in range(1, 13) for fam in FAMILIES for kind in KINDS]
LOCAL_CASES = [(n, fam, kind) for n in (13, 16, 20, 24, 32) for fam in FAMILIES for kind in KINDS]


def _case(n, fam, kind, salt):
    rng = random.Random(f"{salt}:{n}:{fam}:{kind}")
    costs = FAMILIES[fam](rng, n)
    return rng, costs, precedence(rng, costs.ids, kind)


@pytest.mark.parametrize("n, fam, kind", EXACT_CASES)
def test_exact_search_matches_reference(n, fam, kind):
    # one draw beyond 9 objects: the reference's search takes up to 0.5 s there
    for salt in range(3 if n <= 9 else 1):
        rng, costs, prec = _case(n, fam, kind, salt)
        _same(costs, prec)


@pytest.mark.parametrize("n, fam, kind", LOCAL_CASES)
def test_local_search_matches_reference(n, fam, kind):
    rng, costs, prec = _case(n, fam, kind, 0)
    _same(costs, prec)


@pytest.mark.parametrize("n", [5, 12, 16, 24])
@pytest.mark.parametrize("fam", ["planar", "integer", "inflow23"])
def test_warm_starts_match_reference(n, fam):
    rng, costs, prec = _case(n, fam, "dag", "warm")
    ids = costs.ids
    valid = linear_extension(rng, ids, prec)
    _same(costs, prec, warm=valid)
    # a warm order that breaks precedence, or lacks an object, is ignored
    if prec:
        a, b = prec[0]
        broken = (b, a) + tuple(o for o in valid if o not in (a, b))
        _same(costs, prec, warm=broken)
    _same(costs, prec, warm=valid[1:])
    _same(costs, prec, warm=valid + ("stranger",))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("name", ["m_block_20", "m_block_24"])
def test_lazy_refine_cost_is_the_order_cost(name, seed):
    # the sequence benchmark's instances: lazy_refine returns its incumbent
    # with the cost solve_patsp gave it, which must be the final costs'
    # fold over the order to the last bit
    sc = make_scene(name, seed)
    spec = GridSpec.from_scene(sc)
    tol = default_tolerance(sc)
    unplaced = tuple(sorted(set(sc.goals) - verify_placements(sc, tol)))
    graph = build_dependency_graph(sc, unplaced=unplaced, tol=tol, seed=seed, spec=spec)
    broke = sequencer.break_cycles(graph)
    costs = CostMatrix.euclidean(sc, broke.graph.vertices)
    seq, rounds = sequencer.lazy_refine(
        costs, sc, seed, precedence=[(e.src, e.dst) for e in broke.graph.edges], spec=spec,
        caches=sequencer.SequencerCaches(),
    )
    assert rounds >= 1
    assert float.hex(seq.cost) == float.hex(costs.order_cost(seq.order))


# -- dependency edges -----------------------------------------------------------


class SegmentCounter:
    def __init__(self, monkeypatch):
        self.calls = 0
        original = sequencer.segment_hits_rect

        def counted(a, b, r):
            self.calls += 1
            return original(a, b, r)

        monkeypatch.setattr(sequencer, "segment_hits_rect", counted)


def _graph_and_reference(monkeypatch, sc, unplaced):
    """build_dependency_graph's edges and segment tests, and the
    reference's on the same routes."""
    paths = {}
    plan = motion.plan_object_path

    def spy(scene, oid, *args, **kwargs):
        paths[oid] = plan(scene, oid, *args, **kwargs)
        return paths[oid]

    monkeypatch.setattr(motion, "plan_object_path", spy)
    counter = SegmentCounter(monkeypatch)
    graph = build_dependency_graph(sc, unplaced=unplaced, tol=0.0, spec=GridSpec.from_scene(sc))
    calls = counter.calls
    counter.calls = 0
    want = ref_edges(sc, unplaced, paths)
    return graph, calls, want, counter.calls


@pytest.mark.parametrize("m, seed", [(8, 0), (12, 1), (16, 2), (20, 3)])
def test_edges_match_reference_on_m_block(monkeypatch, m, seed):
    sc = make_scene(f"m_block_{m}", seed)
    unplaced = sorted(set(sc.goals) - verify_placements(sc, default_tolerance(sc)))
    graph, calls, want, want_calls = _graph_and_reference(monkeypatch, sc, unplaced)
    assert graph.edges == want
    assert calls == want_calls


@pytest.mark.parametrize(
    "route, expected",
    [
        # a zero-length route inside b's inflated current rect
        ((Pose2(5.0, 5.2), Pose2(5.0, 5.2)), {Edge("b", "a", WEAK)}),
        # a zero-length route on the inflated edge: contact only
        ((Pose2(5.0, 5.6), Pose2(5.0, 5.6)), set()),
        # sliding flush along the top of b's inflated current rect
        ((Pose2(2.0, 5.6), Pose2(8.0, 5.6)), set()),
        # the same a few EPS inside it
        ((Pose2(2.0, 5.6 - 4 * EPS), Pose2(8.0, 5.6 - 4 * EPS)), {Edge("b", "a", WEAK)}),
        # a zero-length segment inside, then one leaving
        ((Pose2(5.0, 5.0), Pose2(5.0, 5.0), Pose2(5.0, 9.0)), {Edge("b", "a", WEAK)}),
        # a zero-length segment outside, then up through b's inflated goal rect
        ((Pose2(1.0, 1.0), Pose2(1.0, 1.0), Pose2(7.5, 1.0), Pose2(7.5, 9.0)),
         {Edge("a", "b", STRONG)}),
    ],
)
def test_edges_match_reference_on_hand_made_routes(monkeypatch, route, expected):
    # a and b are 0.6 squares and b sits at (5, 5), so a's centre is inside
    # b's inflated rect strictly within 0.6 of (5, 5) on both axes; b's own
    # route meets neither of a's rects
    sc = scene(
        [robot(0.5, 9.5), goal_obj("a", 1.0, 1.0), goal_obj("b", 5.0, 5.0)],
        {"a": Pose2(9.0, 1.0), "b": Pose2(7.5, 7.5)},
    )
    paths = {"a": Path(route), "b": Path((Pose2(5.0, 5.0), Pose2(7.5, 7.5)))}
    monkeypatch.setattr(motion, "plan_object_path", lambda scene, oid, *a, **k: paths[oid])
    counter = SegmentCounter(monkeypatch)
    graph = build_dependency_graph(sc, unplaced=("a", "b"), tol=0.0, spec=GridSpec.from_scene(sc))
    calls = counter.calls
    counter.calls = 0
    assert graph.edges == ref_edges(sc, ("a", "b"), paths) == tuple(sorted(expected))
    assert calls == counter.calls
