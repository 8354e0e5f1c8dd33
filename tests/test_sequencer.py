import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from rearrange2d import sequencer
from rearrange2d.grids import GridSpec
from rearrange2d.sequencer import (
    STRONG,
    WEAK,
    CostMatrix,
    DependencyGraph,
    Edge,
    SequenceInfeasible,
    SequencerCaches,
    break_cycles,
    build_dependency_graph,
    lazy_refine,
    solve_patsp,
    topo_order,
)
from rearrange2d.world import Pose2, Rect, default_tolerance, verify_placements

from conftest import goal_obj, robot, scene, wall
from test_cycle_oracle import cycle_pairs, pair_counts, ref_pair_counts


def _grown(r, w, h):
    """r inflated by half a w x h footprint, as build_dependency_graph
    grows every current and goal rect."""
    return Rect(r.xmin - w / 2.0, r.ymin - h / 2.0, r.xmax + w / 2.0, r.ymax + h / 2.0)


class TestPathCrossesRect:
    def test_swept_overlap(self):
        pts = (Pose2(1, 5), Pose2(9, 5))
        # rect strictly on the centerline
        assert sequencer._enters(pts, _grown(Rect(4.7, 4.7, 5.3, 5.3), 0.6, 0.6))
        # rect off to the side but within the footprint half-height
        assert sequencer._enters(pts, _grown(Rect(4.7, 5.2, 5.3, 6.0), 0.6, 0.6))
        # flush contact at exactly half-height does not count
        assert not sequencer._enters(pts, _grown(Rect(4.7, 5.3, 5.3, 6.2), 0.6, 0.6))
        assert not sequencer._enters(pts, _grown(Rect(4.7, 7.0, 5.3, 7.6), 0.6, 0.6))

    def test_single_point_path(self):
        pts = (Pose2(5, 5),)
        assert sequencer._enters(pts, _grown(Rect(4.9, 4.9, 5.1, 5.1), 0.6, 0.6))
        assert not sequencer._enters(pts, _grown(Rect(6.0, 6.0, 6.5, 6.5), 0.6, 0.6))


def _dependency_graph(sc):
    """build_dependency_graph on the goal objects off their goals, found as
    plan_rearrangement finds them."""
    tol = default_tolerance(sc)
    unplaced = sorted(set(sc.goals) - verify_placements(sc, tol))
    return build_dependency_graph(sc, unplaced=unplaced, tol=tol, spec=GridSpec.from_scene(sc))


class TestBuildDependencyGraph:
    def test_weak_edge_for_body_on_route(self):
        sc = scene(
            [robot(1, 5), goal_obj("a", 3, 5), goal_obj("b", 5, 5)],
            {"a": Pose2(7, 5), "b": Pose2(5, 8)},
        )
        g = _dependency_graph(sc)
        assert g.vertices == ("a", "b")
        assert Edge("b", "a", WEAK) in g.edges
        assert all(e.strength == WEAK for e in g.edges)

    def test_strong_edge_for_goal_on_route(self):
        sc = scene(
            [robot(1, 5), goal_obj("a", 3, 5), goal_obj("c", 8, 2)],
            {"a": Pose2(7, 5), "c": Pose2(5, 5)},
        )
        g = _dependency_graph(sc)
        assert g.edges == (Edge("a", "c", STRONG),)

    def test_placed_objects_excluded(self):
        sc = scene(
            [robot(1, 1), goal_obj("a", 3, 5), goal_obj("b", 8, 8)],
            {"a": Pose2(7, 5), "b": Pose2(8, 8)},
        )
        g = _dependency_graph(sc)
        assert g.vertices == ("a",)

    def test_no_route_raises(self):
        sc = scene(
            [robot(1, 5), goal_obj("a", 3, 5), wall("bar", 5, 5, 0.4, 10.0)],
            {"a": Pose2(8, 5)},
        )
        with pytest.raises(SequenceInfeasible):
            _dependency_graph(sc)


def _random_digraph(rng, n, p):
    verts = tuple(f"v{i}" for i in range(n))
    edges = []
    for a in verts:
        for b in verts:
            if a != b and rng.random() < p:
                edges.append(Edge(a, b, WEAK if rng.random() < 0.5 else STRONG))
    return DependencyGraph(verts, tuple(edges))


def _oracle_cycles(graph):
    """All simple directed cycles by brute force over vertex subsets."""
    arcs = {(e.src, e.dst) for e in graph.edges}
    found = set()
    for size in range(2, len(graph.vertices) + 1):
        for combo in itertools.combinations(sorted(graph.vertices), size):
            first = combo[0]
            for rest in itertools.permutations(combo[1:]):
                order = (first,) + rest
                if all(
                    (order[i], order[(i + 1) % size]) in arcs for i in range(size)
                ):
                    found.add(order)
    return found


class TestEnumerateCycles:
    def test_matches_brute_force(self):
        rng = random.Random(13)
        for _ in range(40):
            g = _random_digraph(rng, rng.randint(2, 6), 0.35)
            want = Counter(pair for c in _oracle_cycles(g) for pair in cycle_pairs(c))
            assert pair_counts(g) == want

    def test_cycle_edges_cover_parallel_pairs(self):
        g = DependencyGraph(
            ("a", "b"),
            (Edge("a", "b", WEAK), Edge("a", "b", STRONG), Edge("b", "a", WEAK)),
        )
        assert pair_counts(g) == {("a", "b"): 1, ("b", "a"): 1}
        # greedy mode removes only edges its one count charged: the strong
        # twin must carry the cycle too, or b -> a would go second
        g2 = DependencyGraph(
            ("a", "b"),
            (Edge("a", "b", WEAK), Edge("a", "b", STRONG), Edge("b", "a", STRONG)),
        )
        res = break_cycles(g2, greedy=True)
        assert res.removed == (Edge("a", "b", WEAK), Edge("a", "b", STRONG))

    def test_truncation(self):
        verts = tuple(f"v{i}" for i in range(5))
        edges = tuple(
            Edge(a, b, WEAK) for a in verts for b in verts if a != b
        )
        g = DependencyGraph(verts, edges)
        counts = pair_counts(g, cap=10)
        # all 10 counted cycles start at v0 (64 cycles run through it), and
        # each closes into it once
        assert sum(k for (_, dst), k in counts.items() if dst == "v0") == 10
        assert counts == ref_pair_counts(g, cap=10)


class TestTopoOrder:
    def test_orders_dag(self):
        order = topo_order(("b", "a", "c"), (Edge("a", "b", WEAK), Edge("b", "c", WEAK)))
        assert order == ["a", "b", "c"]

    def test_lexicographic_ties(self):
        assert topo_order(("c", "b", "a"), ()) == ["a", "b", "c"]

    def test_cycle_returns_none(self):
        edges = (Edge("a", "b", WEAK), Edge("b", "a", WEAK))
        assert topo_order(("a", "b"), edges) is None


def _min_fas(graph):
    """Minimum feedback edge set size by subset DP over topological orders."""
    verts = list(graph.vertices)
    n = len(verts)
    vi = {v: i for i, v in enumerate(verts)}
    out_edges = [[] for _ in range(n)]
    for e in graph.edges:
        out_edges[vi[e.src]].append(vi[e.dst])
    f = [math.inf] * (1 << n)
    f[0] = 0
    for mask in range(1 << n):
        if f[mask] is math.inf:
            continue
        for v in range(n):
            if mask & (1 << v):
                continue
            # v placed after everything in mask: its edges into mask break
            cost = sum(1 for u in out_edges[v] if mask & (1 << u))
            nxt = mask | (1 << v)
            if f[mask] + cost < f[nxt]:
                f[nxt] = f[mask] + cost
    return f[(1 << n) - 1]


class TestBreakCycles:
    def test_result_is_acyclic(self):
        rng = random.Random(29)
        for _ in range(40):
            g = _random_digraph(rng, rng.randint(2, 7), 0.4)
            res = break_cycles(g)
            assert topo_order(res.graph.vertices, res.graph.edges) is not None
            # removed edges really came out of the graph
            assert set(res.graph.edges) | set(res.removed) == set(g.edges)

    def test_near_minimal_removal(self):
        rng = random.Random(31)
        for _ in range(30):
            g = _random_digraph(rng, rng.randint(2, 7), 0.4)
            res = break_cycles(g)
            assert len(res.removed) <= _min_fas(g) + 2

    def test_weak_preferred_on_tie(self):
        g = DependencyGraph(("a", "b"), (Edge("a", "b", WEAK), Edge("b", "a", STRONG)))
        res = break_cycles(g)
        assert res.removed == (Edge("a", "b", WEAK),)
        g2 = DependencyGraph(("a", "b"), (Edge("a", "b", STRONG), Edge("b", "a", WEAK)))
        res2 = break_cycles(g2)
        assert res2.removed == (Edge("b", "a", WEAK),)

    def test_acyclic_input_untouched(self):
        g = DependencyGraph(("a", "b", "c"), (Edge("a", "b", WEAK), Edge("a", "c", STRONG)))
        res = break_cycles(g)
        assert res.removed == ()
        assert pair_counts(g) == {}
        assert res.graph.edges == g.edges

    def test_greedy_mode_still_acyclic(self):
        rng = random.Random(37)
        for _ in range(30):
            g = _random_digraph(rng, rng.randint(2, 7), 0.5)
            exact = break_cycles(g)
            greedy = break_cycles(g, greedy=True)
            assert topo_order(greedy.graph.vertices, greedy.graph.edges) is not None
            assert len(greedy.removed) >= len(exact.removed)


class TestCostMatrix:
    def test_euclidean_entries(self):
        sc = scene(
            [robot(0, 0), goal_obj("a", 3, 4), goal_obj("b", 6, 8)],
            {"a": Pose2(3, 0), "b": Pose2(9, 8)},
        )
        cm = CostMatrix.euclidean(sc, ("a", "b"))
        assert cm.start[0] == pytest.approx(5.0)
        assert cm.start[1] == pytest.approx(10.0)
        # a's goal (3, 0) to b's position (6, 8)
        assert cm.between[0, 1] == pytest.approx(math.hypot(3, 8))
        assert math.isinf(cm.between[0, 0])
        assert not cm.start_exact.any()

    def test_order_cost(self):
        sc = scene(
            [robot(0, 0), goal_obj("a", 3, 4), goal_obj("b", 6, 8)],
            {"a": Pose2(3, 0), "b": Pose2(9, 8)},
        )
        cm = CostMatrix.euclidean(sc, ("a", "b"))
        assert cm.order_cost(("a", "b")) == pytest.approx(5.0 + math.hypot(3, 8))
        assert cm.order_cost(()) == 0.0


def _random_costs(rng, n):
    ids = tuple(f"o{i}" for i in range(n))
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    goals = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    start = np.array([math.hypot(x, y) for x, y in pts])
    between = np.full((n, n), math.inf)
    for i in range(n):
        for j in range(n):
            if i != j:
                between[i, j] = math.hypot(
                    goals[i][0] - pts[j][0], goals[i][1] - pts[j][1]
                )
    return CostMatrix(
        ids, start, between, np.zeros(n, dtype=bool), np.zeros((n, n), dtype=bool)
    )


def _random_dag_pairs(rng, ids, p=0.3):
    order = list(ids)
    rng.shuffle(order)
    return tuple(
        (order[i], order[j])
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if rng.random() < p
    )


def _brute_patsp(costs, precedence):
    idx = {o: k for k, o in enumerate(costs.ids)}
    pred = {k: set() for k in range(len(costs.ids))}
    for a, b in precedence:
        pred[idx[b]].add(idx[a])
    best = math.inf
    for perm in itertools.permutations(range(len(costs.ids))):
        seen = set()
        if any((seen.add(v), False)[1] or not pred[v] <= (seen - {v}) for v in perm):
            continue
        c = float(costs.start[perm[0]])
        for a, b in zip(perm, perm[1:]):
            c += float(costs.between[a, b])
        best = min(best, c)
    return best


class TestSolvePatsp:
    def test_matches_brute_force(self):
        rng = random.Random(41)
        for _ in range(25):
            n = rng.randint(1, 7)
            costs = _random_costs(rng, n)
            prec = _random_dag_pairs(rng, costs.ids)
            seq = solve_patsp(costs, prec)
            assert seq.cost == pytest.approx(_brute_patsp(costs, prec), abs=1e-9)
            assert seq.cost == pytest.approx(costs.order_cost(seq.order), abs=1e-9)
            # precedence respected
            pos = {o: k for k, o in enumerate(seq.order)}
            assert all(pos[a] < pos[b] for a, b in prec)

    def test_empty(self):
        costs = _random_costs(random.Random(1), 0)
        assert solve_patsp(costs) == type(solve_patsp(costs))((), 0.0)

    def test_cyclic_precedence_rejected(self):
        costs = _random_costs(random.Random(2), 3)
        with pytest.raises(ValueError):
            solve_patsp(costs, (("o0", "o1"), ("o1", "o0")))

    def test_heuristic_beyond_exact_limit(self, monkeypatch):
        rng = random.Random(43)
        costs = _random_costs(rng, 6)
        prec = _random_dag_pairs(rng, costs.ids, p=0.2)
        exact = solve_patsp(costs, prec)
        monkeypatch.setattr(sequencer, "EXACT_LIMIT", 2)
        heur = solve_patsp(costs, prec)
        assert heur.cost >= exact.cost - 1e-9
        pos = {o: k for k, o in enumerate(heur.order)}
        assert all(pos[a] < pos[b] for a, b in prec)
        assert sorted(heur.order) == sorted(costs.ids)

    def test_warm_start_never_hurts(self, monkeypatch):
        monkeypatch.setattr(sequencer, "EXACT_LIMIT", 4)
        rng = random.Random(47)
        costs = _random_costs(rng, 9)
        warm = tuple(costs.ids)
        seq = solve_patsp(costs, (), warm=warm)
        assert seq.cost <= costs.order_cost(warm) + 1e-9

    def test_deterministic(self, monkeypatch):
        monkeypatch.setattr(sequencer, "EXACT_LIMIT", 4)
        rng = random.Random(53)
        costs = _random_costs(rng, 10)
        a = solve_patsp(costs)
        b = solve_patsp(costs)
        assert a == b

    @pytest.mark.parametrize("where", ["start", "between"])
    def test_nan_cost_rejected(self, where):
        costs = _random_costs(random.Random(59), 4)
        if where == "start":
            costs.start[2] = math.nan
            named = r"start\[2\] \(o2\)"
        else:
            costs.between[1, 3] = math.nan
            named = r"between\[1, 3\] \(o1 -> o3\)"
        with pytest.raises(ValueError, match=named):
            solve_patsp(costs)

    def test_nan_on_diagonal_and_inf_allowed(self):
        # the diagonal is never read; inf is a legal cost (an unusable leg)
        costs = _random_costs(random.Random(61), 4)
        costs.between[2, 2] = math.nan
        costs.start[0] = math.inf
        costs.between[1, 3] = math.inf
        seq = solve_patsp(costs)
        assert sorted(seq.order) == sorted(costs.ids)
        assert seq.order[0] != "o0" and math.isfinite(seq.cost)


class TestLazyRefine:
    def _two_goal_scene(self, with_wall=False):
        bodies = [robot(1, 5), goal_obj("a", 3, 7), goal_obj("b", 3, 3)]
        if with_wall:
            bodies.append(wall("bar", 5, 4.9, 0.4, 8.0))
        return scene(bodies, {"a": Pose2(8, 7), "b": Pose2(8, 3)})

    def test_open_scene_keeps_euclidean_order(self):
        sc = self._two_goal_scene()
        costs = CostMatrix.euclidean(sc, ("a", "b"))
        base = solve_patsp(costs)
        refined, rounds = lazy_refine(
            costs, sc, seed=0, spec=GridSpec.from_scene(sc), caches=SequencerCaches()
        )
        assert refined.order == base.order
        # straight legs stay straight, so the upgraded costs match euclid
        assert refined.cost == pytest.approx(base.cost)
        assert rounds <= 5

    def test_upgraded_legs_never_shrink(self):
        sc = self._two_goal_scene(with_wall=True)
        costs = CostMatrix.euclidean(sc, ("a", "b"))
        euclid = CostMatrix.euclidean(sc, ("a", "b"))
        refined, _ = lazy_refine(
            costs, sc, seed=0, spec=GridSpec.from_scene(sc), caches=SequencerCaches()
        )
        assert (costs.start + 1e-9 >= euclid.start).all()
        mask = np.isfinite(costs.between)
        assert (costs.between[mask] + 1e-9 >= euclid.between[mask]).all()
        # the refined incumbent's own legs are settled
        assert costs.start_exact[costs.ids.index(refined.order[0])]

    def test_cache_reuse(self):
        sc = self._two_goal_scene(with_wall=True)
        caches = SequencerCaches()
        lazy_refine(
            CostMatrix.euclidean(sc, ("a", "b")), sc, seed=0,
            spec=GridSpec.from_scene(sc), caches=caches,
        )
        misses = caches.misses
        assert misses > 0
        lazy_refine(
            CostMatrix.euclidean(sc, ("a", "b")), sc, seed=0,
            spec=GridSpec.from_scene(sc), caches=caches,
        )
        assert caches.misses == misses
        assert caches.hits > 0

    def test_deterministic(self):
        sc = self._two_goal_scene(with_wall=True)
        r1, _ = lazy_refine(
            CostMatrix.euclidean(sc, ("a", "b")), sc, seed=9,
            spec=GridSpec.from_scene(sc), caches=SequencerCaches(),
        )
        r2, _ = lazy_refine(
            CostMatrix.euclidean(sc, ("a", "b")), sc, seed=9,
            spec=GridSpec.from_scene(sc), caches=SequencerCaches(),
        )
        assert r1 == r2

    def test_precedence_respected(self):
        sc = self._two_goal_scene()
        costs = CostMatrix.euclidean(sc, ("a", "b"))
        refined, _ = lazy_refine(
            costs, sc, seed=0, precedence=(("b", "a"),),
            spec=GridSpec.from_scene(sc), caches=SequencerCaches(),
        )
        assert refined.order == ("b", "a")
