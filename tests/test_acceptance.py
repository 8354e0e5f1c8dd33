"""Acceptance suite: one test per shipped guarantee.

Each test is a single pass/fail check of one external promise, at the
sizes and tolerances those promises are made for.  The desk-suite runs
are shared across the end-to-end checks through a module fixture.
"""
import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from rearrange2d import bench, guided_search as gs, motion
from rearrange2d.grids import GridSpec, edt
from rearrange2d.planner import PlannerConfig, plan_rearrangement, replay_plans, serialize_result
from rearrange2d.sequencer import (
    STRONG,
    WEAK,
    CostMatrix,
    DependencyGraph,
    Edge,
    SequencerCaches,
    break_cycles,
    build_dependency_graph,
    lazy_refine,
    solve_patsp,
    topo_order,
)
from rearrange2d.world import default_tolerance, verify_placements

DESK_SUITE = bench.SUITES["desk"]
SEEDS = range(10)


# ---------------------------------------------------------------- criterion 1

def _metric_costs(rng, n):
    ids = tuple(f"o{i}" for i in range(n))
    robot = (rng.uniform(0, 10), rng.uniform(0, 10))
    pos = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    goal = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    start = np.array([math.dist(robot, p) for p in pos])
    between = np.full((n, n), math.inf)
    for i in range(n):
        for j in range(n):
            if i != j:
                between[i, j] = math.dist(goal[i], pos[j])
    return CostMatrix(
        ids, start, between, np.zeros(n, dtype=bool), np.zeros((n, n), dtype=bool)
    )


def _random_dag(rng, ids):
    order = list(ids)
    rng.shuffle(order)
    return tuple(
        (order[i], order[j])
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if rng.random() < 0.3
    )


def _brute_patsp_cost(costs, precedence):
    idx = {o: k for k, o in enumerate(costs.ids)}
    pred = {k: set() for k in range(len(costs.ids))}
    for a, b in precedence:
        pred[idx[b]].add(idx[a])
    best = math.inf
    for perm in itertools.permutations(range(len(costs.ids))):
        seen = set()
        ok = True
        for v in perm:
            if not pred[v] <= seen:
                ok = False
                break
            seen.add(v)
        if not ok:
            continue
        c = float(costs.start[perm[0]])
        for a, b in zip(perm, perm[1:]):
            c += float(costs.between[a, b])
        best = min(best, c)
    return best


def test_c01_patsp_matches_exhaustive_enumeration():
    rng = random.Random(101)
    t0 = time.monotonic()
    for _ in range(100):
        n = rng.randint(1, 8)
        costs = _metric_costs(rng, n)
        prec = _random_dag(rng, costs.ids)
        seq = solve_patsp(costs, prec)
        expect = _brute_patsp_cost(costs, prec)
        assert seq.cost == pytest.approx(expect, abs=1e-9)
        pos = {o: k for k, o in enumerate(seq.order)}
        assert all(pos[a] < pos[b] for a, b in prec)
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------- criterion 2

def _brute_edt(occ):
    ny, nx = occ.shape
    out = np.zeros((ny, nx))
    if occ.any():
        pts = [(iy, ix) for iy in range(ny) for ix in range(nx) if occ[iy, ix]]
        for iy in range(ny):
            for ix in range(nx):
                if not occ[iy, ix]:
                    out[iy, ix] = math.sqrt(
                        min((iy - py) ** 2 + (ix - px) ** 2 for py, px in pts)
                    )
    else:
        for iy in range(ny):
            for ix in range(nx):
                out[iy, ix] = min(ix + 1, nx - ix, iy + 1, ny - iy)
    return out


def test_c02_edt_matches_brute_force():
    rng = np.random.default_rng(202)
    for _ in range(200):
        occ = rng.random((16, 16)) < rng.uniform(0.0, 0.6)
        assert np.abs(edt(occ) - _brute_edt(occ)).max() <= 1e-9


# ---------------------------------------------------------------- criterion 3

def _random_digraph(rng, n):
    verts = tuple(f"v{i}" for i in range(n))
    edges = []
    for a in verts:
        for b in verts:
            if a != b and rng.random() < 0.4:
                edges.append(Edge(a, b, WEAK if rng.random() < 0.5 else STRONG))
    return DependencyGraph(verts, tuple(edges))


def _min_fas(graph):
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
            cost = sum(1 for u in out_edges[v] if mask & (1 << u))
            nxt = mask | (1 << v)
            if f[mask] + cost < f[nxt]:
                f[nxt] = f[mask] + cost
    return f[(1 << n) - 1]


def test_c03_cycle_removal_near_minimal_and_weak_biased():
    rng = random.Random(303)
    for _ in range(100):
        g = _random_digraph(rng, rng.randint(2, 8))
        res = break_cycles(g)
        assert topo_order(res.graph.vertices, res.graph.edges) is not None
        assert len(res.removed) <= _min_fas(g) + 2
    # directed tie: a weak and a strong edge in one two-cycle, either way round
    for strengths in ((WEAK, STRONG), (STRONG, WEAK)):
        g = DependencyGraph(
            ("a", "b"), (Edge("a", "b", strengths[0]), Edge("b", "a", strengths[1]))
        )
        res = break_cycles(g)
        assert len(res.removed) == 1
        assert res.removed[0].strength == WEAK


# ------------------------------------------------------- criteria 4, 7 and 8

@pytest.fixture(scope="module")
def desk_runs():
    runs = {}
    for name in DESK_SUITE:
        for seed in SEEDS:
            scene = bench.make_scene(name, seed)
            t0 = time.monotonic()
            result = plan_rearrangement(scene, PlannerConfig(seed=seed))
            runs[(name, seed)] = (scene, result, time.monotonic() - t0)
    return runs


def test_c04_desk_suite_all_success_within_budget(desk_runs):
    for (name, seed), (scene, result, dt) in desk_runs.items():
        assert result.status == "success", f"{name} seed {seed}: {result.status}"
        assert dt < 120.0, f"{name} seed {seed}: {dt:.1f}s"
        tol = default_tolerance(scene)
        assert verify_placements(result.scene, tol) == set(scene.goals)


def test_c05_subgoal_refinement_cuts_pnp_count():
    for seed in SEEDS:
        scene = bench.make_scene("narrow_room", seed)
        refined = plan_rearrangement(scene, PlannerConfig(seed=seed))
        plain = plan_rearrangement(scene, PlannerConfig(seed=seed, refine=False))
        assert refined.status == "success" and plain.status == "success"
        assert refined.metrics.pnp <= 0.7 * plain.metrics.pnp, (
            f"seed {seed}: {refined.metrics.pnp} vs {plain.metrics.pnp}"
        )


def test_c06_sequencing_beats_random_order_on_replanning():
    full = []
    rand = []
    for seed in SEEDS:
        scene = bench.make_scene("m_block_8", seed)
        a = plan_rearrangement(scene, PlannerConfig(seed=seed))
        b = plan_rearrangement(scene, PlannerConfig(seed=seed, random_sequence=True))
        assert a.status == "success" and b.status == "success"
        full.append(a.metrics.replanning)
        rand.append(b.metrics.replanning)
    assert sum(full) / len(full) < sum(rand) / len(rand), (full, rand)


def test_c07_every_success_replays_cleanly(desk_runs):
    for (name, seed), (scene, result, _) in desk_runs.items():
        violations, final = replay_plans(scene, result.plans)
        assert violations == [], f"{name} seed {seed}: {violations}"
        for b in result.scene.bodies:
            assert final.body(b.id).pose == b.pose


def test_c08_reruns_serialize_byte_identically(desk_runs):
    for (name, seed), (scene, result, _) in desk_runs.items():
        again = plan_rearrangement(
            bench.make_scene(name, seed), PlannerConfig(seed=seed)
        )
        a = json.dumps(serialize_result(result), sort_keys=True)
        b = json.dumps(serialize_result(again), sort_keys=True)
        assert a == b, f"{name} seed {seed}: serialization differs"


# ---------------------------------------------------------------- criterion 9

def _relocated_objects(result):
    return {p.object_id for p in result.plans if p.purpose == "relocation"}


def _audit_minimality(scene):
    goal_id = sorted(scene.goals)[0]
    spec = GridSpec.from_scene(scene)
    mu = motion.plan_object_path(scene, goal_id, scene.goal_of(goal_id), 0, spec=spec)
    task = gs.place_task(scene, goal_id, mu.waypoints, spec)
    colliders = gs.find_colliding(scene, task, spec)
    assert 0 < len(colliders) <= 4
    crit = gs.select_critical(scene, task, colliders, spec=spec)
    assert crit is not None
    assert gs.task_feasible(scene, task, frozenset(crit), spec)
    for size in range(len(crit)):
        for combo in itertools.combinations(colliders, size):
            assert not gs.task_feasible(scene, task, frozenset(combo), spec), (
                f"smaller subset {combo} already unblocks {goal_id}"
            )
    return crit


def test_c09_relocation_counts_and_critical_set_minimality():
    doorway = bench.make_scene("doorway")
    res = plan_rearrangement(doorway, PlannerConfig())
    assert res.status == "success"
    assert len(_relocated_objects(res)) == 1

    nested = bench.make_scene("nested_blockers")
    res2 = plan_rearrangement(nested, PlannerConfig())
    assert res2.status == "success"
    assert len(_relocated_objects(res2)) >= 2

    _audit_minimality(doorway)
    _audit_minimality(nested)


# --------------------------------------------------------------- criterion 10

def _rrt_evaluated_cost(scene, order, seed, spec):
    """Robot path length realized by serving the objects in this order."""
    statics = scene.statics_only()
    robot = scene.robot
    total = 0.0
    start = robot.pose
    for oid in order:
        target = scene.body(oid).pose
        path = motion.birrt(
            statics, robot.footprint, start, target, seed,
            ignore=frozenset({robot.id}), spec=spec,
        )
        total += path.length if path is not None else start.dist(target)
        start = scene.goal_of(oid)
    return total


def test_c10_lazy_refinement_no_worse_than_euclidean_sequencing():
    for seed in SEEDS:
        scene = bench.make_scene("detour_pocket", seed)
        spec = GridSpec.from_scene(scene)
        tol = default_tolerance(scene)
        unplaced = sorted(set(scene.goals) - verify_placements(scene, tol))
        graph = build_dependency_graph(scene, unplaced=unplaced, tol=tol, seed=seed, spec=spec)
        prec = tuple((e.src, e.dst) for e in break_cycles(graph).graph.edges)
        ids = tuple(sorted(scene.goals))
        euclid_seq = solve_patsp(CostMatrix.euclidean(scene, ids), prec)
        refined_seq, _ = lazy_refine(
            CostMatrix.euclidean(scene, ids), scene, seed,
            precedence=prec, spec=spec, caches=SequencerCaches(),
        )
        cost_refined = _rrt_evaluated_cost(scene, refined_seq.order, seed, spec)
        cost_euclid = _rrt_evaluated_cost(scene, euclid_seq.order, seed, spec)
        assert cost_refined <= cost_euclid + 1e-9, (
            f"seed {seed}: {cost_refined:.3f} vs {cost_euclid:.3f}"
        )
