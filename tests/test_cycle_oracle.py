"""Exact agreement of the cycle counter and cycle breaking with a reference.

``break_cycles`` weighs each edge by how many of the live graph's first
``cap`` cycles run through its vertex pair; ``sequencer._pair_counts``
makes those counts in one Johnson search.  The reference functions are
the plain simple-path DFS that the Johnson search replaced and a removal
loop that rebuilds the graph and its cycle list every round.  Both must
agree *exactly*: the counter must give, pair for pair, the counts of the
reference's first ``cap`` cycles (so ``cap`` cuts at the same cycle, even
in the middle of a path), and ``break_cycles`` the same removed edges in
the same order and the same remaining graph, because the removed edges
decide the precedence every placement sequence honours.

``ref_stack_pair_counts`` is the counter's earlier form, an explicit-stack
Johnson search; the recursive counter must give its count lists on every
enumeration ``break_cycles`` makes for the ``sequence`` benchmark's graphs,
at every cap that cuts the complete digraph on 8 vertices deep in the
search, and on a ring longer than the interpreter's recursion limit, after
which the limit must read as before.
"""

import itertools
import random
import sys
from collections import Counter
from dataclasses import dataclass

import pytest

from rearrange2d import bench, sequencer
from rearrange2d.grids import GridSpec
from rearrange2d.planner import PlannerConfig
from rearrange2d.sequencer import (
    STRONG,
    WEAK,
    DependencyGraph,
    Edge,
    break_cycles,
    topo_order,
)
from rearrange2d.world import default_tolerance, verify_placements


@dataclass(frozen=True)
class Cycle:
    vertices: tuple[str, ...]           # rotation fixed: smallest vertex first
    edges: tuple[Edge, ...]             # all parallel edges along the hops


@dataclass(frozen=True)
class CycleLedger:
    cycles: tuple[Cycle, ...]
    truncated: bool = False


# -- counter under test -----------------------------------------------------


def pair_counts(graph: DependencyGraph, cap: int = 10000) -> dict[tuple[str, str], int]:
    """The per-pair cycle counts break_cycles weighs edges by, keyed by
    (src, dst) names; pairs no counted cycle uses are left out.

    Order contract: starts run in graph.vertices order; from each vertex
    the search tries its successors in sorted (src, dst) order; a start s
    only visits vertices that sort above it, so a cycle is found from its
    smallest vertex.  Only the first cap cycles of that order are counted
    (the first one for cap <= 0).
    """
    names, rank, pairs = sequencer._ranked_pairs(graph)
    n = len(names)
    counts = sequencer._pair_counts(
        sequencer._adjacency(n, pairs), [rank[v] for v in graph.vertices], cap
    )
    assert len(counts) == n * n
    return {(names[p // n], names[p % n]): k for p, k in enumerate(counts) if k}


def cycle_pairs(vertices) -> list[tuple[str, str]]:
    """The vertex pairs a cycle, given as its vertex sequence, runs through."""
    return [(vertices[i], vertices[(i + 1) % len(vertices)]) for i in range(len(vertices))]


# -- reference --------------------------------------------------------------


def ref_enumerate_cycles(graph: DependencyGraph, cap: int = 10000) -> CycleLedger:
    """All simple directed cycles, each reported once with its smallest
    vertex first.  Parallel edges between the same ordered pair collapse
    for enumeration but are all attached to the reported cycle."""
    pair_edges: dict[tuple[str, str], list[Edge]] = {}
    for e in graph.edges:
        pair_edges.setdefault((e.src, e.dst), []).append(e)
    adj: dict[str, list[str]] = {v: [] for v in graph.vertices}
    for (s, d) in sorted(pair_edges):
        if s in adj and d in adj:
            adj[s].append(d)

    cycles: list[Cycle] = []
    truncated = False

    def attach(path: tuple[str, ...]) -> Cycle:
        es: list[Edge] = []
        for k in range(len(path)):
            es.extend(pair_edges[(path[k], path[(k + 1) % len(path)])])
        return Cycle(path, tuple(es))

    for s in graph.vertices:
        if truncated:
            break
        stack = [(s, iter(adj[s]))]
        onpath = {s}
        path = [s]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w == s:
                    cycles.append(attach(tuple(path)))
                    if len(cycles) >= cap:
                        truncated = True
                        stack = []
                        advanced = True
                        break
                    continue
                if w <= s or w in onpath:
                    continue
                stack.append((w, iter(adj[w])))
                onpath.add(w)
                path.append(w)
                advanced = True
                break
            if not advanced:
                stack.pop()
                onpath.discard(v)
                if path:
                    path.pop()
    return CycleLedger(tuple(cycles), truncated)


def without_edge(graph: DependencyGraph, e: Edge) -> DependencyGraph:
    return DependencyGraph(graph.vertices, tuple(x for x in graph.edges if x != e))


@dataclass(frozen=True)
class RefBreakResult:
    graph: DependencyGraph
    removed: tuple[Edge, ...]
    ledgers: tuple[CycleLedger, ...]


def ref_break_cycles(graph: DependencyGraph, cap: int = 10000, greedy: bool = False) -> RefBreakResult:
    """Delete edges until acyclic, most-contested first.

    Normally cycle frequencies are recomputed after each removal; greedy
    mode keeps the frequencies from the first enumeration (cheaper, can
    remove more edges than needed).  Ties prefer weak edges, then sources
    shedding the least net out-degree, then lexicographic order.
    """
    cur = graph
    removed: list[Edge] = []
    ledgers: list[CycleLedger] = []

    def pick(freq: dict[Edge, int], edges) -> Edge:
        out_deg: dict[str, int] = {}
        in_deg: dict[str, int] = {}
        for e in edges:
            out_deg[e.src] = out_deg.get(e.src, 0) + 1
            in_deg[e.dst] = in_deg.get(e.dst, 0) + 1
        return min(
            (e for e in freq),
            key=lambda e: (
                -freq[e],
                0 if e.strength == WEAK else 1,
                out_deg.get(e.src, 0) - in_deg.get(e.src, 0),
                e,
            ),
        )

    if greedy:
        ledger = ref_enumerate_cycles(cur, cap)
        ledgers.append(ledger)
        freq: dict[Edge, int] = {}
        for c in ledger.cycles:
            for e in c.edges:
                freq[e] = freq.get(e, 0) + 1
        while topo_order(cur.vertices, cur.edges) is None:
            live = {e: f for e, f in freq.items() if e in cur.edges}
            if not live:
                # stale frequencies exhausted (truncation); fall back
                rest = ref_break_cycles(cur, cap, greedy=False)
                return RefBreakResult(
                    rest.graph,
                    tuple(removed) + rest.removed,
                    tuple(ledgers) + rest.ledgers,
                )
            e = pick(live, cur.edges)
            cur = without_edge(cur, e)
            removed.append(e)
        return RefBreakResult(cur, tuple(removed), tuple(ledgers))

    while True:
        ledger = ref_enumerate_cycles(cur, cap)
        ledgers.append(ledger)
        if not ledger.cycles:
            if topo_order(cur.vertices, cur.edges) is None:
                raise RuntimeError("cycle enumeration missed a cycle")
            return RefBreakResult(cur, tuple(removed), tuple(ledgers))
        freq = {}
        for c in ledger.cycles:
            for e in c.edges:
                freq[e] = freq.get(e, 0) + 1
        e = pick(freq, cur.edges)
        cur = without_edge(cur, e)
        removed.append(e)


# -- inputs -----------------------------------------------------------------

CAPS = (3, 10, 50, 10000)


def random_digraph(rng: random.Random) -> DependencyGraph:
    """2-9 vertices named so string order differs from numeric order, given
    in shuffled order; weak, strong and parallel weak+strong edges, edges
    listed in a shuffled order."""
    n = rng.randint(2, 9)
    verts = [f"o{i}" for i in rng.sample(range(1, 16), n)]
    rng.shuffle(verts)
    p = rng.choice((0.15, 0.25, 0.35, 0.5))
    edges = []
    for a in verts:
        for b in verts:
            if a == b or rng.random() >= p:
                continue
            r = rng.random()
            if r < 0.2:
                edges += [Edge(a, b, WEAK), Edge(a, b, STRONG)]
            else:
                edges.append(Edge(a, b, WEAK if r < 0.6 else STRONG))
    if rng.random() < 0.5:
        edges.sort()
    else:
        rng.shuffle(edges)
    return DependencyGraph(tuple(verts), tuple(edges))


def looped_digraph(rng: random.Random) -> DependencyGraph:
    """1-8 vertices in shuffled order, with self-loops and parallel pairs."""
    n = rng.randint(1, 8)
    verts = [f"v{i}" for i in rng.sample(range(10, 30), n)]
    rng.shuffle(verts)
    p = rng.choice((0.2, 0.35, 0.5))
    edges = []
    for a in verts:
        for b in verts:
            if rng.random() >= (0.3 if a == b else p):
                continue
            edges.append(Edge(a, b, WEAK))
            if rng.random() < 0.3:
                edges.append(Edge(a, b, STRONG))
    rng.shuffle(edges)
    return DependencyGraph(tuple(verts), tuple(edges))


def complete_digraph(n: int) -> DependencyGraph:
    verts = tuple(f"v{i}" for i in range(n))
    return DependencyGraph(verts, tuple(Edge(a, b, WEAK) for a in verts for b in verts if a != b))


# -- agreement --------------------------------------------------------------


def ref_pair_counts(graph: DependencyGraph, cap: int = 10000) -> Counter:
    """The reference's first cap cycles (the first one for cap <= 0),
    counted per vertex pair."""
    return Counter(
        pair for c in ref_enumerate_cycles(graph, cap).cycles for pair in cycle_pairs(c.vertices)
    )


ALL_CAPS = (0, 1) + CAPS


@pytest.mark.parametrize("seed", range(4))
def test_enumeration_agrees_exactly(seed):
    rng = random.Random(7100 + seed)
    for _ in range(60):
        g = random_digraph(rng)
        for cap in ALL_CAPS:
            assert pair_counts(g, cap) == ref_pair_counts(g, cap)


@pytest.mark.parametrize("seed", range(4))
def test_looped_counts_agree_exactly(seed):
    # self-loops are one-vertex cycles on the pair (v, v)
    rng = random.Random(7200 + seed)
    for _ in range(60):
        g = looped_digraph(rng)
        for cap in ALL_CAPS:
            assert pair_counts(g, cap) == ref_pair_counts(g, cap)


@pytest.mark.parametrize("greedy", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_break_cycles_agrees_exactly(seed, greedy):
    rng = random.Random(7300 + seed)
    for _ in range(40):
        g = random_digraph(rng)
        for cap in CAPS:
            got = break_cycles(g, cap, greedy=greedy)
            want = ref_break_cycles(g, cap, greedy=greedy)
            assert got.removed == want.removed
            assert got.graph.edges == want.graph.edges
            assert got.graph.vertices == g.vertices


def test_dense_graphs_agree_under_truncation():
    # complete digraphs hold far more cycles than the caps, so every cap cuts
    # the list and the cut must fall on the same cycle
    for n in (5, 6, 7):
        g = complete_digraph(n)
        for cap in ALL_CAPS + (400,):
            assert pair_counts(g, cap) == ref_pair_counts(g, cap)
            for greedy in (False, True):
                got = break_cycles(g, cap, greedy=greedy)
                want = ref_break_cycles(g, cap, greedy=greedy)
                assert (got.removed, got.graph.edges) == (want.removed, want.graph.edges)
    # every cap up to 120 cuts K7's list at a cycle closed deep in the
    # search, with several pairs still on the path
    g = complete_digraph(7)
    for cap in range(120):
        assert pair_counts(g, cap) == ref_pair_counts(g, cap)


# -- enumeration count ------------------------------------------------------


def _count_enumerations(monkeypatch) -> list[int]:
    calls = [0]
    inner = sequencer._pair_counts

    def spy(adj, starts, cap):
        calls[0] += 1
        return inner(adj, starts, cap)

    monkeypatch.setattr(sequencer, "_pair_counts", spy)
    return calls


@pytest.mark.parametrize("cap", [10000, 10])
def test_every_removal_is_followed_by_one_enumeration(monkeypatch, cap):
    g = complete_digraph(5)   # 84 cycles
    want = ref_break_cycles(g, cap)
    assert len(want.removed) >= 4
    calls = _count_enumerations(monkeypatch)
    got = break_cycles(g, cap)
    assert got.removed == want.removed
    assert calls[0] == len(got.removed) + 1


def test_truncated_enumeration_is_repeated(monkeypatch):
    g = complete_digraph(5)
    want = ref_break_cycles(g, cap=10)
    assert want.ledgers[0].truncated
    calls = _count_enumerations(monkeypatch)
    got = break_cycles(g, cap=10)
    assert calls[0] > 1
    assert got.removed == want.removed


def test_parallel_twin_removal_is_followed_by_one_enumeration(monkeypatch):
    # removing one of two parallel edges leaves the pair and every cycle in
    # place; the live graph is still enumerated again
    verts = ("a", "b", "c")
    g = DependencyGraph(verts, (
        Edge("a", "b", STRONG), Edge("a", "b", WEAK),
        Edge("b", "a", STRONG), Edge("b", "c", STRONG), Edge("c", "a", STRONG),
    ))
    want = ref_break_cycles(g, cap=1)
    calls = _count_enumerations(monkeypatch)
    got = break_cycles(g, cap=1)
    assert got.removed == want.removed
    assert got.removed[0] == Edge("a", "b", WEAK)
    assert calls[0] == len(got.removed) + 1 == len(want.ledgers)


# -- against brute force ----------------------------------------------------


def brute_force_cycles(n: int, pairs) -> set[tuple[int, ...]]:
    """Every simple cycle as its vertex tuple, lowest vertex first."""
    out = set()
    for k in range(1, n + 1):
        for perm in itertools.permutations(range(n), k):
            if perm[0] == min(perm) and all(
                perm[i] * n + perm[(i + 1) % k] in pairs for i in range(k)
            ):
                out.add(perm)
    return out


@pytest.mark.parametrize("seed", range(6))
def test_simple_cycles_are_simple_real_and_start_lowest(seed):
    # with the cap above the cycle count, the counter counts every simple
    # cycle over real edges exactly once: its counts are brute force's
    rng = random.Random(9400 + seed)
    checked = 0
    for _ in range(40):
        g = looped_digraph(rng)
        names, rank, pairs = sequencer._ranked_pairs(g)
        n = len(names)
        if n > 6:
            continue
        cycles = brute_force_cycles(n, pairs)
        want = Counter(
            (names[a], names[b]) for c in cycles for a, b in cycle_pairs(c)
        )
        assert pair_counts(g, len(cycles) + 1) == want
        checked += 1
    assert checked >= 20


# -- against the explicit-stack counter -------------------------------------


def ref_stack_pair_counts(adj: list[list[int]], starts, cap: int) -> list[int]:
    """The counter as an explicit-stack Johnson search: one list entry per
    path vertex for the vertex, the cycle total when it was entered and its
    successor iterator, and a thaw loop for Johnson's UNBLOCK."""
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


@pytest.fixture
def stack_checked(monkeypatch) -> list[int]:
    """Check every _pair_counts call against ref_stack_pair_counts on the
    same arguments, and that the recursion limit reads as before the call;
    yields the list of the caps called with."""
    caps: list[int] = []
    inner = sequencer._pair_counts

    def spy(adj, starts, cap):
        want = ref_stack_pair_counts(adj, starts, cap)
        before = sys.getrecursionlimit()
        got = inner(adj, starts, cap)
        assert sys.getrecursionlimit() == before
        assert got == want
        caps.append(cap)
        return got

    monkeypatch.setattr(sequencer, "_pair_counts", spy)
    return caps


def benchmark_graph(name: str, seed: int) -> DependencyGraph:
    """The dependency graph the sequence benchmark breaks for one scene:
    built with the arguments plan_rearrangement passes."""
    scene = bench.make_scene(name, seed)
    cfg = PlannerConfig().merged({"seed": seed}, "test")
    spec = GridSpec.from_scene(scene, cfg.grid_n)
    tol = default_tolerance(scene)
    unplaced = tuple(sorted(set(scene.goals) - verify_placements(scene, tol)))
    return sequencer.build_dependency_graph(
        scene, unplaced=unplaced, tol=tol, seed=cfg.seed, spec=spec,
        rrt_max_iters=cfg.rrt_max_iters,
    )


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("name", ["m_block_20", "m_block_24"])
def test_benchmark_enumerations_match_the_stack_counter(stack_checked, name, seed):
    g = benchmark_graph(name, seed)
    cap = PlannerConfig().cycle_cap
    broke = break_cycles(g, cap)
    assert stack_checked == [cap] * (len(broke.removed) + 1)


def test_cap_deep_in_the_search_matches_the_stack_counter(stack_checked):
    # K8 holds 16,064 cycles, and every cap here cuts the list with vertex
    # pairs still on the search path (for caps 1-7, the cap-th cycle is
    # the first one cap + 1 vertices long)
    g = complete_digraph(8)
    for cap in range(301):
        pair_counts(g, cap)
    assert stack_checked == list(range(301))


def ring(n: int) -> DependencyGraph:
    verts = tuple(f"v{i:06d}" for i in range(n))
    return DependencyGraph(
        verts, tuple(Edge(verts[i], verts[(i + 1) % n], WEAK) for i in range(n))
    )


def test_ring_longer_than_the_recursion_limit(stack_checked):
    # one cycle through every vertex: the search is n frames deep
    limit = sys.getrecursionlimit()
    n = limit + 200
    g = ring(n)
    counts = pair_counts(g, 1)   # ends at the cap, with the whole ring on the path
    assert sys.getrecursionlimit() == limit
    assert counts == {(e.src, e.dst): 1 for e in g.edges}
    broke = break_cycles(g)
    assert sys.getrecursionlimit() == limit
    assert broke.removed == (Edge("v000000", "v000001", WEAK),)
    assert stack_checked == [1, 10000, 10000]


# -- UNBLOCK and the B-lists ------------------------------------------------


def unblock_profile(graph: DependencyGraph) -> tuple[int, int]:
    """Johnson's search on graph, uncapped, run for its UNBLOCK calls only:
    how many vertices that found a cycle had a non-empty B-list, and the
    longest chain of non-empty B-lists one unblocking passed through."""
    names, rank, pairs = sequencer._ranked_pairs(graph)
    n = len(names)
    adj = sequencer._adjacency(n, pairs)
    readers = deepest = 0
    for s in (rank[v] for v in graph.vertices):
        blocked = [v <= s for v in range(n)]
        waiting: list[list[int]] = [[] for _ in range(n)]

        def unblock(u: int) -> int:
            blocked[u] = False
            below = 0
            for w in waiting[u]:
                if blocked[w]:
                    below = max(below, unblock(w))
            depth = below + bool(waiting[u])
            waiting[u].clear()
            return depth

        def visit(v: int) -> bool:
            nonlocal readers, deepest
            blocked[v] = True
            found = False
            for w in adj[v]:
                if w == s:
                    found = True
                elif not blocked[w] and visit(w):
                    found = True
            if found:
                readers += bool(waiting[v])
                deepest = max(deepest, unblock(v))
            else:
                for w in adj[v]:
                    waiting[w].append(v)
            return found

        visit(s)
    return readers, deepest


def cascade_digraph(depth: int, branches: int, cross: bool = False) -> DependencyGraph:
    """a <-> b, and per branch i a chain b -> c{i}_1 -> ... -> c{i}_depth -> b
    that a enters at c{i}_1 too.  From start a, b closes its 2-cycle first,
    then walks each chain to a dead end at b (on the path), so each chain
    vertex waits in the B-list of the next one and the last in b's.  Only
    once b's UNBLOCK has thawed every chain from its end can a walk them
    to cycles through b.  cross adds c{i}_j -> c{i+1}_j, so a vertex waits
    in several B-lists and the chains thaw each other."""
    chains = [[f"c{i}_{j}" for j in range(1, depth + 1)] for i in range(branches)]
    edges = [Edge("a", "b", WEAK), Edge("b", "a", WEAK)]
    for chain in chains:
        hops = ["b", *chain, "b"]
        edges += [Edge(x, y, WEAK) for x, y in zip(hops, hops[1:])]
        edges.append(Edge("a", chain[0], STRONG))
    if cross:
        for upper, lower in zip(chains, chains[1:]):
            edges += [Edge(x, y, WEAK) for x, y in zip(upper, lower)]
    verts = ("a", "b", *(v for chain in chains for v in chain))
    return DependencyGraph(verts, tuple(edges))


def wheel(n: int) -> DependencyGraph:
    """Hub h and a ring of n spokes, each spoke with an edge back to h."""
    spokes = [f"s{i}" for i in range(n)]
    edges = [Edge("h", x, WEAK) for x in spokes] + [Edge(x, "h", WEAK) for x in spokes]
    edges += [Edge(x, y, WEAK) for x, y in zip(spokes, spokes[1:] + spokes[:1])]
    return DependencyGraph(("h", *spokes), tuple(edges))


CASCADES = [(d, b, x) for d in (1, 2, 3, 5) for b in (1, 2, 3) for x in (False, True) if b > 1 or not x]
NO_B_LISTS = {
    **{f"K{n}": complete_digraph(n) for n in (2, 3, 4, 5, 6)},
    **{f"ring{n}": ring(n) for n in (2, 3, 7)},
    **{f"wheel{n}": wheel(n) for n in (3, 5)},
}


def assert_every_cap_matches(g: DependencyGraph, stack_checked) -> None:
    """_pair_counts on g at every cap from 0 to one past its cycle count:
    the stack counter's lists (checked by the spy) and the reference's."""
    total = len(ref_enumerate_cycles(g, 10**9).cycles)
    for cap in range(total + 2):
        assert pair_counts(g, cap) == ref_pair_counts(g, cap)
    assert stack_checked == list(range(total + 2))


@pytest.mark.parametrize("depth,branches,cross", CASCADES)
def test_unblocking_cascades_through_b_lists(stack_checked, depth, branches, cross):
    g = cascade_digraph(depth, branches, cross)
    readers, deepest = unblock_profile(g)
    # b's unblocking passes through b's B-list and every chain vertex's but
    # the first
    assert readers >= 1 and deepest >= depth
    assert_every_cap_matches(g, stack_checked)


@pytest.mark.parametrize("name", sorted(NO_B_LISTS))
def test_unblocking_with_every_b_list_empty(stack_checked, name):
    g = NO_B_LISTS[name]
    assert unblock_profile(g) == (0, 0)
    assert_every_cap_matches(g, stack_checked)
