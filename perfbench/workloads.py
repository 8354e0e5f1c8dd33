"""Workload definitions, op execution and result checks for the benchmark.

Every workload is a fixed list of (scenario, scene seed) instances; the
planner seed of an instance is its scene seed, as in ``rearrange2d bench``.
The workload seed orders the instances within a pass.  Scene geometry is
not drawn from the workload seed because per-instance cost varies up to
fifty-fold across scene seeds (m_block_24 sequencing takes 0.05 s to 3.3 s),
so a seed-dependent scene choice would make runs with different seeds
measure different amounts of work.  See README.md for why each workload
exists.
"""
from __future__ import annotations

import gc
import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Import rearrange2d from this checkout's src/, never from elsewhere."""
    init = SRC / "rearrange2d" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"rearrange2d sources not found at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rearrange2d

    if Path(rearrange2d.__file__).resolve() != init.resolve():
        raise ImportError(f"rearrange2d imported from {rearrange2d.__file__}, not {init}")
    return rearrange2d


import_package()

from rearrange2d import planner, sequencer  # noqa: E402
from rearrange2d.bench import make_scene  # noqa: E402
from rearrange2d.grids import GridSpec  # noqa: E402
from rearrange2d.world import default_tolerance, verify_placements  # noqa: E402

PLAN = "plan"
SEQUENCE = "sequence"


@dataclass(frozen=True)
class Workload:
    kind: str                               # PLAN or SEQUENCE
    instances: tuple[tuple[str, int], ...]  # (scenario, scene seed)


def _grid(names, seeds) -> tuple[tuple[str, int], ...]:
    return tuple((n, s) for n in names for s in seeds)


DESK_SUITE = ("four_blocks", "narrow_room", "swap_pocket", "triple_swap",
              "m_block_2", "m_block_4", "m_block_8")
RELOCATION_SUITE = ("doorway", "nested_blockers", "swap_pocket")

WORKLOADS = {
    "desk": Workload(PLAN, _grid(DESK_SUITE, range(10))),
    "relocation": Workload(PLAN, _grid(RELOCATION_SUITE, range(10))),
    # m_block_16 seeds 3 and 4 end iter-exhausted at the seed commit; they
    # stay in (README.md, "Known failing instances").
    "scale": Workload(PLAN, _grid(("m_block_12", "m_block_16"), range(5))),
    "sequence": Workload(SEQUENCE, _grid(("m_block_20", "m_block_24"), range(8))),
}


@dataclass
class Op:
    op_id: str
    scenario: str
    seed: int
    scene: object
    cfg: object


def build(name: str, seed: int) -> list[Op]:
    """The workload's inputs for a workload seed, in the order a pass runs them."""
    wl = WORKLOADS[name]
    ops = []
    for scenario, s in wl.instances:
        cfg = planner.PlannerConfig().merged({"seed": s}, "benchmark")
        ops.append(Op(f"{scenario}@{s}", scenario, s, make_scene(scenario, s), cfg))
    random.Random(f"{name}:{seed}").shuffle(ops)
    return ops


@dataclass
class Outcome:
    """One op's timing, result summary and check verdict."""
    op_id: str
    wall_s: float
    verify_s: float = 0.0
    status: str = "error"
    problems: tuple[str, ...] = ()
    record: dict | None = None    # deterministic result, digested
    pnp: int = 0
    travel: float = 0.0
    placed: int = 0
    replanning: int = 0
    regenerations: int = 0
    order_cost: float = 0.0

    @property
    def check_failed(self) -> bool:
        return bool(self.problems)

    @property
    def op_failed(self) -> bool:
        """Failed in the sense of fail_rate: not a success, or a failed check."""
        return self.check_failed or self.status != "success"


def run_op(kind: str, op: Op, hook=None) -> Outcome:
    """Run one op timed, then check its result outside the timed region.

    A hook (a tracer or a speed sampler) sees only the timed region, through
    its begin_op(op_id) and end_op(wall_s).
    """
    fn = _plan if kind == PLAN else _sequence
    # Start every op from the same collector state, whatever ran before it:
    # collect, then freeze the survivors (modules, inputs, earlier results)
    # so the op's own collections scan only the objects it creates.
    gc.collect()
    gc.freeze()
    if hook is not None:
        hook.begin_op(op.op_id)
    t0 = time.perf_counter()
    try:
        res = fn(op)
    except Exception as e:  # a crashing op is a failed op; keep measuring
        res = e
    wall = time.perf_counter() - t0
    if hook is not None:
        hook.end_op(wall)
    if isinstance(res, Exception):
        return Outcome(op.op_id, wall, problems=(f"raised {type(res).__name__}: {res}",))
    check = _check_plan if kind == PLAN else _check_sequence
    return check(op, res, wall)


def _plan(op: Op):
    return planner.plan_rearrangement(op.scene, op.cfg)


def _check_plan(op: Op, result, wall: float) -> Outcome:
    t0 = time.perf_counter()
    bad, final = planner.replay_plans(op.scene, result.plans)
    verify = time.perf_counter() - t0
    problems = list(bad)
    poses = {b.id: (b.pose.x, b.pose.y) for b in result.scene.bodies}
    if poses != {b.id: (b.pose.x, b.pose.y) for b in final.bodies}:
        problems.append("replayed final poses differ from the reported scene")
    tol = op.cfg.tol if op.cfg.tol is not None else default_tolerance(op.scene)
    placed = verify_placements(final, tol)
    if result.status == "success" and placed != set(op.scene.goals):
        problems.append("success reported with goal objects off their goals")
    m = result.metrics
    return Outcome(
        op.op_id, wall, verify, result.status, tuple(problems),
        planner.serialize_result(result), m.pnp, m.travel_distance,
        len(placed & set(op.scene.goals)), m.replanning, result.regenerations,
    )


def _sequence(op: Op):
    """The sequence generation plan_rearrangement runs before planning."""
    scene, cfg = op.scene, op.cfg
    spec = GridSpec.from_scene(scene, cfg.grid_n)
    tol = default_tolerance(scene)
    unplaced = tuple(sorted(set(scene.goals) - verify_placements(scene, tol)))
    graph = sequencer.build_dependency_graph(
        scene, unplaced=unplaced, tol=tol, seed=cfg.seed, spec=spec,
        rrt_max_iters=cfg.rrt_max_iters,
    )
    broke = sequencer.break_cycles(graph, cfg.cycle_cap, greedy=cfg.greedy_cycles)
    precedence = [(e.src, e.dst) for e in broke.graph.edges]
    costs = sequencer.CostMatrix.euclidean(scene, broke.graph.vertices)
    seq, rounds = sequencer.lazy_refine(
        costs, scene, cfg.seed, precedence=precedence, rounds=cfg.lazy_rounds,
        spec=spec, caches=sequencer.SequencerCaches(), rrt_max_iters=cfg.rrt_max_iters,
    )
    return unplaced, broke, seq, rounds


def _check_sequence(op: Op, res, wall: float) -> Outcome:
    unplaced, broke, seq, rounds = res
    problems = []
    if sorted(seq.order) != list(unplaced):
        problems.append("order is not a permutation of the unplaced objects")
    pos = {o: k for k, o in enumerate(seq.order)}
    for e in broke.graph.edges:
        if pos.get(e.src, -1) >= pos.get(e.dst, -1):
            problems.append(f"order breaks precedence {e.src} -> {e.dst}")
    if not seq.cost < float("inf"):
        problems.append(f"order cost {seq.cost} is not finite")
    record = {
        "order": list(seq.order),
        "cost": seq.cost,
        "rounds": rounds,
        "removed": [[e.src, e.dst, e.strength] for e in broke.removed],
    }
    return Outcome(op.op_id, wall, 0.0, "success", tuple(problems), record,
                   order_cost=seq.cost)


def digest(outcomes) -> str:
    """SHA-256 over the ops' deterministic results, in op-id order."""
    h = hashlib.sha256()
    for o in sorted(outcomes, key=lambda o: o.op_id):
        line = json.dumps({"op": o.op_id, "result": o.record}, sort_keys=True)
        h.update(line.encode() + b"\n")
    return h.hexdigest()
