"""Benchmark for rearrange2d: one workload per run, result checks, optional trace.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  An op is one plan_rearrangement call,
or one sequence generation in the ``sequence`` workload; ops run one at a
time in this process (a closed loop with one client).  A pass runs every
op of the workload once.

--trace 0 repeats passes until --seconds is used up (at least one pass)
and reports the end-to-end metrics as medians over passes; the gated times
are given at a reference machine speed (speed.py).  --trace 1 runs
one untraced and one traced pass and reports per-layer metrics from the
traced one, with the tracing overhead.  Lines before the last one are a
readable report; the last line is the JSON result.  Every result is
replayed and checked; a failed check makes ``correct`` false and the exit
code 1.  Artefacts go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_PROBE_S, Sampler
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3

# End-to-end metrics in the result line of a --trace 0 run.  The report's
# other metrics are not gated: per-op medians jump between neighbouring ops
# from run to run, raw times follow the machine's speed, and the rest are
# missing from, zero on, or undefined for some workload (README.md).
E2E = ("setup_s", "wall_ref_s")

# Per-layer metrics, named "<traced function>.<stat>".  A stat is calls,
# self_s, incl_s, success_ratio, or a counter the tracer keeps; for
# grids.grid_path, "calls" counts only calls from inside birrt (fallbacks).
PER_LAYER = {
    "world.footprint_collides": ("calls", "self_s"),
    "world.segment_hits_rect": ("calls", "self_s"),
    "world.collides": ("calls", "self_s"),
    "grids.fit_mask": ("calls", "self_s"),
    "grids.reachability": ("self_s",),
    "grids.rasterize_gom": ("self_s",),
    "grids.edt": ("self_s",),
    "grids.grid_path": ("calls",),
    "motion.birrt": ("calls", "self_s", "success_ratio"),
    "motion.sweep_clear": ("calls", "self_s"),
    "motion.plan_pick_place": ("calls", "incl_s", "infeasible_legs"),
    "motion.select_subgoals": ("self_s",),
    "motion.refine_subgoals": ("self_s",),
    "motion.plan_object_path": ("calls", "incl_s"),
    "guided_search.search_relocations": ("calls", "incl_s", "self_s", "success_ratio",
                                         "iterations", "failed_plans"),
    "guided_search.plan_relocation": ("calls", "success_ratio"),
    "guided_search.select_critical": ("calls", "incl_s"),
    "guided_search.task_feasible": ("calls", "self_s"),
    "guided_search.find_colliding": ("calls", "self_s"),
    "guided_search.gen_relocation_points": ("calls", "self_s"),
    "sequencer.break_cycles": ("calls", "self_s", "removed_edges"),
    "sequencer.build_dependency_graph": ("calls", "self_s"),
    "sequencer.solve_patsp": ("calls", "self_s"),
    "sequencer.lazy_refine": ("calls", "self_s", "cache_hits", "cache_misses", "cache_failures"),
    "planner.gen_motion_plan": ("calls", "self_s", "success_ratio"),
}

# Times of functions the sequence workload never calls read 0.0 there on
# every run, so they appear in the report but not in the result line.
REPORT_ONLY = frozenset({
    "world.collides.self_s",
    "grids.fit_mask.self_s",
    "grids.reachability.self_s",
    "grids.rasterize_gom.self_s",
    "grids.edt.self_s",
    "motion.sweep_clear.self_s",
    "motion.plan_pick_place.incl_s",
    "motion.select_subgoals.self_s",
    "motion.refine_subgoals.self_s",
    "guided_search.search_relocations.incl_s",
    "guided_search.search_relocations.self_s",
    "guided_search.select_critical.incl_s",
    "guided_search.task_feasible.self_s",
    "guided_search.find_colliding.self_s",
    "guided_search.gen_relocation_points.self_s",
    "planner.gen_motion_plan.self_s",
})
PER_LAYER_JSON = tuple(
    f"{fn}.{stat}" for fn, stats in PER_LAYER.items() for stat in stats
    if f"{fn}.{stat}" not in REPORT_ONLY
) + ("planner.regenerations", "trace.overhead_s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import workloads
    except ImportError as e:
        print(f"benchmark: cannot import the program: {e}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    kind = workloads.WORKLOADS[args.workload].kind
    ops = workloads.build(args.workload, args.seed)
    env = environment()
    report = [f"rearrange2d benchmark: workload={args.workload} seed={args.seed} "
              f"trace={args.trace} ops/pass={len(ops)}",
              "env " + " ".join(f"{k}={json.dumps(v) if ' ' in str(v) else v}" for k, v in env.items())]

    if args.trace:
        metrics, passes, extra, detail = traced_run(workloads, kind, ops, args)
    else:
        metrics, passes, extra, detail = untraced_run(workloads, kind, ops, args)
    report += extra

    outcomes = [o for p in passes for o in p]
    digests = {workloads.digest(p) for p in passes}
    problems = [f"{o.op_id}: {msg}" for o in outcomes for msg in o.problems]
    if len(digests) > 1:
        problems.append(f"passes disagree: {len(digests)} distinct result digests")
    failed = sum(o.check_failed for o in outcomes)
    correct = not problems
    report.append(f"ops attempted={len(outcomes)} check_failed={failed} passes={len(passes)}")
    report.append(f"digest sha256:{sorted(digests)[0]}")
    report += [f"CHECK FAILED {p}" for p in problems[:20]]

    names = PER_LAYER_JSON if args.trace else E2E
    result = {"correct": correct, "attempted": len(outcomes), "failed": failed,
              "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "digest": sorted(digests)[0], "problems": problems, "report": report,
        "op_wall_s": [{o.op_id: o.wall_s for o in p} for p in passes],
        **detail,
        **result,
    }, indent=1) + "\n")
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0 if correct else 1


def untraced_run(workloads, kind, ops, args):
    setups = [setup_once(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    passes, refs = [], []
    t_start = time.perf_counter()
    while True:
        outcomes, ref = run_sampled_pass(workloads, kind, ops)
        passes.append(outcomes)
        refs.append(ref)
        used = time.perf_counter() - t_start
        if used + used / len(passes) > args.seconds:
            break
    walls = [sum(o.wall_s for o in p) for p in passes]
    samples = sorted(o.wall_s for p in passes for o in p)
    tail = tail_percentile(samples)
    first = passes[0]
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s", "at reference speed"),
        "wall_ref_s": (statistics.median(sum(r) for r in refs), "s", "at reference speed"),
        "setup_wall_s": (statistics.median(wall for wall, _ in setups), "s", ""),
        "wall_s": (statistics.median(walls), "s", ""),
        "op_s_p50": (statistics.median(samples), "s", ""),
        "op_s_tail": (tail[1], "s", f"p{tail[0]} of {len(samples)} samples") if tail else
                     (None, "s", f"undefined: {len(samples)} samples, needs 11"),
        "fail_rate": (sum(o.op_failed for o in first) / len(first), "1", ""),
    }
    if kind == workloads.PLAN:
        placed = sum(o.placed for o in first)
        metrics["verify_s"] = (statistics.median(sum(o.verify_s for o in p) for p in passes), "s", "")
        metrics["pnp_per_object"] = (sum(o.pnp for o in first) / placed if placed else None, "1", "")
        metrics["travel_m_per_object"] = (sum(o.travel for o in first) / placed if placed else None, "m", "")
        metrics["replanning"] = (sum(o.replanning for o in first), "count", "")
    else:
        metrics["order_cost"] = (sum(o.order_cost for o in first), "m", "")
    lines = [f"metric {k} {v} {u}{' (' + note + ')' if note else ''}" for k, (v, u, note) in metrics.items()]
    lines.append(f"setup samples (wall_s, ref_s) {setups}")
    lines.append(f"wall_s per pass {walls}")
    lines += [f"status {o.op_id} {o.status}" for o in sorted(first, key=lambda o: o.op_id)
              if o.status != "success"]
    return metrics, passes, lines, {"op_ref_s": refs}


def traced_run(workloads, kind, ops, args):
    plain = run_pass(workloads, kind, ops)
    tracer = Tracer()
    with tracer:
        traced = run_pass(workloads, kind, ops, tracer)
    totals = tracer.totals()
    metrics = {}
    for fn, stats in PER_LAYER.items():
        st = totals[fn]
        for stat in stats:
            if fn == "grids.grid_path":
                v, unit = st.extra.get("birrt_fallbacks", 0), "count"
            elif stat in ("self_s", "incl_s"):
                v, unit = getattr(st, stat), "s"
            elif stat == "success_ratio":
                v, unit = (st.extra.get("successes", 0) / st.calls if st.calls else 0.0), "ratio"
            else:
                v, unit = (st.calls if stat == "calls" else st.extra.get(stat, 0)), "count"
            metrics[f"{fn}.{stat}"] = (v, unit, "")
    metrics["planner.regenerations"] = (sum(o.regenerations for o in traced), "count", "")
    plain_wall = sum(o.wall_s for o in plain)
    traced_wall = sum(o.wall_s for o in traced)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s", "")
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(str(trace_path))
    lines = [f"metric {k} {v} {u}" for k, (v, u, _) in metrics.items()]
    lines.append(f"untraced wall_s {plain_wall} traced wall_s {traced_wall}")
    lines += [f"layer {n} calls={st.calls} incl_s={st.incl_s:.6f} self_s={st.self_s:.6f} {st.extra}"
              for n, st in sorted(totals.items())]
    lines.append(f"spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    return metrics, [plain, traced], lines, {}


def run_pass(workloads, kind, ops, tracer=None):
    return [workloads.run_op(kind, op, tracer) for op in ops]


def run_sampled_pass(workloads, kind, ops):
    """An untraced pass that samples machine speed during every op.

    Returns the outcomes, with the sampling time taken out of their wall
    times, and each op's time at reference speed (speed.py).
    """
    outcomes, ref = [], []
    sampler = Sampler()
    for op in ops:
        o = workloads.run_op(kind, op, sampler)
        o.wall_s -= sampler.busy_s
        outcomes.append(o)
        ref.append(sampler.ref_s)
    return outcomes, ref


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return int(100 * (n - 10) / n), samples[n - 11]


def setup_once(workload: str, seed: int) -> tuple[float, float]:
    """A fresh interpreter imports the package and builds the inputs.

    Returns its wall time and its time at reference speed, sampled in the
    child from before the package import.
    """
    code = (f"import sys, time; sys.path.insert(0, {str(HERE)!r}); import speed; "
            "s = speed.Sampler(); s.begin_op(); t0 = time.perf_counter(); "
            f"import workloads; workloads.build({workload!r}, {seed}); "
            "s.end_op(time.perf_counter() - t0); print(s.busy_s, s.samples)")
    t0 = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                           capture_output=True, text=True)
    wall = time.perf_counter() - t0
    busy, samples = child.stdout.split(" ", 1)
    speed = statistics.median(json.loads(samples))
    return wall, (wall - float(busy)) * REF_PROBE_S / speed


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        except OSError:
            r = None
        if r is not None and r.returncode == 0:
            commit = r.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


if __name__ == "__main__":
    sys.exit(main())
