"""Command line interface.

Verbs: plan a scenario file, bench a suite to CSV, gen an instance,
render a scenario to SVG.  Exit codes: 0 on success, 1 when planning
finishes without reaching the goal state, 2 on bad input.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import bench, render, scenario
from .planner import ConfigError, PlannerConfig, parse_overrides, plan_rearrangement, serialize_result
from .scenario import ScenarioError


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    p.add_argument("--seed", type=int, help="planner seed (shorthand for --set seed=...)")


def _build_config(args) -> PlannerConfig:
    items = []
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        items.append((key.strip(), raw, f"--set {item}"))
    cli = parse_overrides(items)
    if args.seed is not None:
        cli["seed"] = args.seed
    return PlannerConfig.from_layers(file=args.config, cli=cli)


def _cmd_plan(args) -> int:
    scene = scenario.load_scene(args.scenario)
    cfg = _build_config(args)
    result = plan_rearrangement(scene, cfg)
    payload = serialize_result(result)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.svg:
        render.save_svg(result.scene, args.svg, result.plans)
    m = result.metrics
    print(
        f"{result.status}: pnp={m.pnp} replanning={m.replanning} "
        f"travel={m.travel_distance:.2f}m wall={m.wall_time:.1f}s",
        file=sys.stderr,
    )
    if result.reason is not None:
        print(f"reason: {result.reason}", file=sys.stderr)
    return 0 if result.status == "success" else 1


def _cmd_bench(args) -> int:
    if args.suite in bench.SUITES:
        names = bench.SUITES[args.suite]
    else:
        names = tuple(s.strip() for s in args.suite.split(",") if s.strip())
    if not names:
        raise bench.BenchError(f"suite {args.suite!r} names no scenario")
    if args.seeds < 1:
        raise bench.BenchError(f"--seeds must be at least 1, got {args.seeds}")
    seeds = range(args.seeds)
    cfg = _build_config(args)

    def progress(name, seed, status, dt):
        print(f"{name} seed={seed}: {status} ({dt:.1f}s)", file=sys.stderr)

    rows = bench.run_suite(names, seeds, cfg, progress=progress)
    if args.out:
        bench.write_csv(rows, args.out)
    else:
        sys.stdout.write(bench.rows_to_csv(rows))
    bad = sum(1 for r in rows if r.result.status != "success")
    return 0 if bad == 0 else 1


def _cmd_gen(args) -> int:
    scene = bench.make_scene(args.kind, args.seed)
    text = scenario.scene_to_json(scene)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_render(args) -> int:
    scene = scenario.load_scene(args.scenario)
    render.save_svg(scene, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rearrange2d",
        description="Plan rearrangements of rectangular objects in a planar workspace.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="plan one scenario file")
    p_plan.add_argument("scenario", help="scenario JSON file")
    p_plan.add_argument("--out", help="write the result JSON here instead of stdout")
    p_plan.add_argument("--svg", help="also render the final scene to this SVG file")
    _add_config_args(p_plan)
    p_plan.set_defaults(fn=_cmd_plan)

    p_bench = sub.add_parser("bench", help="run a scenario suite")
    p_bench.add_argument("--suite", default="desk", help="suite name or comma-separated scenarios")
    p_bench.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1 per scenario")
    p_bench.add_argument("--out", help="CSV output path (default stdout)")
    _add_config_args(p_bench)
    p_bench.set_defaults(fn=_cmd_bench)

    p_gen = sub.add_parser("gen", help="generate a scenario file")
    p_gen.add_argument("kind", help="a built-in scenario name or m_block_<M>")
    p_gen.add_argument("--seed", type=int, default=0, help="m_block_<M> generator seed; built-in scenes ignore it")
    p_gen.add_argument("--out", help="output path (default stdout)")
    p_gen.set_defaults(fn=_cmd_gen)

    p_render = sub.add_parser("render", help="render a scenario to SVG")
    p_render.add_argument("scenario", help="scenario JSON file")
    p_render.add_argument("--out", required=True, help="SVG output path")
    p_render.set_defaults(fn=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    # a path that cannot be read or written is bad input too
    except (ScenarioError, ConfigError, bench.BenchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
