"""Tests for the benchmark itself: python3 -m pytest perfbench"""
from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from speed import Sampler  # noqa: E402
from tracer import Tracer  # noqa: E402

# One cheap instance per workload, for smoke runs.
CHEAP = {
    "desk": ("swap_pocket", 0),
    "relocation": ("doorway", 1),
    "scale": ("m_block_12", 2),
    "sequence": ("m_block_20", 0),
}


def _aliases(originals):
    """(module name, attribute) -> traced name, for every alias in the package."""
    by_id = {id(fn): name for name, fn in originals.items()}
    out = {}
    for modname, mod in sys.modules.items():
        if mod is None or not modname.startswith("rearrange2d"):
            continue
        for attr, val in vars(mod).items():
            if id(val) in by_id:
                out[(modname, attr)] = by_id[id(val)]
    return out


def test_every_alias_is_wrapped_and_restored():
    tracer = Tracer()
    originals = tracer.originals()
    aliases = _aliases(originals)
    for must in (
        ("rearrange2d.motion", "footprint_collides"),
        ("rearrange2d.planner", "search_relocations"),
        ("rearrange2d.guided_search", "solve_pick_config"),
        ("rearrange2d", "birrt"),
    ):
        assert must in aliases
    with tracer:
        for (modname, attr), name in aliases.items():
            val = getattr(sys.modules[modname], attr)
            assert val is not originals[name], (modname, attr)
            assert val.__wrapped__ is originals[name]
        assert not _aliases(originals)
    for (modname, attr), name in aliases.items():
        assert getattr(sys.modules[modname], attr) is originals[name]


def _ops(name, instances):
    return [op for op in workloads.build(name, 0) if (op.scenario, op.seed) in instances]


@pytest.mark.parametrize("name, instances", [
    ("desk", {("swap_pocket", 0), ("m_block_4", 0)}),
    ("sequence", {("m_block_20", 0)}),
])
def test_self_times_within_each_op_sum_to_at_most_its_wall(name, instances):
    kind = workloads.WORKLOADS[name].kind
    tracer = Tracer()
    with tracer:
        outcomes = [workloads.run_op(kind, op, tracer) for op in _ops(name, instances)]
    assert all(not o.problems for o in outcomes)
    for o in outcomes:
        stats = tracer.op_stats[o.op_id]
        assert stats, o.op_id
        self_sum = sum(st.self_s for st in stats.values())
        assert 0 < self_sum <= tracer.op_wall[o.op_id] == o.wall_s
        for st in stats.values():
            assert 0 <= st.self_s <= st.incl_s + 1e-12
    for sid, (fn, start, end, parent, op) in enumerate(tracer.spans):
        assert start <= end
        if parent >= 0:
            p = tracer.spans[parent]
            assert parent < sid and p[4] == op and p[1] <= start and end <= p[2]


def test_sampler_subtracts_its_time_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = Sampler()
    sampler.begin_op()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.2:
        pass
    wall = time.perf_counter() - t0
    sampler.end_op(wall)
    assert len(sampler.samples) > 10
    assert 0 < sampler.busy_s < wall and sampler.ref_s > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_same_workload_seed_gives_same_inputs():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 11), workloads.build(name, 11)
        assert [op.op_id for op in a] == [op.op_id for op in b]
        assert all(x.scene == y.scene and x.cfg == y.cfg for x, y in zip(a, b))
        other = workloads.build(name, 12)
        assert sorted(op.op_id for op in other) == sorted(op.op_id for op in a)


def test_known_failing_instances_stay_in_scale():
    assert {("m_block_16", 3), ("m_block_16", 4)} <= set(workloads.WORKLOADS["scale"].instances)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(CHEAP))
def test_smoke_run(name, trace, monkeypatch, capsys):
    kind = workloads.WORKLOADS[name].kind
    monkeypatch.setitem(workloads.WORKLOADS, name, workloads.Workload(kind, (CHEAP[name],)))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "OUT", HERE / "out" / "test")
    (HERE / "out" / "test").mkdir(parents=True, exist_ok=True)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    expected = run.E2E if trace == 0 else run.PER_LAYER_JSON
    assert set(result["metrics"]) == set(expected)
    assert any(ln.startswith("digest sha256:") for ln in lines)
    assert any(ln.startswith("env python=") for ln in lines)


def test_metric_lists_match_benchmark_json():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in manifest["end_to_end"]] == list(run.E2E)
    assert [m["name"] for m in manifest["per_layer"]] == list(run.PER_LAYER_JSON)
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
