"""The scale ladder: m_block scenes at seeds 0-29, every run replayed.

Each rung plans ``m_block_<M>`` at seeds 0-29 (``SEEDS``) with the seed as
the planner seed, as ``rearrange2d bench`` does.  Every run must replay cleanly, its
replayed final poses must equal the result's, and a success must leave
every goal object on its goal.  Only the seeds named in ``OPEN_DEFECTS``
may fail: each one is a known failure still to be fixed, and it stays on
the ladder.  Every failure must carry a reason (``PlanResult.reason``)
that names one of the scene's goal objects; the script prints each
failing seed's reason under its rung.

Tier-1 climbs the M = 16 rung at seeds 0-9 (``TIER1_SEEDS``, a few
seconds) but checks no digest.  The script climbs every seed, checks each
rung's results against a pinned digest, and CI runs it on every rung; on
Python 3.11 the four rungs take about 2, 5, 9 and 47 s of CPU (M = 16,
20, 24 and 32):

    PYTHONPATH=src python tests/test_scale_ladder.py 16 20 24 32

Each rung's summary line ends with the CPU seconds (``time.process_time``)
the rung took, so the CI log records what every rung costs.  The figure is
reported, never checked: it follows the machine.

M = 32 is also the largest sequence the planner's local search meets (up
to 32 goal objects), so its pin guards that search's answers too.
"""
import hashlib
import json
import re
import sys
import time

from rearrange2d import planner
from rearrange2d.bench import make_scene
from rearrange2d.world import default_tolerance, verify_placements

SEEDS = range(30)
TIER1_SEEDS = range(10)
# seeds at which each rung still fails; m_block_32 seed 14 succeeded while
# a failed leg was served through its last side only, and has ended at the
# relocation loop guard on o19 since every side's failure is served
OPEN_DEFECTS = {
    16: set(),
    20: set(),
    24: {10},
    32: {11, 14, 18, 29},
}
# SHA-256 of a rung's serialize_result JSON (sorted keys), one line per
# seed in seed order; taken on Python 3.11
DIGESTS = {
    16: "d967de92e1ee5636e8860cf0b68be1f420a94c9c1c9b706d81b4ed8ae9416e1d",
    20: "406bdeb1eb3e711f61196061fbbaf0f7611dbda64148b8639c707e01cbf549b8",
    24: "4b66ff18aa8c3c9113ee0c4914f04cabd90e79335b43916f7704c07d3fde1d7d",
    32: "ca2cc6ed82efc038de6eb4aaff3410c5a9a237e071d1c442b8876a9237b8ede3",
}


def _poses(scene):
    return {b.id: (b.pose.x, b.pose.y) for b in scene.bodies}


def names_an_object(reason, scene) -> bool:
    return reason is not None and any(re.search(rf"\b{re.escape(o)}\b", reason) for o in scene.goals)


def climb(m: int, seeds=SEEDS) -> tuple[list[str], dict[int, str], str]:
    """Plan one rung at seeds: the problems found, each failing seed's
    reason and the digest."""
    problems = []
    failed = {}
    lines = []
    for s in seeds:
        scene = make_scene(f"m_block_{m}", s)
        result = planner.plan_rearrangement(scene, planner.PlannerConfig(seed=s))
        bad, final = planner.replay_plans(scene, result.plans)
        problems += [f"m_block_{m}@{s}: {b}" for b in bad]
        if _poses(final) != _poses(result.scene):
            problems.append(f"m_block_{m}@{s}: replayed final poses differ from the result's")
        if result.status != "success":
            failed[s] = result.reason
            if not names_an_object(result.reason, scene):
                problems.append(f"m_block_{m}@{s}: {result.status} with reason {result.reason!r}, which names no object")
        elif not set(scene.goals) <= verify_placements(final, default_tolerance(scene)):
            problems.append(f"m_block_{m}@{s}: success with a goal object off its goal")
        lines.append(json.dumps(planner.serialize_result(result), sort_keys=True))
    if not failed.keys() <= OPEN_DEFECTS[m]:
        problems.append(f"m_block_{m}: seeds {sorted(failed.keys() - OPEN_DEFECTS[m])} fail, not open defects")
    return problems, failed, hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_m_block_16():
    problems, failed, _ = climb(16, TIER1_SEEDS)
    assert problems == []
    assert len(TIER1_SEEDS) - len(failed) >= 9


if __name__ == "__main__":
    status = 0
    for m in map(int, sys.argv[1:]):
        cpu = time.process_time()
        problems, failed, digest = climb(m)
        cpu = time.process_time() - cpu
        if digest != DIGESTS[m]:
            problems.append(f"m_block_{m}: digest {digest}, pinned {DIGESTS[m]}")
        ok = len(SEEDS) - len(failed)
        print(
            f"m_block_{m}: {ok}/{len(SEEDS)} succeed, failing seeds {sorted(failed)}, digest {digest}, "
            f"{cpu:.1f} s CPU"
        )
        for s, reason in sorted(failed.items()):
            print(f"  seed {s}: {reason}")
        for p in problems:
            print(f"  {p}")
        status |= bool(problems)
    sys.exit(status)
