"""Rearrangement planning for rectangular objects in a planar workspace.

A mobile square robot picks objects by attaching flush to one face and
places them by releasing; the package plans which object to move when,
where to park the ones that are in the way, and the collision-free paths
that execute it all.
"""

from .world import (
    Body,
    Pose2,
    Rect,
    Scene,
    SceneError,
    collides,
    default_tolerance,
    rect_at,
    verify_placements,
)
from .grids import (
    GridSpec,
    edt,
    rasterize_gom,
    reachability,
)
from .motion import (
    MotionPlan,
    Path,
    PickPlacePair,
    Subgoal,
    birrt,
    plan_object_path,
    plan_pick_place,
    refine_subgoals,
    select_subgoals,
    solve_pick_config,
)
from .sequencer import (
    CostMatrix,
    DependencyGraph,
    PlacementSequence,
    break_cycles,
    build_dependency_graph,
    lazy_refine,
    solve_patsp,
)
from .guided_search import (
    RelocationSearchResult,
    TaskTrajectory,
    find_colliding,
    gen_relocation_points,
    search_relocations,
    select_critical,
)
from .planner import (
    ConfigError,
    Metrics,
    PlannerConfig,
    PlanResult,
    count_metrics,
    gen_motion_plan,
    plan_rearrangement,
    replay_plans,
    serialize_result,
)
from .scenario import ScenarioError, load_scene, parse_scene, save_scene, scene_to_json
from .bench import gen_m_block, make_scene, run_suite
from .render import render_svg, save_svg

__version__ = "0.1.0"

__all__ = [
    "Body",
    "Pose2",
    "Rect",
    "Scene",
    "SceneError",
    "collides",
    "default_tolerance",
    "rect_at",
    "verify_placements",
    "GridSpec",
    "edt",
    "rasterize_gom",
    "reachability",
    "MotionPlan",
    "Path",
    "PickPlacePair",
    "Subgoal",
    "birrt",
    "plan_object_path",
    "plan_pick_place",
    "refine_subgoals",
    "select_subgoals",
    "solve_pick_config",
    "CostMatrix",
    "DependencyGraph",
    "PlacementSequence",
    "break_cycles",
    "build_dependency_graph",
    "lazy_refine",
    "solve_patsp",
    "RelocationSearchResult",
    "TaskTrajectory",
    "find_colliding",
    "gen_relocation_points",
    "search_relocations",
    "select_critical",
    "ConfigError",
    "Metrics",
    "PlannerConfig",
    "PlanResult",
    "count_metrics",
    "gen_motion_plan",
    "plan_rearrangement",
    "replay_plans",
    "serialize_result",
    "ScenarioError",
    "load_scene",
    "parse_scene",
    "save_scene",
    "scene_to_json",
    "gen_m_block",
    "make_scene",
    "run_suite",
    "render_svg",
    "save_svg",
    "__version__",
]
