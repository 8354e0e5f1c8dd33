"""Scenario file I/O.

A scenario is a JSON document with exactly these fields:

    workspace {xmin, ymin, xmax, ymax}
    walls     [{id?, w, h, x, y}, ...]
    movables  [{id, w, h, x, y, goal?: {x, y}}, ...]
    robot     {side, x, y}

Unknown fields are rejected so typos fail loudly instead of silently
changing the scene.  Numbers must be finite (JSON's NaN and Infinity
extensions are rejected), and the scene must pass Scene.validate():
every body and goal inside the workspace, no two non-robot bodies
overlapping.  The planner's seed is a config key, not part of a scenario.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from .world import (
    Body,
    KIND_GOAL,
    KIND_OBSTACLE,
    KIND_ROBOT,
    KIND_WALL,
    Pose2,
    Rect,
    Scene,
)


class ScenarioError(ValueError):
    """Malformed scenario document."""


def _require(obj: dict, ctx: str, required: tuple, optional: tuple = ()):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{ctx}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ScenarioError(f"{ctx}: unknown fields {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ScenarioError(f"{ctx}: missing fields {missing}")


def _num(obj: dict, ctx: str, key: str) -> float:
    v = obj[key]
    if not isinstance(v, bool) and isinstance(v, (int, float)):
        try:
            v = float(v)
        except OverflowError:  # an integer literal past the float range
            v = math.inf
        if math.isfinite(v):
            return v
    raise ScenarioError(f"{ctx}.{key}: expected a finite number")


def parse_scene(text: str) -> Scene:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"invalid JSON: {e}") from None
    _require(doc, "scenario", ("workspace", "walls", "movables", "robot"))

    ws = doc["workspace"]
    _require(ws, "workspace", ("xmin", "ymin", "xmax", "ymax"))
    workspace = Rect(*(_num(ws, "workspace", k) for k in ("xmin", "ymin", "xmax", "ymax")))
    if workspace.width <= 0 or workspace.height <= 0:
        raise ScenarioError("workspace: degenerate extent")

    bodies: list[Body] = []
    if not isinstance(doc["walls"], list):
        raise ScenarioError("walls: expected a list")
    for i, w in enumerate(doc["walls"]):
        ctx = f"walls[{i}]"
        _require(w, ctx, ("w", "h", "x", "y"), ("id",))
        wid = w.get("id", f"wall{i}")
        if not isinstance(wid, str):
            raise ScenarioError(f"{ctx}.id: expected a string")
        bodies.append(
            Body(wid, _num(w, ctx, "w"), _num(w, ctx, "h"), KIND_WALL, Pose2(_num(w, ctx, "x"), _num(w, ctx, "y")))
        )

    goals: dict[str, Pose2] = {}
    if not isinstance(doc["movables"], list):
        raise ScenarioError("movables: expected a list")
    for i, m in enumerate(doc["movables"]):
        ctx = f"movables[{i}]"
        _require(m, ctx, ("id", "w", "h", "x", "y"), ("goal",))
        mid = m["id"]
        if not isinstance(mid, str):
            raise ScenarioError(f"{ctx}.id: expected a string")
        kind = KIND_OBSTACLE
        if "goal" in m:
            g = m["goal"]
            _require(g, f"{ctx}.goal", ("x", "y"))
            goals[mid] = Pose2(_num(g, f"{ctx}.goal", "x"), _num(g, f"{ctx}.goal", "y"))
            kind = KIND_GOAL
        bodies.append(
            Body(mid, _num(m, ctx, "w"), _num(m, ctx, "h"), kind, Pose2(_num(m, ctx, "x"), _num(m, ctx, "y")))
        )

    r = doc["robot"]
    _require(r, "robot", ("side", "x", "y"))
    side = _num(r, "robot", "side")
    bodies.append(Body("robot", side, side, KIND_ROBOT, Pose2(_num(r, "robot", "x"), _num(r, "robot", "y"))))

    try:
        scene = Scene(workspace, tuple(bodies), goals)
    except ValueError as e:
        raise ScenarioError(str(e)) from None
    problems = scene.validate()
    if problems:
        raise ScenarioError("invalid scene: " + "; ".join(problems))
    return scene


def load_scene(path: str | Path) -> Scene:
    """The scene in a scenario file; every ScenarioError names the file."""
    try:
        return parse_scene(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, ScenarioError) as e:
        raise ScenarioError(f"scenario file {path}: {e}") from e


def scene_to_json(scene: Scene) -> str:
    doc = {
        "workspace": {
            "xmin": scene.workspace.xmin,
            "ymin": scene.workspace.ymin,
            "xmax": scene.workspace.xmax,
            "ymax": scene.workspace.ymax,
        },
        "walls": [
            {"id": b.id, "w": b.w, "h": b.h, "x": b.pose.x, "y": b.pose.y} for b in scene.walls
        ],
        "movables": [],
        "robot": {"side": scene.robot.w, "x": scene.robot.pose.x, "y": scene.robot.pose.y},
    }
    for b in scene.movables:
        entry = {"id": b.id, "w": b.w, "h": b.h, "x": b.pose.x, "y": b.pose.y}
        if b.id in scene.goals:
            g = scene.goals[b.id]
            entry["goal"] = {"x": g.x, "y": g.y}
        doc["movables"].append(entry)
    return json.dumps(doc, indent=2) + "\n"


def save_scene(scene: Scene, path: str | Path):
    Path(path).write_text(scene_to_json(scene), encoding="utf-8")
