"""Shared scene builders for the test suite."""

import pytest

from rearrange2d.world import (
    KIND_GOAL,
    KIND_OBSTACLE,
    KIND_ROBOT,
    KIND_WALL,
    Body,
    Pose2,
    Rect,
    Scene,
)


def wall(bid, x, y, w, h):
    return Body(bid, w, h, KIND_WALL, Pose2(x, y))


def obstacle(bid, x, y, w=0.6, h=0.6):
    return Body(bid, w, h, KIND_OBSTACLE, Pose2(x, y))


def goal_obj(bid, x, y, w=0.6, h=0.6):
    return Body(bid, w, h, KIND_GOAL, Pose2(x, y))


def robot(x, y, side=0.4):
    return Body("robot", side, side, KIND_ROBOT, Pose2(x, y))


def scene(bodies, goals=None, *, ws=None):
    ws = ws if ws is not None else Rect(0.0, 0.0, 10.0, 10.0)
    return Scene(ws, tuple(bodies), dict(goals or {}))


@pytest.fixture
def empty_scene():
    """Robot alone in a 10x10 workspace."""
    return scene([robot(5.0, 5.0)])


@pytest.fixture
def simple_scene():
    """One goal object, one obstacle, no interior walls."""
    bodies = [
        robot(1.0, 1.0),
        goal_obj("g1", 3.0, 3.0),
        obstacle("b1", 6.0, 6.0),
    ]
    return scene(bodies, {"g1": Pose2(8.0, 8.0)})


@pytest.fixture
def walled_scene():
    """A vertical wall splitting the workspace, with a gap at the top."""
    bodies = [
        robot(2.0, 5.0),
        wall("divider", 5.0, 4.0, 0.4, 8.0),
        goal_obj("g1", 3.0, 8.0),
    ]
    return scene(bodies, {"g1": Pose2(8.0, 8.0)})
