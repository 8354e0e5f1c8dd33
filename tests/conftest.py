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


def wedged_scene():
    """A robot wedged flush against an object, in a pocket narrower than a
    grid cell.

    On the 64-cell grid of the 10 x 10 workspace (cells 0.15625 a side) the
    robot stands flush against the movable "wedge" on its west, under the
    wall "roof" and over the movable "slab".  Its centre may move 0.1 up or
    down, from y = 2.13 to 2.23, a band that holds no cell centre, so no
    cell within 2 of its own admits its footprint although its pose is
    exactly free.  The pocket opens east past x = 2.6; the goal object g1
    lies out in the open.
    """
    bodies = [
        robot(2.0, 2.18),
        wall("roof", 1.8, 2.965, 1.6, 1.07),
        obstacle("wedge", 1.6, 2.18, 0.4, 0.5),
        obstacle("slab", 1.8, 1.63, 1.6, 0.6),
        goal_obj("g1", 6.0, 1.0),
    ]
    return scene(bodies, {"g1": Pose2(8.0, 6.0)})


def slot_scene(extra=(), goals=None):
    """A robot of side 0.1 in a slot 0.11 wide, between a wall and a wall
    0.02 thick, that holds no 0.125 cell center it fits at: its grid anchor
    snaps across the thin wall, so queries to the far side pass the grid
    precheck, never bridge, and their grid route's first segment crosses
    the thin wall.  extra bodies go in the 8 x 8 workspace with it."""
    xl, xr = 3.2, 3.31
    bodies = [robot(3.255, 4.0, 0.1), wall("wl", xl / 2, 4.0, xl, 8.0), wall("w", xr + 0.01, 4.0, 0.02, 8.0)]
    return scene([*bodies, *extra], goals, ws=Rect(0.0, 0.0, 8.0, 8.0))


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
