"""Scene and plan rendering to standalone SVG."""
from __future__ import annotations

from .world import KIND_GOAL, KIND_OBSTACLE, KIND_ROBOT, KIND_WALL, Rect, Scene, rect_at

_FILL = {
    KIND_WALL: "#3a3f44",
    KIND_OBSTACLE: "#b0756a",
    KIND_GOAL: "#3f9d6e",
    KIND_ROBOT: "#3572c6",
}
WIDTH_PX = 640


def render_svg(scene: Scene, plans=None) -> str:
    """Standalone SVG: walls, movables, goal outlines, robot, and the
    executed transport/pick routes when plans are given."""
    ws = scene.workspace
    scale = WIDTH_PX / ws.width
    height_px = ws.height * scale

    def sx(x: float) -> float:
        return (x - ws.xmin) * scale

    def sy(y: float) -> float:
        return (ws.ymax - y) * scale

    def rect_el(r: Rect, fill: str, opacity: float = 1.0, extra: str = "") -> str:
        return (
            f'<rect x="{sx(r.xmin):.1f}" y="{sy(r.ymax):.1f}" '
            f'width="{r.width * scale:.1f}" height="{r.height * scale:.1f}" '
            f'fill="{fill}" fill-opacity="{opacity}" {extra}/>'
        )

    def poly_el(points, stroke: str, width: float, dash: str = "") -> str:
        pts = " ".join(f"{sx(p.x):.1f},{sy(p.y):.1f}" for p in points)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width:.1f}"{dash_attr}/>'
        )

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH_PX}" '
        f'height="{height_px:.0f}" viewBox="0 0 {WIDTH_PX} {height_px:.0f}">',
        f'<rect width="{WIDTH_PX}" height="{height_px:.0f}" fill="#f4f1ea"/>',
    ]
    for b in scene.bodies:
        if b.kind == KIND_WALL:
            out.append(rect_el(b.rect(), _FILL[KIND_WALL]))
    for oid, goal in sorted(scene.goals.items()):
        b = scene.body(oid)
        out.append(
            rect_el(
                rect_at(goal, b.w, b.h), "none", 1.0,
                f'stroke="{_FILL[KIND_GOAL]}" stroke-width="1.5" stroke-dasharray="5,4"',
            )
        )
    if plans:
        for plan in plans:
            for pair in plan.pairs:
                out.append(poly_el(pair.pick.waypoints, "#8fb3e6", 1.2, dash="2,3"))
                color = "#e0902c" if plan.purpose == "relocation" else "#c2572f"
                out.append(poly_el(pair.object_waypoints, color, 2.0))
    for b in scene.bodies:
        if b.kind == KIND_WALL:
            continue
        out.append(rect_el(b.rect(), _FILL[b.kind], 0.92))
        out.append(
            f'<text x="{sx(b.pose.x):.1f}" y="{sy(b.pose.y) + 3:.1f}" '
            f'font-size="10" text-anchor="middle" fill="#222">{b.id}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def save_svg(scene: Scene, path: str, plans=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(scene, plans))
