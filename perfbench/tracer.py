"""In-memory tracing of rearrange2d's layer functions, from outside the package.

A Tracer replaces each traced function with a timing wrapper under every
module-global name that refers to it (``motion.footprint_collides`` is the
same function as ``world.footprint_collides``, ``planner.search_relocations``
the same as ``guided_search.search_relocations``), so no call escapes the
timer through an alias.  ``restore`` puts every original back.

Per op it keeps, for each traced function, the call count, inclusive time
and self time (inclusive minus the time of traced children), plus a few
function-specific counters.  Layer-boundary functions also leave a span
(name, start, end, parent span, op id); the collision primitives are called
millions of times per op, so they are aggregated but leave no span.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "rearrange2d"

# (module, function) pairs that are wrapped; names are reported as
# "<module>.<function>".
TRACED = (
    ("world", "collides"),
    ("world", "footprint_collides"),
    ("world", "segment_hits_rect"),
    ("grids", "fit_mask"),
    ("grids", "reachability"),
    ("grids", "rasterize_gom"),
    ("grids", "edt"),
    ("grids", "grid_path"),
    ("motion", "birrt"),
    ("motion", "sweep_clear"),
    ("motion", "plan_object_path"),
    ("motion", "select_subgoals"),
    ("motion", "refine_subgoals"),
    ("motion", "plan_pick_place"),
    ("motion", "solve_pick_config"),
    ("guided_search", "find_colliding"),
    ("guided_search", "task_feasible"),
    ("guided_search", "select_critical"),
    ("guided_search", "gen_relocation_points"),
    ("guided_search", "plan_relocation"),
    ("guided_search", "search_relocations"),
    ("sequencer", "build_dependency_graph"),
    ("sequencer", "break_cycles"),
    ("sequencer", "solve_patsp"),
    ("sequencer", "lazy_refine"),
    ("planner", "gen_motion_plan"),
)

# Aggregated only: one span per call would be millions of spans per op.
NO_SPAN = frozenset({"world.collides", "world.footprint_collides", "world.segment_hits_rect"})


@dataclass
class FnStats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    extra: dict = field(default_factory=dict)

    def bump(self, key: str, n=1) -> None:
        self.extra[key] = self.extra.get(key, 0) + n


# Function-specific observers: (stats, fn, args, kwargs) -> fn's result.
def _count_success(attr=None):
    def observe(st, fn, args, kwargs):
        res = fn(*args, **kwargs)
        ok = res is not None if attr is None else bool(getattr(res, attr))
        st.bump("successes", int(ok))
        return res
    return observe


def _observe_search(st, fn, args, kwargs):
    res = fn(*args, **kwargs)
    st.bump("successes", int(res.success))
    st.bump("iterations", res.iterations)
    st.bump("failed_plans", res.failed_attempts)
    return res


def _observe_pick_place(st, fn, args, kwargs):
    from rearrange2d.motion import InfeasibleLeg

    try:
        return fn(*args, **kwargs)
    except InfeasibleLeg:
        st.bump("infeasible_legs")
        raise


def _observe_break(st, fn, args, kwargs):
    res = fn(*args, **kwargs)
    st.bump("removed_edges", len(res.removed))
    return res


def _observe_lazy(st, fn, args, kwargs):
    caches = kwargs.get("caches")
    if caches is None:
        return fn(*args, **kwargs)
    before = (caches.hits, caches.misses, caches.failures)
    try:
        return fn(*args, **kwargs)
    finally:
        st.bump("cache_hits", caches.hits - before[0])
        st.bump("cache_misses", caches.misses - before[1])
        st.bump("cache_failures", caches.failures - before[2])


OBSERVERS = {
    "motion.birrt": _count_success(),
    "motion.plan_pick_place": _observe_pick_place,
    "guided_search.plan_relocation": _count_success(),
    "guided_search.search_relocations": _observe_search,
    "sequencer.break_cycles": _observe_break,
    "sequencer.lazy_refine": _observe_lazy,
    "planner.gen_motion_plan": _count_success("success"),
}


def _call(st, fn, args, kwargs):
    return fn(*args, **kwargs)


class Tracer:
    """Wraps the TRACED functions while installed; records only inside ops."""

    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent, op]
        self.op_stats: dict[str, dict[str, FnStats]] = {}
        self.op_wall: dict[str, float] = {}
        self._stack: list[list] = []       # [start, child_time, span id]
        self._stats: dict[str, FnStats] | None = None
        self._op: str | None = None
        self._in_birrt = 0
        self._rebound: list[tuple[object, str, object]] = []

    # -- install / restore -------------------------------------------------

    def originals(self) -> dict[str, object]:
        mods = _package_modules()
        return {f"{m}.{f}": getattr(mods[f"{PACKAGE}.{m}"], f) for m, f in TRACED}

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, fn in self.originals().items():
            wrappers[id(fn)] = self._wrap(name, fn)
        for mod in _package_modules().values():
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._rebound.append((mod, attr, val))
                    setattr(mod, attr, w)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        observe = OBSERVERS.get(name, _call)
        spans = self.spans
        stack = self._stack
        record_span = name not in NO_SPAN
        is_birrt = name == "motion.birrt"
        is_grid_path = name == "grids.grid_path"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stats = tracer._stats
            if stats is None:
                return fn(*args, **kwargs)
            st = stats.get(name)
            if st is None:
                st = stats[name] = FnStats()
            if is_grid_path and tracer._in_birrt:
                st.bump("birrt_fallbacks")
            sid = -1
            t0 = clock()
            if record_span:
                sid = len(spans)
                spans.append([name, t0, None, stack[-1][2], tracer._op])
            frame = [t0, 0.0, sid if sid >= 0 else stack[-1][2]]
            stack.append(frame)
            if is_birrt:
                tracer._in_birrt += 1
            try:
                return observe(st, fn, args, kwargs)
            finally:
                t1 = clock()
                if is_birrt:
                    tracer._in_birrt -= 1
                stack.pop()
                dur = t1 - t0
                st.calls += 1
                st.incl_s += dur
                st.self_s += dur - frame[1]
                stack[-1][1] += dur
                if sid >= 0:
                    spans[sid][2] = t1

        return functools.wraps(fn)(wrapper)

    def begin_op(self, op_id: str) -> None:
        if self._op is not None:
            raise RuntimeError("ops do not nest")
        t0 = time.perf_counter()
        self._op = op_id
        self._stats = self.op_stats.setdefault(op_id, {})
        sid = len(self.spans)
        self.spans.append(["op", t0, None, -1, op_id])
        self._stack.append([t0, 0.0, sid])

    def end_op(self, wall_s: float) -> None:
        t1 = time.perf_counter()
        frame = self._stack.pop()
        self.spans[frame[2]][2] = t1
        self.op_wall[self._op] = wall_s
        self._op = None
        self._stats = None

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, FnStats]:
        """Per-function stats summed over every op."""
        out: dict[str, FnStats] = {f"{m}.{f}": FnStats() for m, f in TRACED}
        for stats in self.op_stats.values():
            for name, st in stats.items():
                t = out[name]
                t.calls += st.calls
                t.incl_s += st.incl_s
                t.self_s += st.self_s
                for k, v in st.extra.items():
                    t.bump(k, v)
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines, then one line of per-op stats."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            fh.write(json.dumps({
                "op_wall_s": self.op_wall,
                "op_stats": {
                    op: {n: [st.calls, st.incl_s, st.self_s, st.extra] for n, st in stats.items()}
                    for op, stats in self.op_stats.items()
                },
            }) + "\n")


def _package_modules() -> dict[str, object]:
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }
