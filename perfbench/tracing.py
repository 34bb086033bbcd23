"""Per-layer spans around the calls from one hullgap module into another.

The wrappers are installed from the benchmark, by name, on every module
that looks the target up (``dist_to_cm_grid`` is read both in hullgeom and
in dkprofile, for example), and on class attributes for methods.  Nothing
under src/ is edited.  A target that no longer exists is skipped and
reported as absent, together with every metric that reads it.

Spans nest on one stack: a layer's self time is its busy time minus the
time of the spans opened directly inside it.  A layer entered again while
it is already open (the norm evaluators recurse through the same global
name) opens no second span, so each call and each row is counted once, at
the outermost entry.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Tuple

import reference as ref


class Layer:
    __slots__ = ("calls", "busy", "self_time", "open", "counters")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.open = 0
        self.counters: Dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value


class Tracer:
    """Span stack and per-layer totals; install() wraps, uninstall() restores."""

    def __init__(self):
        self.layers: Dict[str, Layer] = {}
        self.stack: List[list] = []  # [layer name, child seconds]
        self.undo: List[Tuple[object, str, object]] = []
        self.absent: List[str] = []

    def layer(self, name: str) -> Layer:
        if name not in self.layers:
            self.layers[name] = Layer()
        return self.layers[name]

    def span(self, name: str, fn: Callable, args, kwargs, after=None):
        lay = self.layer(name)
        if lay.open:
            return fn(*args, **kwargs)
        lay.open += 1
        frame = [name, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            lay.open -= 1
            lay.calls += 1
            lay.busy += dt
            lay.self_time += dt - frame[1]
            if self.stack:
                self.stack[-1][1] += dt
        if after is not None:
            after(lay, args, out, dt)
        return out

    def wrapped(self, name: str, fn: Callable, after=None) -> Callable:
        @functools.wraps(fn)
        def call(*args, **kwargs):
            return self.span(name, fn, args, kwargs, after)
        return call

    # -- installation -----------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap_function(self, layer: str, home, attr: str, modules, after=None) -> bool:
        """Wrap home.attr in every module of `modules` that binds the same object."""
        original = getattr(home, attr, None)
        if original is None:
            self.absent.append(f"{home.__name__}.{attr}")
            return False
        new = self.wrapped(layer, original, after)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self._replace(mod, attr, new)
        return True

    def wrap_method(self, layer: str, home, path: str, after=None) -> bool:
        cls_name, meth = path.split(".")
        cls = getattr(home, cls_name, None)
        original = getattr(cls, meth, None) if cls is not None else None
        if original is None:
            self.absent.append(f"{home.__name__}.{path}")
            return False
        self._replace(cls, meth, self.wrapped(layer, original, after))
        return True

    def wrap_evaluator_factory(self, layer: str, home, attr: str) -> bool:
        """Wrap the batch evaluators a factory returns; rows are counted per outermost call."""
        original = getattr(home, attr, None)
        if original is None:
            self.absent.append(f"{home.__name__}.{attr}")
            return False

        def count_rows(lay, args, out, dt):
            lay.add("rows", args[0].shape[0])

        @functools.wraps(original)
        def factory(*args, **kwargs):
            return self.wrapped(layer, original(*args, **kwargs), count_rows)

        self._replace(home, attr, factory)
        return True

    def uninstall(self) -> None:
        while self.undo:
            owner, attr, old = self.undo.pop()
            setattr(owner, attr, old)


def install(tracer: Tracer) -> Dict[str, bool]:
    """Wrap every layer boundary; returns which layers found their targets."""
    import scipy.optimize
    from hullgap import certificates, cli, dkprofile, hullgeom, lipmetric, spaces

    mods = [spaces, lipmetric, hullgeom, certificates, dkprofile, cli]
    fmt = getattr(spaces, "format_space", None)

    def rows_from_second_arg(lay, args, out, dt):
        lay.add("rows", args[1].shape[0])

    def hull_after(lay, args, out, dt):
        curved = fmt is None or not ref.polyhedral(ref.parse(fmt(args[0])))
        lay.add("curved_s" if curved else "polyhedral_s", dt)
        lay.counters["gap_max"] = max(lay.counters.get("gap_max", 0.0), float(out.gap))

    def grid_after(lay, args, out, dt):
        lay.add("points", out.meta.get("grid_points", 0))
        lay.add("relax_members", out.meta.get("relax_members", 0))

    found = {
        "spaces.norm": tracer.wrap_function("spaces.norm", spaces, "norm", mods),
        "hullgeom.norm": all([
            tracer.wrap_evaluator_factory("hullgeom.norm", hullgeom, "norm_evaluator"),
            tracer.wrap_evaluator_factory("hullgeom.norm", hullgeom, "mean_norm_evaluator"),
        ]),
        "hullgeom.segment": tracer.wrap_function(
            "hullgeom.segment", hullgeom, "_batch_segment_min", mods, rows_from_second_arg),
        "hullgeom.engine.build": tracer.wrap_method("hullgeom.engine.build", hullgeom, "_UpperEngine.__init__"),
        "hullgeom.engine.support": tracer.wrap_method(
            "hullgeom.engine.support", hullgeom, "_UpperEngine._solve_support"),
        "hullgeom.engine.value": tracer.wrap_method("hullgeom.engine.value", hullgeom, "_UpperEngine.value"),
        "hullgeom.upper": tracer.wrap_function("hullgeom.upper", hullgeom, "dist_to_cm_upper", mods),
        "hullgeom.hull": tracer.wrap_function("hullgeom.hull", hullgeom, "min_norm_point", mods, hull_after),
        "hullgeom.lp": tracer.wrap_function("hullgeom.lp", scipy.optimize, "linprog", [scipy.optimize]),
        "hullgeom.grid": tracer.wrap_function("hullgeom.grid", hullgeom, "dist_to_cm_grid", mods, grid_after),
        "dkprofile.profile": tracer.wrap_function("dkprofile.profile", dkprofile, "estimate_dk", mods),
        "dkprofile.ceiling": tracer.wrap_function(
            "dkprofile.ceiling", dkprofile, "constructive_dk_upper", mods),
        "certificates.rings": tracer.wrap_function(
            "certificates.rings", certificates, "find_ring_family", mods),
        "certificates.construct": all([
            tracer.wrap_function("certificates.construct", certificates, "ivakhno_construct", mods),
            tracer.wrap_function("certificates.construct", certificates, "centralizer_construct", mods),
        ]),
        "certificates.verify": all([
            tracer.wrap_function("certificates.verify", certificates, "ivakhno_verify", mods),
            tracer.wrap_function("certificates.verify", certificates, "centralizer_verify", mods),
        ]),
        "lipmetric.seminorm": tracer.wrap_function("lipmetric.seminorm", lipmetric, "lip_seminorm", mods),
        "lipmetric.extend": tracer.wrap_function("lipmetric.extend", lipmetric, "mcshane_extend", mods),
        "cli": tracer.wrap_function("cli", cli, "main", mods),
    }
    return found


def _calls(lay):
    return lay.calls


def _busy(lay):
    return lay.busy


def _self(lay):
    return lay.self_time


def _counter(name):
    return lambda lay: lay.counters.get(name, 0.0)


def _rows_per_s(lay):
    return lay.counters.get("rows", 0.0) / lay.busy if lay.busy > 0 else 0.0


# metric name -> (layer, unit, reader); the order and units match BENCHMARK.json
METRICS: Dict[str, Tuple[str, str, Callable]] = {
    "spaces.norm.calls": ("spaces.norm", "count", _calls),
    "spaces.norm.self_s": ("spaces.norm", "s", _self),
    "hullgeom.norm.calls": ("hullgeom.norm", "count", _calls),
    "hullgeom.norm.rows": ("hullgeom.norm", "count", _counter("rows")),
    "hullgeom.norm.self_s": ("hullgeom.norm", "s", _self),
    "hullgeom.norm.rows_per_s": ("hullgeom.norm", "1/s", _rows_per_s),
    "hullgeom.segment.calls": ("hullgeom.segment", "count", _calls),
    "hullgeom.segment.rows": ("hullgeom.segment", "count", _counter("rows")),
    "hullgeom.segment.self_s": ("hullgeom.segment", "s", _self),
    "hullgeom.engine.builds": ("hullgeom.engine.build", "count", _calls),
    "hullgeom.engine.build_s": ("hullgeom.engine.build", "s", _busy),
    "hullgeom.engine.support_solves": ("hullgeom.engine.support", "count", _calls),
    "hullgeom.engine.support_self_s": ("hullgeom.engine.support", "s", _self),
    "hullgeom.engine.values": ("hullgeom.engine.value", "count", _calls),
    "hullgeom.engine.value_s": ("hullgeom.engine.value", "s", _busy),
    "hullgeom.upper.calls": ("hullgeom.upper", "count", _calls),
    "hullgeom.upper.s": ("hullgeom.upper", "s", _busy),
    "hullgeom.hull.solves": ("hullgeom.hull", "count", _calls),
    "hullgeom.hull.polyhedral_s": ("hullgeom.hull", "s", _counter("polyhedral_s")),
    "hullgeom.hull.curved_s": ("hullgeom.hull", "s", _counter("curved_s")),
    "hullgeom.hull.gap_max": ("hullgeom.hull", "1", _counter("gap_max")),
    "hullgeom.lp.solves": ("hullgeom.lp", "count", _calls),
    "hullgeom.lp.s": ("hullgeom.lp", "s", _busy),
    "hullgeom.grid.calls": ("hullgeom.grid", "count", _calls),
    "hullgeom.grid.s": ("hullgeom.grid", "s", _busy),
    "hullgeom.grid.points": ("hullgeom.grid", "count", _counter("points")),
    "hullgeom.grid.relax_members": ("hullgeom.grid", "count", _counter("relax_members")),
    "dkprofile.profile.calls": ("dkprofile.profile", "count", _calls),
    "dkprofile.profile.s": ("dkprofile.profile", "s", _busy),
    "dkprofile.ceiling.calls": ("dkprofile.ceiling", "count", _calls),
    "dkprofile.ceiling.s": ("dkprofile.ceiling", "s", _busy),
    "certificates.rings.s": ("certificates.rings", "s", _busy),
    "certificates.construct.s": ("certificates.construct", "s", _busy),
    "certificates.verify.calls": ("certificates.verify", "count", _calls),
    "certificates.verify.s": ("certificates.verify", "s", _busy),
    "lipmetric.seminorm.calls": ("lipmetric.seminorm", "count", _calls),
    "lipmetric.seminorm.s": ("lipmetric.seminorm", "s", _busy),
    "lipmetric.extend.s": ("lipmetric.extend", "s", _busy),
    "cli.commands": ("cli", "count", _calls),
    "cli.self_s": ("cli", "s", _self),
}


def report(tracer: Tracer, found: Dict[str, bool]) -> Dict[str, dict]:
    """Every metric whose layer found its targets; absent ones are named on stderr."""
    out: Dict[str, dict] = {}
    missing: List[str] = []
    for name, (layer, unit, read) in METRICS.items():
        if not found.get(layer, False):
            missing.append(name)
            continue
        out[name] = {"value": float(read(tracer.layer(layer))), "unit": unit}
    if tracer.absent or missing:
        print(f"absent targets: {tracer.absent}; metrics not reported: {missing}", file=sys.stderr)
    return out
