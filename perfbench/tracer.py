"""Per-layer tracing of the bergsmooth package, installed from outside it.

The layers are the package modules.  `Tracer.install` replaces every public
module-level function at each place it is bound: the defining module, every
module that did `from .flow import trajectories`, the package namespace, and
function tables such as the scenario registry.  Modules are reached through
`sys.modules`, because `bergsmooth.flow` as an attribute is the re-exported
function `flow`, not the submodule.  It also wraps the public evaluation
methods of the integrand classes and of the Bergman basis elements, where
work is counted in points.

Every wrapped call records how long it ran less the time of the wrapped calls
it made (self time, summed per layer).  Hot boundaries are counted in points
from array sizes, never as one span per call.  Methods not listed here run in
the layer of their caller.  `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
import types
from collections import Counter

import numpy as np

LAYERS = ("flow", "functions", "finitediff", "operators", "decompose", "bergman",
          "norms", "geometry")

# class methods wrapped besides the module-level functions, by layer
METHODS = {
    "functions": {"Poly2": ("__call__", "partial"), "Holo1": ("__call__", "partial"),
                  "AngularFamily": ("__call__",), "RadialHolo": ("__call__",),
                  "SmoothFunction": ("partial",)},
    "bergman": {"PlanarMonomial": ("eval",), "BallMonomial": ("eval",)},
}

CRITERIA = tuple(f"C{i}" for i in range(1, 10))

# per-layer metrics kept as plain counters under their own name; the others
# are derived in `Tracer.metrics`.  Names and units are declared in BENCHMARK.json.
COUNTERS = (
    "flow.trajectories.calls", "flow.trajectory_starts", "flow.trajectory_positions",
    "flow.rk4_point_steps", "flow.flow.calls", "flow.hitting_time.calls",
    "functions.evals", "functions.smoothstep.evals", "finitediff.partial_callable.calls",
    "operators.apply_op.calls", "decompose.rotation_fd.calls", "bergman.project.calls",
    "bergman.basis_evals", "bergman.gram.calls", "geometry.grids_built",
    *(f"scenarios.check_s.{c}" for c in CRITERIA), "scenarios.emit_report_s",
)


class _Frame:
    __slots__ = ("layer", "key", "child", "points", "live")

    def __init__(self, layer, key):
        self.layer = layer
        self.key = key
        self.child = 0.0
        self.points = 0
        self.live = None


class _Args:
    """Positional-or-keyword argument lookup without binding the whole signature."""

    def __init__(self, fn):
        params = list(inspect.signature(fn).parameters.values())
        self.index = {p.name: i for i, p in enumerate(params)}
        self.default = {p.name: p.default for p in params}

    def get(self, args, kwargs, name):
        i = self.index[name]
        if i < len(args):
            return args[i]
        return kwargs.get(name, self.default[name])


def _points(x, kind):
    """Number of points in an array of planar points or of points in C^2."""
    n = int(np.size(x))
    return n // 2 if kind == "ball2" else n


def _rk4_steps(s_values, n_steps):
    """Steps and time covered by one `trajectories` call, by its own step rule."""
    s = np.asarray(s_values, dtype=float)
    steps, covered, prev = 0, 0.0, 0.0
    for target in s[np.argsort(-s)]:
        span = target - prev
        if span != 0.0:
            steps += max(1, int(math.ceil(abs(span) * n_steps)))
            covered += abs(float(span))
        prev = target
    return steps, covered


class Tracer:
    def __init__(self):
        self.count = Counter()
        self.busy = Counter()
        self.active = Counter()
        self.stack = []
        self._undo = []

    # --- installation ------------------------------------------------------

    def install(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "bergsmooth" or name.startswith("bergsmooth.")]
        wrapped = {}
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__.startswith("bergsmooth.")):
                    if obj not in wrapped:
                        wrapped[obj] = self._wrap(obj, obj.__module__.split(".")[1],
                                                  obj.__name__)
                    self._rebind(vars(mod), name, wrapped[obj])
        for mod in mods:
            for table in [t for t in vars(mod).values() if isinstance(t, dict)]:
                for key, val in list(table.items()):
                    if (isinstance(val, tuple) and val
                            and all(isinstance(f, types.FunctionType) and f in wrapped
                                    for f in val)):
                        self._rebind(table, key, tuple(wrapped[f] for f in val))
        for layer, classes in METHODS.items():
            mod = sys.modules[f"bergsmooth.{layer}"]
            for cls_name, names in classes.items():
                cls = getattr(mod, cls_name)
                for name in names:
                    orig = cls.__dict__[name]
                    setattr(cls, name, self._wrap(orig, layer, f"{cls_name}.{name}"))
                    self._undo.append(functools.partial(setattr, cls, name, orig))

    def _rebind(self, namespace, key, value):
        old = namespace[key]
        namespace[key] = value
        self._undo.append(functools.partial(namespace.__setitem__, key, old))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # --- the wrapper -------------------------------------------------------

    def _wrap(self, fn, layer, name):
        key = f"{layer}.{name}"
        enter = _ENTER.get(key)
        leave = _LEAVE.get(key, _after_check if key.startswith("scenarios.check_") else None)
        spec = _Args(fn) if enter is not None else None
        stack, active, count, busy = self.stack, self.active, self.count, self.busy
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(layer, key)
            if parent is None or parent.layer != layer:
                count[f"{layer}.entries"] += 1
            if enter is not None:
                enter(self, frame, parent, spec, args, kwargs)
            active[key] += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[key] -= 1
                busy[layer] += dt - frame.child
                if parent is not None:
                    parent.child += dt
            if leave is not None:
                leave(self, frame, result, dt)
            return result

        return traced

    # --- report ------------------------------------------------------------

    def metrics(self, traced_s, untraced_s):
        """Every per-layer metric's value, by name."""
        c = self.count

        def ratio(a, b):
            return c[a] / c[b] if c[b] else 0.0

        return {
            **{name: c[name] for name in COUNTERS},
            "flow.steps_per_unit_time": ratio("flow.rk4_point_steps", "flow.rk4_point_time"),
            "flow.m_steps_requested": ratio("flow.requested_point_steps", "flow.rk4_point_time"),
            "flow.live_ratio": ratio("flow.chain_live", "flow.chain_points"),
            "flow.flow_calls_per_hitting_time": ratio("flow.flow.calls_in_hitting_time",
                                                      "flow.hitting_time.calls"),
            "operators.evals_per_output": ratio("functions.evals_in_apply_op",
                                                "operators.apply_op.points"),
            "decompose.calls": c["decompose.entries"],
            "norms.calls": c["norms.entries"],
            "trace.wall_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            **{f"{layer}.self_s": self.busy[layer] for layer in LAYERS},
        }


# ---------------------------------------------------------------------------
# counters at the layer boundaries; each hook sees (tracer, frame, parent
# frame, argument lookup, args, kwargs) on entry, (tracer, frame, result,
# seconds) on exit
# ---------------------------------------------------------------------------


def _on_trajectories(tr, frame, parent, spec, args, kwargs):
    chart = spec.get(args, kwargs, "chart")
    n_steps = spec.get(args, kwargs, "n_steps")
    s_values = spec.get(args, kwargs, "s_values")
    npts = _points(spec.get(args, kwargs, "points"), chart.domain.kind)
    steps, covered = _rk4_steps(s_values, n_steps)
    c = tr.count
    c["flow.trajectories.calls"] += 1
    c["flow.trajectory_starts"] += npts
    c["flow.trajectory_positions"] += len(np.atleast_1d(s_values)) * npts
    c["flow.rk4_point_steps"] += steps * npts
    c["flow.rk4_point_time"] += covered * npts
    c["flow.requested_point_steps"] += n_steps * covered * npts
    if parent is not None and parent.key == "flow.antideriv_chain" and parent.live is None:
        parent.live = npts


def _on_flow(tr, frame, parent, spec, args, kwargs):
    field = spec.get(args, kwargs, "field")
    t = float(spec.get(args, kwargs, "t"))
    n_steps = spec.get(args, kwargs, "n_steps")
    npts = _points(spec.get(args, kwargs, "x"), field.domain.kind)
    c = tr.count
    c["flow.flow.calls"] += 1
    if tr.active["flow.hitting_time"]:
        c["flow.flow.calls_in_hitting_time"] += 1
    if t != 0.0:
        c["flow.rk4_point_steps"] += max(1, int(math.ceil(abs(t) * n_steps))) * npts
        c["flow.rk4_point_time"] += abs(t) * npts
        c["flow.requested_point_steps"] += n_steps * abs(t) * npts


def _on_hitting_time(tr, frame, parent, spec, args, kwargs):
    tr.count["flow.hitting_time.calls"] += 1


def _on_chain(tr, frame, parent, spec, args, kwargs):
    chart = spec.get(args, kwargs, "chart")
    frame.points = _points(spec.get(args, kwargs, "points"), chart.domain.kind)


def _after_chain(tr, frame, result, dt):
    tr.count["flow.chain_points"] += frame.points
    tr.count["flow.chain_live"] += frame.live or 0


def _on_integrand(tr, frame, parent, spec, args, kwargs):
    # counted once where the call enters the layer, not again at nested levels
    if parent is not None and parent.layer == "functions":
        return
    n = int(np.size(spec.get(args, kwargs, "points")))
    tr.count["functions.evals"] += n
    if tr.active["operators.apply_op"]:
        tr.count["functions.evals_in_apply_op"] += n


def _on_smoothstep(tr, frame, parent, spec, args, kwargs):
    tr.count["functions.smoothstep.evals"] += int(np.size(spec.get(args, kwargs, "u")))


def _top_level(counter):
    def hook(tr, frame, parent, spec, args, kwargs):
        if not tr.active[frame.key]:
            tr.count[counter] += 1
    return hook


def _on_apply_op(tr, frame, parent, spec, args, kwargs):
    if tr.active["operators.apply_op"]:
        return
    chart = spec.get(args, kwargs, "chart")
    tr.count["operators.apply_op.calls"] += 1
    tr.count["operators.apply_op.points"] += _points(spec.get(args, kwargs, "points"),
                                                     chart.domain.kind)


def _every_call(counter):
    def hook(tr, frame, parent, spec, args, kwargs):
        tr.count[counter] += 1
    return hook


def _on_basis_element(tr, frame, parent, spec, args, kwargs):
    elem = args[0]
    kind = "ball2" if type(elem).__name__ == "BallMonomial" else "planar"
    tr.count["bergman.basis_evals"] += _points(spec.get(args, kwargs, "z"), kind)


def _after_check(tr, frame, result, dt):
    checks = result[0]
    if checks:
        tr.count[f"scenarios.check_s.{checks[0].criterion}"] += dt


def _after_emit(tr, frame, result, dt):
    tr.count["scenarios.emit_report_s"] += dt


_ENTER = {
    "flow.trajectories": _on_trajectories,
    "flow.flow": _on_flow,
    "flow.hitting_time": _on_hitting_time,
    "flow.antideriv_chain": _on_chain,
    "functions.smoothstep": _on_smoothstep,
    "finitediff.partial_callable": _top_level("finitediff.partial_callable.calls"),
    "operators.apply_op": _on_apply_op,
    "decompose.rotation_fd": _top_level("decompose.rotation_fd.calls"),
    "bergman.project": _every_call("bergman.project.calls"),
    "bergman.gram_matrix": _every_call("bergman.gram.calls"),
    "bergman.PlanarMonomial.eval": _on_basis_element,
    "bergman.BallMonomial.eval": _on_basis_element,
    "geometry.quadrature_grid": _every_call("geometry.grids_built"),
    "geometry.polar_eval_grid": _every_call("geometry.grids_built"),
}
for _cls, _names in METHODS["functions"].items():
    for _name in _names:
        _ENTER[f"functions.{_cls}.{_name}"] = _on_integrand

_LEAVE = {
    "flow.antideriv_chain": _after_chain,
    "scenarios.emit_report": _after_emit,
}
