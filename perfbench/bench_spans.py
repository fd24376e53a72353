"""Outside-in span recorder for the traced benchmark run.

Nothing in ``src/`` is edited.  While a :class:`Tracer` is active it
rebinds the public functions of each layer in every package module that
holds them (``runner`` and ``dynamics`` import names with ``from .x import
y``, so patching only the defining module would miss those callers),
patches the ``ControlledDecoherence`` methods on the class, and wraps the
closures returned by ``attenuation_functions`` and the integrand passed to
``adaptive_panel_quad``.  Everything is restored on exit.

Spans live in flat in-memory arrays and are written once at the end.
Each span has four times: ``enter`` when its wrapper starts recording,
``start`` and ``end`` around the wrapped call, and ``leave`` when the
wrapper has finished its bookkeeping (counting points, pulse terms, rows).
A span's self time is its duration (end - start) minus the time its
direct children's wrappers cover (leave - enter), so the tracer's own
bookkeeping for a child is charged to no layer.  That bookkeeping,
summed over all spans, is reported apart.  The bare call into and
return from a child's wrapper happen outside ``enter``..``leave``; their
cost per span is calibrated once per run on a no-op
(:meth:`Tracer.calibrate`) and counted as bookkeeping too.  The calls
are nested and single threaded, so children never overlap, and the self
times of all spans plus the bookkeeping sum to the duration of the root
span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# (module, attribute) of every wrapped public function; the span name is
# "<module>.<attribute>".
FUNCTIONS = [
    ("config", "load_config"),
    ("cli", "main"),
    ("runner", "run_trace"),
    ("runner", "run_sweep_n"),
    ("runner", "render_csv"),
    ("runner", "time_grid"),
    ("spectral", "gamma0_analytic"),
    ("spectral", "gamma0_derivative"),
    ("spectral", "gamma0_quadrature"),
    ("pulses", "controlled_gamma_quadrature"),
    ("pulses", "pdd_schedule"),
    ("dynamics", "attenuation_functions"),
    ("dynamics", "q_factor"),
    ("qsl", "phi0"),
    ("qsl", "total_variation"),
    ("qsl", "cumulative_total_variation"),
    ("qsl", "qslt_ratio"),
    ("qsl", "qslt_upper_bound"),
    ("qsl", "qslt_general"),
    ("quadrature", "adaptive_panel_quad"),
    ("correlations", "concurrence_x"),
    ("correlations", "concurrence_wootters"),
    ("correlations", "consonance"),
    ("correlations", "discord_singlet"),
]

# (module, class, method, span name)
METHODS = [
    ("pulses", "ControlledDecoherence", "__init__",
     "pulses.ControlledDecoherence.init"),
    ("pulses", "ControlledDecoherence", "__call__",
     "pulses.ControlledDecoherence"),
    ("pulses", "ControlledDecoherence", "derivative",
     "pulses.ControlledDecoherence.derivative"),
]

PACKAGE = "dephasing_pdd"


class SpanRecorder:
    """Flat span store.  ``open``/``close``/``done`` are the only hot-path
    calls."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.enter = array("d")
        self.start = array("d")
        self.end = array("d")
        self.leave = array("d")
        # sparse per-span attributes: (span, key, value)
        self.attr_span = array("i")
        self.attr_key = array("i")
        self.attr_value = array("d")
        self._stack = [-1]
        # wrapper call overhead per span outside enter..leave (calibrate())
        self.call_cost = 0.0
        # scan counter for qsl.tv_scan_rounds_per_segment
        self.tv_depth = 0
        self.tv_array_scans = 0
        self.tv_segments = 0

    def intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def open(self, name_idx: int) -> int:
        self.enter.append(time.perf_counter())
        sid = len(self.name)
        self.name.append(name_idx)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.leave.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def done(self, sid: int):
        """The wrapper's bookkeeping for ``sid`` is over."""
        self.leave[sid] = time.perf_counter()

    def add(self, sid: int, key: str, value: float):
        self.attr_span.append(sid)
        self.attr_key.append(self.intern(key))
        self.attr_value.append(float(value))

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        return (np.asarray(self.name, dtype=np.int32),
                np.asarray(self.parent, dtype=np.int32),
                np.asarray(self.start, dtype=np.float64),
                np.asarray(self.end, dtype=np.float64))

    def covers(self):
        """(enter, leave) of every span: the whole of its wrapper.  A span
        whose wrapper never called ``done`` (a root) leaves at its end."""
        return (np.asarray(self.enter, dtype=np.float64),
                np.maximum(np.asarray(self.leave, dtype=np.float64),
                           np.asarray(self.end, dtype=np.float64)))

    def self_times(self):
        """Duration minus the time covered by direct children's wrappers."""
        _, parent, start, end = self.arrays()
        enter, leave = self.covers()
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent],
                                weights=(leave - enter)[has_parent]
                                + self.call_cost,
                                minlength=len(start))
        return (end - start) - child_sum

    def bookkeeping_s(self):
        """Tracer time outside every span but inside its parent: the part
        of each child's wrapper that no self time includes."""
        _, parent, start, end = self.arrays()
        enter, leave = self.covers()
        child = parent >= 0
        return float(((leave - enter) - (end - start))[child].sum()
                     + self.call_cost * child.sum())

    def aggregate(self):
        """{span name: {"calls", "self_s", "total_s", <attribute sums>}}.

        ``total_s`` sums span durations, children included; no wrapped
        function calls itself, so nothing is counted twice."""
        name, _, start, end = self.arrays()
        self_s = self.self_times()
        out = {}
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        self_sum = np.bincount(name, weights=self_s, minlength=n_names)
        total = np.bincount(name, weights=end - start, minlength=n_names)
        for idx, label in enumerate(self.names):
            if calls[idx]:
                out[label] = {"calls": int(calls[idx]),
                              "self_s": float(self_sum[idx]),
                              "total_s": float(total[idx])}
        if len(self.attr_span):
            spans = np.asarray(self.attr_span, dtype=np.int32)
            keys = np.asarray(self.attr_key, dtype=np.int32)
            values = np.asarray(self.attr_value, dtype=np.float64)
            owner = name[spans]
            combo = owner.astype(np.int64) * n_names + keys
            uniq, inv = np.unique(combo, return_inverse=True)
            sums = np.bincount(inv, weights=values)
            for c, total in zip(uniq, sums):
                label = self.names[int(c) // n_names]
                key = self.names[int(c) % n_names]
                out.setdefault(label, {"calls": 0, "self_s": 0.0})[key] = float(total)
        return out

    def save(self, path):
        name, parent, start, end = self.arrays()
        enter, leave = self.covers()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end, enter=enter, leave=leave,
                 call_cost=self.call_cost,
                 attr_span=np.asarray(self.attr_span, dtype=np.int32),
                 attr_key=np.asarray(self.attr_key, dtype=np.int32),
                 attr_value=np.asarray(self.attr_value, dtype=np.float64))


def _count_points(rec, sid, args, kwargs, result):
    # gamma0_*(p, t, ...): t is the second argument
    t = args[1] if len(args) > 1 else kwargs.get("t")
    rec.add(sid, "points", np.size(t))


def _count_render(rec, sid, args, kwargs, result):
    rec.add(sid, "bytes", len(result.encode("utf-8")))
    rec.add(sid, "rows", len(args[1] if len(args) > 1 else kwargs["rows"]))


def _count_pulse_terms(rec, sid, args, kwargs, result):
    self, t = args[0], args[1] if len(args) > 1 else kwargs["t"]
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    taus = np.asarray(self.schedule.instants, dtype=float)
    rec.add(sid, "points", tt.size)
    rec.add(sid, "pulse_terms", int(np.searchsorted(taus, tt, side="left").sum()))


COUNTERS = {
    "spectral.gamma0_analytic": _count_points,
    "spectral.gamma0_derivative": _count_points,
    "runner.render_csv": _count_render,
    "pulses.ControlledDecoherence": _count_pulse_terms,
    "pulses.ControlledDecoherence.derivative": _count_pulse_terms,
}


class Tracer:
    """Context manager that installs the span wrappers and removes them."""

    def __init__(self, recorder: SpanRecorder):
        self.rec = recorder
        self._undo = []
        self.missing = []

    # -- wrappers -----------------------------------------------------------

    def _plain(self, label, fn):
        rec = self.rec
        idx = rec.intern(label)
        counter = COUNTERS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = rec.open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(sid)
            if counter is not None:
                counter(rec, sid, args, kwargs, result)
            rec.done(sid)
            return result
        return wrapper

    def _total_variation(self, fn):
        rec = self.rec
        idx = rec.intern("qsl.total_variation")
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = rec.open(idx)
            rec.tv_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                rec.tv_depth -= 1
                rec.close(sid)
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                a, b = call.arguments["t_start"], call.arguments["t_end"]
                if call.arguments.get("qdot_of_t") is not None and b > a:
                    rec.tv_segments += 1 + sum(
                        1 for x in call.arguments["breakpoints"] if a < x < b)
                rec.done(sid)
        return wrapper

    def _quadrature(self, fn):
        rec = self.rec
        idx = rec.intern("quadrature.adaptive_panel_quad")
        error_types = getattr(sys.modules.get(f"{PACKAGE}.errors"),
                              "QuadratureError", ArithmeticError)

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            points = 0

            def integrand(x):
                nonlocal points
                points += np.size(x)
                return f(x)

            sid = rec.open(idx)
            try:
                return fn(integrand, *args, **kwargs)
            except error_types:
                rec.add(sid, "errors", 1)
                raise
            finally:
                rec.close(sid)
                rec.add(sid, "points", points)
                rec.done(sid)
        return wrapper

    def _attenuation_functions(self, fn):
        rec = self.rec
        idx = rec.intern("dynamics.attenuation_functions")
        q_idx = rec.intern("dynamics.q_of_t")
        qd_idx = rec.intern("dynamics.qdot_of_t")

        def closure(inner, cidx, is_qdot):
            @functools.wraps(inner)
            def traced(t):
                sid = rec.open(cidx)
                try:
                    return inner(t)
                finally:
                    rec.close(sid)
                    size = np.size(t)
                    rec.add(sid, "points", size)
                    if np.ndim(t) == 0:
                        rec.add(sid, "scalar_calls", 1)
                    elif is_qdot and rec.tv_depth:
                        rec.tv_array_scans += 1
                    rec.done(sid)
            return traced

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = rec.open(idx)
            try:
                q_of_t, qdot_of_t = fn(*args, **kwargs)
            finally:
                rec.close(sid)
            pair = closure(q_of_t, q_idx, False), closure(qdot_of_t, qd_idx, True)
            rec.done(sid)
            return pair
        return wrapper

    def calibrate(self, calls=20000, repeats=5):
        """Set the recorder's ``call_cost``: the time a wrapped no-op
        leaves in its parent's self time per call, beyond an empty loop
        (median of ``repeats``)."""
        costs = []
        for _ in range(repeats):
            probe = SpanRecorder()
            wrapped = Tracer(probe)._plain("perfbench.calibration",
                                           lambda p, t: t)
            root = probe.open(probe.intern("perfbench.calibration.root"))
            for _ in range(calls):
                wrapped(None, 0.0)
            probe.close(root)
            left = float(probe.self_times()[root])
            t0 = time.perf_counter()
            for _ in range(calls):
                pass
            costs.append((left - (time.perf_counter() - t0)) / calls)
        self.rec.call_cost = max(0.0, float(np.median(costs)))
        return self.rec.call_cost

    # -- install / restore --------------------------------------------------

    def _rebind(self, original, wrapper):
        """Replace ``original`` by ``wrapper`` wherever a package module
        holds it by name."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def __enter__(self):
        self.missing = []
        special = {
            "qsl.total_variation": self._total_variation,
            "quadrature.adaptive_panel_quad": self._quadrature,
            "dynamics.attenuation_functions": self._attenuation_functions,
        }
        for mod_name, attr in FUNCTIONS:
            label = f"{mod_name}.{attr}"
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(mod, attr, None) if mod else None
            if original is None:
                self.missing.append(label)
                continue
            make = special.get(label)
            wrapper = make(original) if make else self._plain(label, original)
            self._rebind(original, wrapper)
        for mod_name, cls_name, meth, label in METHODS:
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            cls = getattr(mod, cls_name, None) if mod else None
            original = cls.__dict__.get(meth) if cls else None
            if original is None:
                self.missing.append(label)
                continue
            setattr(cls, meth, self._plain(label, original))
            self._undo.append((cls, meth, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False
