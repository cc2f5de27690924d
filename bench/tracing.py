"""Layer spans for the benchmark's traced run.

The tracer wraps the public entry points of every loaded ``opendecay``
module from outside the package: the names in a module's ``__all__``
(its non-underscore names when it has none), the public methods of the
classes among them, and ``_integrate.integrate``.  Every reference a
loaded ``opendecay`` module holds to a wrapped function is rebound, so
``noise_kernel`` reached through ``qbm.coefficients`` or ``integrate``
imported into ``bloch`` is traced too; ``uninstall`` puts the originals
back.  The right-hand side handed to ``integrate`` is wrapped as well,
so stepper time and time spent in the caller's RHS can be told apart.

A span records name, start, end, parent span and case id.  Spans stay in
memory; the benchmark writes them out when the run ends.  A span's self time is its duration minus
the time its child spans cover.  RHS calls are folded into their
``integrate`` span (a count and a total) instead of becoming spans of
their own, which keeps memory flat over the ~10^5 RHS calls of a pass.

Spans nest on one stack, so traced code must run on one thread; the
benchmark runs the ``qbm_sweep`` pool inline while tracing.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

import numpy as np

PACKAGE = "opendecay"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    case: str | None
    self_s: float


class _Frame:
    __slots__ = ("id", "name", "start", "child", "tau_size")

    def __init__(self, id_, name):
        self.id = id_
        self.name = name
        self.start = 0.0
        self.child = 0.0
        self.tau_size = 0


def layer_of(module_name: str) -> str:
    """``opendecay.qbm.kernels`` -> ``qbm.kernels``; the package itself -> ``opendecay``."""
    if module_name == PACKAGE:
        return PACKAGE
    return module_name[len(PACKAGE) + 1:]


def package_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def public_names(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    if module.__name__ == PACKAGE + "._integrate":
        names = list(names) + ["integrate"]
    return list(dict.fromkeys(names))


def entry_points(module):
    """(owner, attribute, function, span name) for the module's public entry points.

    Only objects defined in ``module`` count, so a re-exported function is
    wrapped once, under the module that defines it.
    """
    layer = layer_of(module.__name__)
    out = []
    for name in public_names(module):
        obj = getattr(module, name, None)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, name, obj, f"{layer}.{name}"))
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    out.append((obj, attr, member, f"{layer}.{name}.{attr}"))
    return out


class Tracer:
    """Installs span-recording wrappers and aggregates spans into layer metrics."""

    def __init__(self):
        self.spans: list[Span] = []
        self.layer: dict[str, str] = {}
        self.counts = defaultdict(int)
        self.rhs_s = 0.0
        self.case: str | None = None
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module in package_modules():
            for owner, attr, fn, span_name in entry_points(module):
                self.layer[span_name] = layer_of(module.__name__)
                wrapper = self._wrap(fn, span_name)
                if inspect.isclass(owner):
                    self._rebind(owner, attr, wrapper)
                else:
                    wrappers[id(fn)] = (fn, wrapper)
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, attr, hit[1])
        return self

    def _rebind(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def reset(self):
        """Drop recorded spans and counts, e.g. between passes."""
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.spans.clear()
        self.counts.clear()
        self.rhs_s = 0.0

    # -- spans --------------------------------------------------------

    def _wrap(self, fn, span_name):
        hook = _HOOKS.get(span_name)
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1].id if stack else None
            frame = _Frame(self._next_id, span_name)
            self._next_id += 1
            stack.append(frame)
            frame.start = perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, frame, fn, args, kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame.start
                if stack:
                    stack[-1].child += duration
                spans.append(Span(frame.id, span_name, frame.start, end, parent,
                                  self.case, duration - frame.child))

        return traced

    def wrap_rhs(self, owner: _Frame, f):
        """Wrap the caller's RHS; its calls and time accrue on ``owner``."""
        stack = self._stack

        def rhs(t, y):
            # a stand-in frame, so spans opened inside the RHS charge it
            # and keep the integrate span as their parent
            mark = _Frame(owner.id, "rhs")
            stack.append(mark)
            mark.start = perf_counter()
            try:
                return f(t, y)
            finally:
                duration = perf_counter() - mark.start
                stack.pop()
                owner.child += duration
                self.counts["_integrate.rhs_evals"] += 1
                self.rhs_s += duration

        return rhs

    def enclosing(self, span_name):
        for frame in reversed(self._stack):
            if frame.name == span_name:
                return frame
        return None

    # -- aggregation --------------------------------------------------

    def layer_metrics(self):
        """The per-layer metrics named in BENCHMARK.json, over the spans recorded so far."""
        self_s = defaultdict(float)
        total = defaultdict(float)
        calls = defaultdict(int)
        by_layer = defaultdict(float)
        for s in self.spans:
            self_s[s.name] += s.self_s
            total[s.name] += s.end - s.start
            calls[s.name] += 1
            by_layer[self.layer[s.name]] += s.self_s
        c = self.counts
        return {
            "integrate.calls": calls["_integrate.integrate"],
            "integrate.rhs_evals": c["_integrate.rhs_evals"],
            "integrate.self_s": self_s["_integrate.integrate"],
            "integrate.rhs_s": self.rhs_s,
            "bloch.self_s": by_layer["bloch"],
            "lindblad.self_s": by_layer["lindblad"],
            "scenarios.self_s": by_layer["scenarios"],
            "spectral.self_s": by_layer["spectral"],
            "qbm.coefficients.theta_calls": calls["qbm.coefficients.theta_coefficients"],
            "qbm.coefficients.theta_self_s": self_s["qbm.coefficients.theta_coefficients"],
            "qbm.coefficients.exact_self_s": self_s["qbm.coefficients.exact_coefficients"],
            "qbm.kernels.noise_points": c["qbm.kernels.noise_points"],
            "qbm.kernels.laplace_points": c["qbm.kernels.laplace_points"],
            "qbm.kernels.noise_s": total["qbm.kernels.noise_kernel"],
            "qbm.propagator.solve_nodes": c["qbm.propagator.solve_nodes"],
            "qbm.propagator.solve_s": total["qbm.propagator.solve_propagator"],
            "qbm.propagator.laplace_s": total["qbm.propagator.propagator_via_laplace"],
            "qbm.propagator.bromwich_entries": c["qbm.propagator.bromwich_entries"],
            "qbm.fock.self_s": by_layer["qbm.fock"],
            "qbm.moments.self_s": by_layer["qbm.moments"],
        }


# Hooks run the wrapped call and record the counts that need its
# arguments or result: hook(tracer, frame, fn, args, kwargs).

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _integrate_hook(tracer, frame, fn, args, kwargs):
    if args:
        return fn(tracer.wrap_rhs(frame, args[0]), *args[1:], **kwargs)
    return fn(**dict(kwargs, f=tracer.wrap_rhs(frame, kwargs["f"])))


def _noise_hook(tracer, frame, fn, args, kwargs):
    tracer.counts["qbm.kernels.noise_points"] += int(np.size(_arg(args, kwargs, 0, "tau")))
    return fn(*args, **kwargs)


def _laplace_hook(tracer, frame, fn, args, kwargs):
    n = int(np.size(_arg(args, kwargs, 0, "s")))
    tracer.counts["qbm.kernels.laplace_points"] += n
    inversion = tracer.enclosing("qbm.propagator.propagator_via_laplace")
    if inversion is not None:
        # each s node of an inversion meets every tau node in the Bromwich sum
        tracer.counts["qbm.propagator.bromwich_entries"] += n * inversion.tau_size
    return fn(*args, **kwargs)


def _solve_hook(tracer, frame, fn, args, kwargs):
    prop = fn(*args, **kwargs)
    tracer.counts["qbm.propagator.solve_nodes"] += int(prop.tau_grid.size)
    return prop


def _laplace_route_hook(tracer, frame, fn, args, kwargs):
    frame.tau_size = int(np.size(_arg(args, kwargs, 3, "tau_grid")))
    return fn(*args, **kwargs)


_HOOKS = {
    "_integrate.integrate": _integrate_hook,
    "qbm.kernels.noise_kernel": _noise_hook,
    "qbm.kernels.mu_laplace": _laplace_hook,
    "qbm.propagator.solve_propagator": _solve_hook,
    "qbm.propagator.propagator_via_laplace": _laplace_route_hook,
}
