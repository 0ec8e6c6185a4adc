"""In-memory call tracer for the weinstein package, installed from outside.

``install`` wraps every public function of the package's modules (plus the
lazily built radial kernel cache of ``TransformPlan``).  The wrapper replaces
the function in *every* module namespace that holds it, so calls made through
``from .x import f`` imports are seen too.  Each call records a span
``[name, parent index, start, end]``; spans stay in memory until ``dump``.

Calls made through stored references (for example the profile callables a
``MultiplierProfile`` keeps) are not intercepted; their time counts as self
time of the calling span.

A few functions carry hooks that count work at the boundary: argument
fingerprints (how many calls repeat an earlier input), point pairs, array
sizes and bytes written.  Hooks run inside a ``trace.hook`` span so their
cost does not inflate the caller's self time.
"""

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "weinstein"
MODULES = ("core", "bessel", "_accel", "transform", "interp", "multiplier",
           "uncertainty", "translation", "report", "cli")
# cached properties traced like functions: (module, class, attribute)
PROPERTIES = (("transform", "TransformPlan", "kernel_cache"),)
HOOK_SPAN = "trace.hook"


def span_name(module, attr):
    """Metric-safe span name: ``_accel.j_alpha`` becomes ``accel.j_alpha``."""
    return f"{module.lstrip('_')}.{attr}"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self.fingerprints = defaultdict(set)
        self.wrapped = []
        self.hook_errors = {}
        self._keys = {}

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` wrapped in a span; ``hook(tracer, args, result)``
        runs after the call with the argument values in signature order
        (defaults filled in), so renamed parameters do not break it."""
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                h = self._open(HOOK_SPAN)
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, list(bound.arguments.values()), result)
                except (IndexError, AttributeError, TypeError) as exc:
                    # a changed signature loses the count, not the run
                    self.hook_errors[name] = repr(exc)
                finally:
                    self._close(h)
            return result

        return traced

    def key_of(self, obj, make):
        """Memoized fingerprint of a long-lived object (plans, profiles);
        the object is kept alive so its id cannot be reused."""
        entry = self._keys.get(id(obj))
        if entry is None:
            entry = self._keys[id(obj)] = (obj, make(obj))
        return entry[1]

    def summary(self):
        """Per-span-name calls, inclusive and self seconds."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, _parent, start, end), child in zip(self.spans, covered):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child
        return out

    def dump(self, path):
        doc = {
            "wrapped": self.wrapped,
            "hook_errors": self.hook_errors,
            "functions": self.summary(),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "unique": {k: len(v) for k, v in self.fingerprints.items()},
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# hooks: work counted where it happens
# ---------------------------------------------------------------------------

def _digest(*arrays):
    import numpy as np

    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.data)
    return h.hexdigest()


def _plan_key(plan):
    g = plan.grid_in
    return _digest(*g.axes) + repr((g.params, g.radial_scheme,
                                    plan.normalization, plan.method))


def _profile_key(profile):
    return _digest(profile.symbol.values, profile.sigma_grid.sigmas,
                   profile.sigma_grid.log_weights)


def _forward_hook(tr, args, _result):
    plan, f = args[:2]
    tr.fingerprints["transform.forward"].add(
        (tr.key_of(plan, _plan_key), _digest(f.values)))


def _sweep_hook(tr, args, _result):
    plan, profile, phi = args[:3]
    tr.fingerprints["multiplier.multiplier_sweep"].add(
        (tr.key_of(plan, _plan_key), tr.key_of(profile, _profile_key),
         _digest(phi.values), repr(args[3:])))
    nbytes = len(profile.sigma_grid) * plan.grid_in.size * 16
    tr.maxima["multiplier.sweep.bytes"] = max(
        tr.maxima["multiplier.sweep.bytes"], nbytes)


def _quadrature_hook(tr, args, _result):
    plan = args[0]
    tr.counters["transform.direct_quadrature.pairs"] += \
        plan.grid_in.size * plan.grid_out.size


def _j_alpha_hook(tr, args, _result):
    import numpy as np

    tr.counters["accel.j_alpha.args"] += int(np.size(args[1]))


def _emit_hook(tr, _args, result):
    tr.counters["report.emit.bytes"] += sum(os.path.getsize(p)
                                            for p in result)


HOOKS = {
    "transform.forward": _forward_hook,
    "multiplier.multiplier_sweep": _sweep_hook,
    "transform.direct_quadrature": _quadrature_hook,
    "accel.j_alpha": _j_alpha_hook,
    "report.emit": _emit_hook,
}


def install(tracer):
    """Wrap the package's public functions and traced properties; modules
    that no longer exist are skipped (the caller compares the names it
    needs against ``tracer.wrapped``)."""
    modules = {}
    for short in MODULES:
        try:
            modules[short] = importlib.import_module(f"{PACKAGE}.{short}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{PACKAGE}.{short}":
                raise
            continue
    targets = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                targets[obj] = span_name(short, attr)
    namespaces = [m for name, m in list(sys.modules.items())
                  if name == PACKAGE or name.startswith(PACKAGE + ".")]
    wrappers = {fn: tracer.wrap(name, fn, HOOKS.get(name))
                for fn, name in targets.items()}
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(ns, attr, wrappers[obj])
    tracer.wrapped = sorted(targets.values())

    for short, cls_name, attr in PROPERTIES:
        cls = getattr(modules.get(short), cls_name, None)
        prop = vars(cls).get(attr) if cls is not None else None
        if isinstance(prop, functools.cached_property):
            name = span_name(short, f"{cls_name}.{attr}")
            new = functools.cached_property(tracer.wrap(name, prop.func))
            new.__set_name__(cls, attr)
            setattr(cls, attr, new)
            tracer.wrapped.append(name)
