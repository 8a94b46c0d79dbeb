"""Span tracer that wraps fay-lab's public functions from outside the package.

Every wrapped call records one span: a name (``<layer>.<qualname>``), the
index of the span that was open when it started (its parent), start and
end times, and the exception class if one escaped.  Spans are kept in flat
arrays in memory, which keeps the trace of a full suite pass small.

Installing the tracer replaces each public function in every module
namespace that holds it: ``from .theta import theta_batch`` binds copies
of the same object in ``curves``, ``kernels`` and ``identities`` (and the
benchmark's own modules import names the same way), and the package
itself re-exports ``theta`` under the name of its module.  Modules are
therefore resolved with ``importlib``, never by attribute lookup on the
package.  Methods are replaced on their class.  ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("theta", "curves", "kernels", "identities", "quasidet", "quartic", "rng")

#: spans opened by the benchmark itself (setup and check roots)
ROOT_LAYER = "bench"


def _row_count(args, kwargs):
    Z = args[0] if args else kwargs["Z"]
    return len(np.atleast_2d(np.asarray(Z)))


#: per-call sizes recorded next to the span count, by span name
_SIZERS = {"theta.theta_batch": _row_count}


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.size = array("l")
        self.errors = {}
        self._stack = [-1]
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name):
        """A callable that runs ``fn`` inside a span called ``name``."""
        nid = self._name_id(name)
        name_ap, parent_ap, t0_ap = self.name.append, self.parent.append, self.t0.append
        t1, size_ap = self.t1, self.size.append
        stack, errors, clock = self._stack, self.errors, time.perf_counter
        sizer = _SIZERS.get(name)

        def traced(*args, **kwargs):
            idx = len(t1)
            name_ap(nid)
            parent_ap(stack[-1])
            t1.append(0.0)
            size_ap(sizer(args, kwargs) if sizer is not None else 0)
            stack.append(idx)
            t0_ap(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as ex:
                errors[idx] = type(ex).__name__
                raise
            finally:
                t1[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def in_root(self, phase, fn, *args):
        """Call ``fn(*args)`` inside a top-level span ``bench.<phase>``."""
        return self.wrap(fn, f"{ROOT_LAYER}.{phase}")(*args)

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions, and the public methods and hand-written
        constructors of public classes, defined in each layer's module."""
        modules = [importlib.import_module(f"faylab.{layer}") for layer in LAYERS]
        # every module namespace (the package, its modules, and callers
        # such as the benchmark's own) that binds each function
        holders = {}
        for ns in list(sys.modules.values()):
            for key, val in list(getattr(ns, "__dict__", {}).items()):
                if inspect.isfunction(val):
                    holders.setdefault(id(val), []).append((ns, key))
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    traced = self.wrap(obj, f"{layer}.{attr}")
                    for ns, key in holders[id(obj)]:
                        self._set(ns, key, traced)
                elif inspect.isclass(obj):
                    for meth, fn in sorted(vars(obj).items()):
                        if not inspect.isfunction(fn):
                            continue
                        own_init = (meth == "__init__"
                                    and fn.__code__.co_filename == mod.__file__)
                        if own_init or not meth.startswith("_"):
                            self._set(obj, meth, self.wrap(fn, f"{layer}.{attr}.{meth}"))

    def wrap_trials(self, specs):
        """Wrap each identity spec's runner: one ``<layer>.trial`` span per
        attempt, in the layer of the module that defines the runner."""
        for spec in specs:
            layer = spec.runner.__module__.rsplit(".", 1)[-1]
            self._set(spec, "runner", self.wrap(spec.runner, f"{layer}.trial"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


class SpanTable:
    """Per-span arrays (name, parent, duration, self time) of a finished trace."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name = np.array(tracer.name, dtype=np.int64)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.size = np.array(tracer.size, dtype=np.int64)
        self.dur = np.array(tracer.t1) - np.array(tracer.t0)
        child = np.zeros(len(self.dur))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.errors = dict(tracer.errors)
        layer_of = np.array([n.split(".", 1)[0] for n in self.names])
        self.layer = layer_of[self.name]

    def root_range(self, phase):
        """(index of the root span, slice of its descendants)."""
        nid = self.names.index(f"{ROOT_LAYER}.{phase}")
        idx = int(np.flatnonzero((self.name == nid) & (self.parent < 0))[-1])
        roots = np.flatnonzero(self.parent < 0)
        later = roots[roots > idx]
        end = int(later[0]) if len(later) else len(self.name)
        return idx, slice(idx + 1, end)

    def mask(self, name, within):
        """Boolean mask of spans called ``name`` inside the slice ``within``."""
        out = np.zeros(len(self.name), dtype=bool)
        if name in self.names:
            out[within] = self.name[within] == self.names.index(name)
        return out
