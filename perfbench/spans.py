"""In-memory span tracing around the public functions of each acdcdyn layer.

The wrappers live here, in the benchmark, and are installed by replacing
module attributes; nothing under ``src/`` is edited.  Because a module's
functions look each other up through the module namespace, a call from one
layer into another (``system.build`` -> ``kron_reduce_symbolic``) goes
through the wrapper too.  Spans are kept in a list and written when the run
ends.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from dataclasses import dataclass

#: Namespaces whose public functions are wrapped.
LAYERS = ("lti", "units", "network", "system", "analysis", "cli")

#: Per-coefficient helpers: wrapping them would cost more than they do.
SKIP = {"poly_from_roots", "tf_eval"}


@dataclass
class Span:
    name: str          # "<defining layer>.<function>"
    start: float       # perf_counter seconds
    end: float
    parent: int        # index of the enclosing span, -1 at top level
    op: int            # operation id the span belongs to
    ok: bool           # False when the call raised
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _n_states(ss) -> int:
    return ss.A.shape[0]


def _build_attrs(args, kwargs, model) -> dict:
    A = model.ss.A
    norm = float((A * A).sum()) ** 0.5 if A.size else 0.0
    return {"n_states": _n_states(model.ss),
            "log10_norm_A": math.log10(norm) if norm > 0 else 0.0}


def _freq_attrs(args, kwargs, fr) -> dict:
    # computed, not measured: one dense complex solve per point ~ n^3
    n = _n_states(args[0])
    return {"flop": len(fr.omega) * n ** 3}


def _step_attrs(args, kwargs, ts) -> dict:
    # computed, not measured: one state update (n^2) and one output map (p n)
    # per step
    ss = args[0]
    n, p = _n_states(ss), ss.C.shape[0]
    return {"flop": (len(ts.t) - 1) * n * (n + p)}


ATTRS = {"system.build": _build_attrs,
         "lti.freq_response": _freq_attrs,
         "lti.step_response": _step_attrs}


class Tracer:
    """Records spans for every call to a wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        post = ATTRS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                attrs = post(args, kwargs, out) if ok and post else None
                spans[idx] = Span(name, t0, t1, parent, tracer.op, ok, attrs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _wrapper_for(self, fn, name: str):
        w = self._wrappers.get(id(fn))
        if w is None:
            w = self._wrappers[id(fn)] = self._wrap(fn, name)
        return w

    def install(self) -> None:
        """Wrap the public functions of every layer namespace, plus
        ``RationalTF.simplify``."""
        for layer in LAYERS:
            mod = importlib.import_module(f"acdcdyn.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or attr in SKIP
                        or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("acdcdyn.")):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                self._replace(mod, attr, self._wrapper_for(obj, name))
        lti = importlib.import_module("acdcdyn.lti")
        self._replace(lti.RationalTF, "simplify", self._wrap(
            lti.RationalTF.simplify, "lti.RationalTF.simplify"))

    def _replace(self, owner, attr: str, new) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._installed):
            setattr(owner, attr, old)
        self._installed.clear()

    def records(self) -> list[dict]:
        return [s.__dict__ for s in self.spans]


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.seconds
    return own
