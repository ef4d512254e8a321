"""Call tracer for the benchmark's traced run.

The tracer wraps the public functions of every ``anisocurve`` module from
outside the package: nothing under ``src/`` changes.  A function is
rebound wherever a caller looks it up, so ``solve`` is replaced in
``anisocurve.solver``, in ``anisocurve.cli``, in ``anisocurve.regularity``
and in the package root, which each hold their own name for it; methods
are replaced on their class.

Every wrapped call adds to per-function totals (calls, busy time, self
time, exceptions).  Calls of the functions in ``SPAN_FUNCTIONS`` (solves,
diagnostics, CLI commands) also become spans with their parent span and
the job they belong to; the per-iteration kernel calls made inside a span
are aggregated under it as counts and busy time rather than recorded one
by one.  Everything stays in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path

import numpy as np

LAYER_MODULES = {
    "anisotropy": "anisotropy",
    "energy": "energy",
    "solver": "solver",
    "regularity": "regularity",
    "classifier": "classifier",
    "geometry": "geometry",
    "threshold": "threshold",
    "cli": "cli",
    "problem": "cli",
    "svg": "cli",
}

# public methods, wrapped on their class: name in the trace -> (module, class, method)
METHODS = {
    "anisotropy.eval_many": ("anisotropy", "Anisotropy", "eval_many"),
    "anisotropy.eval_dual_many": ("anisotropy", "Anisotropy", "eval_dual_many"),
    "anisotropy.project_wulff_many": ("anisotropy", "Anisotropy", "project_wulff_many"),
    "anisotropy.normal_contact_point": ("anisotropy", "Anisotropy", "normal_contact_point"),
    "anisotropy.face_mask": ("anisotropy", "Anisotropy", "face_mask"),
    "anisotropy.wulff_measures": ("anisotropy", "Anisotropy", "wulff_measures"),
    "anisotropy.wulff_sample": ("anisotropy", "Anisotropy", "wulff_sample"),
    "anisotropy.symmetry_flags": ("anisotropy", "Anisotropy", "symmetry_flags"),
    "energy.GSpec.sample": ("energy", "GSpec", "sample"),
}

SPAN_FUNCTIONS = frozenset(
    {
        "solver.solve",
        "regularity.refinement_study",
        "regularity.tangent_ball_check",
        "regularity.lipschitz_report",
        "classifier.cahn_hoffman",
        "threshold.sigma_threshold",
        "geometry.vertical_rearrangement",
        "cli.main",
        "cli.cmd_wulff",
        "cli.cmd_threshold",
        "cli.cmd_solve",
        "cli.cmd_diagnose",
        "cli.cmd_classify",
        "cli.cmd_rearrange",
    }
)


def _public_functions(module):
    """(trace name, function) for the plain functions a module defines."""
    short = module.__name__.rsplit(".", 1)[1]
    names = list(getattr(module, "__all__", []))
    if short == "cli":
        names += [n for n in vars(module) if n.startswith("cmd_")] + ["main"]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield f"{short}.{name}", obj


class Tracer:
    """Wraps the package's public API and aggregates what the calls did."""

    def __init__(self):
        self.totals = {}  # name -> [calls, busy_s, self_s]
        self.errors = {}  # "name:ExceptionType" -> count
        self.counters = {}  # derived counts filled in by result hooks
        self.spans = []
        self.job = None
        self.paused = False
        self._stack = []  # frames: [name, child_s, span or None]
        self._restore = []  # (owner, attribute, original)
        self._hooks = {
            "solver.solve": self._after_solve,
            "anisotropy.project_wulff_many": self._after_projection,
            "classifier.cahn_hoffman": self._after_classify,
        }

    # -- installation ---------------------------------------------------

    def install(self):
        """Rebind every public function and method to a traced wrapper."""
        pkg = importlib.import_module("anisocurve")
        modules = [pkg] + [
            importlib.import_module(f"anisocurve.{m}") for m in LAYER_MODULES
        ]
        wrappers = {}  # id(original) -> wrapper
        for mod in modules[1:]:
            for name, fn in _public_functions(mod):
                wrappers[id(fn)] = self._wrap(fn, name)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for name, (mod_name, cls_name, meth) in METHODS.items():
            cls = getattr(importlib.import_module(f"anisocurve.{mod_name}"), cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, name))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name):
        layer = LAYER_MODULES[name.split(".", 1)[0]]
        key = f"{layer}.{name.split('.', 1)[1]}"
        is_span = name in SPAN_FUNCTIONS
        hook = self._hooks.get(name)
        stack = self._stack
        totals = self.totals
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = None
            if is_span:
                parent = next((f[2]["id"] for f in reversed(stack) if f[2]), None)
                span = {"id": len(self.spans), "job": self.job, "name": key,
                        "parent": parent, "kernels": {}}
                self.spans.append(span)
            frame = [key, 0.0, span]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                err = f"{key}:{type(exc).__name__}"
                self.errors[err] = self.errors.get(err, 0) + 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                tot = totals.get(key)
                if tot is None:
                    tot = totals[key] = [0, 0.0, 0.0]
                tot[0] += 1
                tot[1] += dt
                tot[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if span is not None:
                    span["start"], span["end"] = t0, t1
                else:
                    owner = next((f[2] for f in reversed(stack) if f[2]), None)
                    if owner is not None:
                        agg = owner["kernels"].setdefault(key, [0, 0.0])
                        agg[0] += 1
                        agg[1] += dt
            if hook is not None:
                h0 = perf()
                hook(result, args, kwargs)
                if stack:  # tracing cost, kept out of the caller's self time
                    stack[-1][1] += perf() - h0
            return result

        return traced

    # -- result hooks (run outside the timed interval of the call) -------

    def _count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _after_solve(self, report, args, kwargs):
        self._count("solver.iterations", report.iterations)
        self._count("solver.converged", int(report.converged))

    def _after_projection(self, out, args, kwargs):
        x = np.asarray(args[1], dtype=float)
        self._count("anisotropy.project_wulff_many.rows_in", len(x))
        self._count("anisotropy.project_wulff_many.rows_changed",
                    int(np.count_nonzero(np.any(out != x, axis=-1))))

    def _after_classify(self, result, args, kwargs):
        self._count("classifier.feasible", int(result.feasible))

    # -- reporting --------------------------------------------------------

    def snapshot(self):
        """Copy of the aggregates collected so far."""
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "errors": dict(self.errors),
            "counters": dict(self.counters),
        }

    def write(self, path, extra=None):
        payload = {"snapshot": self.snapshot(), "spans": self.spans, **(extra or {})}
        Path(path).write_text(json.dumps(payload) + "\n")
