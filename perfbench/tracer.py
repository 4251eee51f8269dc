"""Per-layer timing of ``shimorin_lab`` from outside the package.

``Tracer.install()`` replaces each public function listed in ``LAYERS`` with
a timing wrapper. Modules bind functions with ``from .x import y``, so every
module attribute across ``shimorin_lab.*`` that *is* the original object is
replaced, and methods are replaced on their class. ``Tracer.restore()`` puts
every original back. Spans nest: a function's self time is its span time
minus the time of the traced calls made inside it, so the private helpers
(``_gridquad``, the resolvent, the polar field) count toward their callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> public callables timed in it ("Class.method" for methods)
LAYERS = {
    "cli": ["main", "parse_measure"],
    "classify": ["region_grid", "region_verdict", "standard_estimate"],
    "measure": ["critical_index", "singular_moment", "carleson_constant",
                "hyperbolic_integral", "total_mass", "RadialMeasure.pushforward_rule"],
    "multiplier": ["moment_prefix", "moments_at", "claim1_envelope"],
    "kernel": ["eval_kernel", "eval_dz", "double_integral_eval", "kernel_lp_norm",
               "pnorm_envelope", "hermitian_report", "ratio_bound_report",
               "universal_size_report", "representation_report",
               "cz_pointwise_reports", "envelope_reports"],
    "operator": ["apply_multiplier", "apply_quadrature", "apply_radial",
                 "TaylorFunction.from_array"],
    "diskquad": ["lp_norm", "weak_norm", "bloch_seminorm", "integrate",
                 "DiskRule.make", "DiskRule.iter_blocks"],
    "testfns": ["indicator_response", "ratio_experiment", "ratio_sweep",
                "realpart_bound_reports", "subharmonic_transfer_report"],
}

# work counters: name -> (unit, better)
COUNTERS = {
    "kernel.eval_kernel.pairs": ("count", "lower"),
    "kernel.double_integral_eval.pairs": ("count", "lower"),
    "multiplier.moment_prefix.indices": ("count", "lower"),
    "multiplier.moment_prefix.repeat_frac": ("frac", "higher"),
    "testfns.indicator_response.coeffs": ("count", "lower"),
    "operator.TaylorFunction.from_array.coeffs": ("count", "lower"),
    "diskquad.nodes": ("count", "lower"),
    "measure.RadialMeasure.pushforward_rule.nodes": ("count", "lower"),
    "classify.region_grid.cells": ("count", "lower"),
    "cli.main.out_bytes": ("bytes", "lower"),
}


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for layer in LAYERS:
        specs += [(f"{layer}.self_s", "s", "lower"), (f"{layer}.share", "frac", "lower"),
                  (f"{layer}.raised", "count", "lower")]
    specs += [(name, unit, better) for name, (unit, better) in COUNTERS.items()]
    specs += [("other.self_s", "s", "lower"), ("other.share", "frac", "lower"),
              ("traced.ops_per_s", "1/s", "higher")]
    for layer, names in LAYERS.items():
        for fn in names:
            specs += [(f"{layer}.{fn}.calls", "count", "lower"),
                      (f"{layer}.{fn}.self_s", "s", "lower")]
    return specs


# Counter hooks see the call's arguments by parameter name, defaults applied.

def _pairs(a: dict, result) -> dict:
    return {"pairs": int(np.broadcast(np.asarray(a["z"]), np.asarray(a["lam"])).size)}


def _rule_nodes(a: dict, result) -> dict:
    return {"@diskquad.nodes": a["rule"].node_count()}


def _bloch_nodes(a: dict, result) -> dict:
    return {"@diskquad.nodes": (a["radial_depth"] + 1) * a["angular_count"]}


# function key -> counter hook(arguments, result) -> {suffix or "@full.name": amount}
_HOOKS = {
    "kernel.eval_kernel": _pairs,
    "kernel.double_integral_eval": _pairs,
    "multiplier.moment_prefix": lambda a, r: {"indices": int(a["N"]) + 1},
    "testfns.indicator_response": lambda a, r: {"coeffs": r.degree + 1},
    "operator.TaylorFunction.from_array": lambda a, r: {"coeffs": int(np.size(a["coeffs"]))},
    "diskquad.lp_norm": _rule_nodes,
    "diskquad.weak_norm": _rule_nodes,
    "diskquad.integrate": _rule_nodes,
    "diskquad.bloch_seminorm": _bloch_nodes,
    "measure.RadialMeasure.pushforward_rule": lambda a, r: {"nodes": int(r[0].size)},
    "classify.region_grid": lambda a, r: {"cells": len(r)},
}


class Tracer:
    """Installs timing wrappers, accumulates per-function self time and counts."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.raised = defaultdict(int)
        self.counts = defaultdict(float)
        self._stack: list[float] = []   # child time accumulated per open span
        self._patched: list[tuple[object, str, object]] = []
        self._prefix_keys: set = set()
        self._prefix_repeats = 0
        self.hook_errors: dict[str, str] = {}

    # -- spans ----------------------------------------------------------------

    def _enter(self, key: str) -> float:
        self.calls[key] += 1
        return self._resume()

    def _exit(self, key: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        children = self._stack.pop()
        self.self_s[key] += elapsed - children
        if self._stack:
            self._stack[-1] += elapsed

    def _resume(self) -> float:
        # also used alone for a generator resumption, which is not a new call
        self._stack.append(0.0)
        return time.perf_counter()

    def _count(self, key: str, sig: inspect.Signature, args, kwargs, result) -> None:
        # a hook that no longer fits the function's signature is reported, and
        # never changes the outcome of the traced call
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            amounts = _HOOKS[key](bound.arguments, result)
            if key == "multiplier.moment_prefix":
                prefix = (bound.arguments["mu"], int(bound.arguments["N"]))
                self._prefix_repeats += prefix in self._prefix_keys
                self._prefix_keys.add(prefix)
        except Exception as exc:
            self.hook_errors[key] = f"{type(exc).__name__}: {exc}"
            return
        for name, amount in amounts.items():
            full = name[1:] if name.startswith("@") else f"{key}.{name}"
            self.counts[full] += amount

    def _wrap(self, key: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[key] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        start = self._resume()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        except BaseException:
                            self.raised[key] += 1
                            raise
                        finally:
                            self._exit(key, start)
                        yield item
                finally:
                    inner.close()
            return gen_wrapper

        sig = inspect.signature(fn) if key in _HOOKS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._enter(key)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[key] += 1
                raise
            finally:
                self._exit(key, start)
            if sig is not None:
                self._count(key, sig, args, kwargs, result)
            return result
        return wrapper

    # -- install / restore ------------------------------------------------------

    def install(self) -> None:
        homes = {layer: importlib.import_module(f"shimorin_lab.{layer}") for layer in LAYERS}
        modules = [m for name, m in sorted(sys.modules.items()) if m is not None
                   and (name == "shimorin_lab" or name.startswith("shimorin_lab."))]
        for layer, names in LAYERS.items():
            home = homes[layer]
            for name in names:
                key = f"{layer}.{name}"
                if "." in name:
                    cls, method = name.split(".")
                    self._patch_method(key, getattr(home, cls), method)
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(key, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def _patch_method(self, key: str, cls, attr: str) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(key, original.__func__))
        else:
            replacement = self._wrap(key, original)
        self._patched.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- report -----------------------------------------------------------------

    def metrics(self, op_time_s: float, ops_per_s: float, out_bytes: int) -> dict[str, float]:
        """Every name of ``metric_specs()`` with its value for this run."""
        values: dict[str, float] = {}
        traced_total = 0.0
        for layer, names in LAYERS.items():
            keys = [f"{layer}.{n}" for n in names]
            layer_self = sum(self.self_s[k] for k in keys)
            traced_total += layer_self
            values[f"{layer}.self_s"] = layer_self
            values[f"{layer}.share"] = layer_self / op_time_s if op_time_s > 0 else 0.0
            values[f"{layer}.raised"] = float(sum(self.raised[k] for k in keys))
            for k in keys:
                values[f"{k}.calls"] = float(self.calls[k])
                values[f"{k}.self_s"] = self.self_s[k]
        for name in COUNTERS:
            values[name] = float(self.counts[name])
        prefix_calls = self.calls["multiplier.moment_prefix"]
        values["multiplier.moment_prefix.repeat_frac"] = (
            self._prefix_repeats / prefix_calls if prefix_calls else 0.0)
        values["cli.main.out_bytes"] = float(out_bytes)
        values["other.self_s"] = max(op_time_s - traced_total, 0.0)
        values["other.share"] = values["other.self_s"] / op_time_s if op_time_s > 0 else 0.0
        values["traced.ops_per_s"] = ops_per_s
        return values
