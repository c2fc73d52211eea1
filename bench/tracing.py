"""Per-layer spans for the traced benchmark run, recorded from outside the package.

``Tracer.install`` wraps every public function, and every public method of a
public class, defined in the layer modules, and rebinds each reference to it
held by any loaded ``sdcnoise`` module, so calls between modules pass through
the wrappers too.  Private helpers and constructors are not wrapped: their
time counts toward the public function that called them.

A layer's self time is its spans' duration minus the time of the spans they
enclose.  Spans record only while ``active`` is set, which the runner does
around each timed operation, so checks and set-up add nothing.  Counters are
updated at the same boundaries from each call's arguments and result.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import Counter
from time import perf_counter

LAYERS = ("tables", "noise", "redundancy", "attacks", "utility", "accounting", "cli")


def _arg(args, kwargs, position: int, name: str, default=None):
    return args[position] if len(args) > position else kwargs.get(name, default)


def _irr_cells(args, kwargs, result):
    output, irr, target = (_arg(args, kwargs, i, n) for i, n in enumerate(("output", "irr", "target")))
    return {
        "attacks.irr_evals": 1,
        "attacks.cells_visited": len(output.tables[(irr.table_id, target.breakdown_ids | irr.summed_out)]),
    }


def _convolve_mults(args, kwargs, result):
    # multiplications of the two direct convolutions pmf*pmf and (pmf*pmf)*pmf,
    # computed from the pmf length, not counted inside the library
    length = len(_arg(args, kwargs, 0, "pmf"))
    return {"attacks.convolve_mults": length * length + (2 * length - 1) * length}


# qualified function name -> counter increments from (args, kwargs, result)
COUNTERS = {
    "tables.tabulate": lambda a, k, r: {"tables.record_visits": _arg(a, k, 1, "data").n},
    "tables.cell_records": lambda a, k, r: {"tables.record_visits": _arg(a, k, 1, "data").n},
    "noise.sample_noise": lambda a, k, r: {"noise.values_drawn": _arg(a, k, 2, "count")},
    "noise.gen_ptable": lambda a, k, r: {"noise.ptables_built": 1},
    "noise.cell_key": lambda a, k, r: {"noise.cell_keys": 1},
    "redundancy.enumerate_irrs": lambda a, k, r: {"redundancy.irrs_enumerated": len(r)},
    "attacks.irr_value": _irr_cells,
    "attacks.p1_exact": _convolve_mults,
    "attacks.averaging_mc": lambda a, k, r: {
        "attacks.mc_draws": _arg(a, k, 1, "k") * _arg(a, k, 3, "trials")
    },
    "attacks.bound_disclosure_mc": lambda a, k, r: {
        "attacks.mc_draws": 3 * _arg(a, k, 1, "m") * _arg(a, k, 2, "streams")
    },
    "attacks.margin_exploit_mc": lambda a, k, r: {
        "attacks.mc_draws": _arg(a, k, 1, "count") * (1 + _arg(a, k, 3, "n_internal", 2))
    },
    "attacks.run_averaging_attack": lambda a, k, r: {
        "attacks.cells_attacked": 1,
        "attacks.cells_recovered": r.mc_successes,
    },
    "utility.scan_ve": lambda a, k, r: {"utility.grid_cells": len(r.cells)},
    "utility.scan_eps": lambda a, k, r: {"utility.grid_cells": len(r.cells)},
    "utility.observations_histogram": lambda a, k, r: {"utility.areas_processed": len(_arg(a, k, 0, "areas"))},
    "utility.sample_distortions": lambda a, k, r: {"utility.areas_processed": len(_arg(a, k, 0, "areas"))},
}


class Tracer:
    """Span stack, per-layer totals and counters for one traced run."""

    def __init__(self):
        self.active = False
        self.self_s = Counter()
        self.calls = Counter()
        self.errors = Counter()
        self.counts = Counter()
        self.top_s = 0.0  # time covered by outermost spans
        self._stack: list[list] = []  # [layer, time of enclosed spans]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, qualname: str):
        hook = COUNTERS.get(qualname)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if len(stack) < 2 or stack[-2][0] != layer:
                    self.errors[layer] += 1  # the exception leaves this module
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_s += elapsed
            if hook is not None:
                self.counts.update(hook(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"sdcnoise.{layer}"]
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrappers[obj] = self._wrap(obj, layer, f"{layer}.{name}")
                elif isinstance(obj, type):
                    self._wrap_methods(obj, layer)
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "sdcnoise"]:
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def _wrap_methods(self, cls: type, layer: str) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qualname = f"{layer}.{cls.__name__}.{name}"
            if isinstance(member, types.FunctionType):
                wrapped = self._wrap(member, layer, qualname)
            elif isinstance(member, classmethod):
                wrapped = classmethod(self._wrap(member.__func__, layer, qualname))
            else:
                continue
            self._restore.append((cls, name, member))
            setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
