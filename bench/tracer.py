"""Span recording around the public functions of the qspr modules.

The benchmark traces the program from outside: it replaces every public
module-level function of each qspr module by a timing wrapper, in the
defining module and in every qspr module that imported it by name, so calls
made through either name are recorded. Spans (name, start, end, parent, extra)
stay in memory and are written once, when the traced process ends.

Pool workers forked by ``simulate.run_ensemble`` inherit the wrappers, but the
spans they record never reach the parent; traced numbers of a pooled run come
from the parent process only.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import resource
import time
from pathlib import Path

# The layers of src/qspr, in dependency order; span names are "<layer>.<function>".
LAYERS = ("spr_optics", "kinetics", "probes", "oracle", "fit", "simulate", "cases", "cli")


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _lm_extra(args, kwargs, result, before):
    return {"params": len(args[1]), "iters": result.iterations, "converged": result.converged}


def _fit_extra(args, kwargs, result, before):
    values = (result.k_a, result.k_s, result.k_d)
    return {"ok": bool(result.converged and all(math.isfinite(v) for v in values))}


def _ensemble_before(args, kwargs):
    return _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)


def _ensemble_extra(args, kwargs, result, before):
    workers = kwargs.get("workers", 1)
    self0, children0 = before
    # a pooled ensemble's work runs in reaped worker processes, a serial one here
    cpu = _cpu(resource.RUSAGE_CHILDREN) - children0 if workers > 1 else _cpu(resource.RUSAGE_SELF) - self0
    return {
        "fits": result.total_fits,
        "failed": result.failed_fit_count,
        "unreliable": result.unreliable,
        "workers": workers,
        "cpu_s": cpu,
    }


# name -> (hook run before the call or None, hook giving the span's extra data)
HOOKS = {
    "fit.lm_solve": (None, _lm_extra),
    "fit.fit_sensorgram": (None, _fit_extra),
    "simulate.run_ensemble": (_ensemble_before, _ensemble_extra),
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before_hook, extra_hook = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = before_hook(args, kwargs) if before_hook else None
            index = len(spans)
            spans.append(None)  # reserve the id so children can name their parent
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[index] = (name, start, clock(), parent, {"error": type(exc).__name__})
                raise
            finally:
                stack.pop()
            end = clock()
            extra = extra_hook(args, kwargs, result, before) if extra_hook else None
            spans[index] = (name, start, end, parent, extra)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every public function of every layer; returns the span names."""
        modules = [importlib.import_module(f"qspr.{layer}") for layer in LAYERS]
        replacements, names = {}, []
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                names.append(f"{layer}.{attr}")
                replacements[obj] = self.wrap(names[-1], obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    setattr(module, attr, replacements[obj])
        return names

    def dump(self, path: Path, **fields) -> None:
        if self._stack:
            raise RuntimeError("spans still open; dump after the traced call returns")
        doc = {"run_id": self.run_id, **fields, "spans": self.spans}
        Path(path).write_text(json.dumps(doc))


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, extra in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (name, start, end, parent, extra) in enumerate(spans)]
