"""Span tracing of the twospin package from outside it.

`Tracer.install` replaces each traced public function, at every module
attribute that binds it, by a wrapper that records one span per call. The
binding sites matter because `cli`, `phases`, `evolution` and `twocycle` import
names with `from .x import`: wrapping only the defining module would miss those
calls. `Operator4` and `TwoSpinState` are traced through `__post_init__`, their
validation step. `Tracer.uninstall` puts the originals back.

Spans are kept in memory, in one flat float64 buffer per thread, and turned
into per-layer statistics (and optionally written out) after the traced pass.
Each thread keeps its own stack of open spans; a span opened on a thread with
an empty stack (a sweep pool worker) takes the innermost open span of the
installing thread, the running `cmd_sweep`, as its parent.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array

import numpy as np

TRACED = {
    "core": ("Operator4", "TwoSpinState"),
    "hamiltonian": ("h_total", "h_rotating_frame", "frame_rotation"),
    "spectral": ("triplet_energies", "eigensystem", "tilde_eigensystem"),
    "phases": ("berry_phase", "adiabatic_phases", "aa_breakdown"),
    "evolution": ("exact_propagator", "evolve_exact", "evolve_stepped"),
    "twocycle": ("run_aa_two_cycle", "run_adiabatic_two_cycle", "berry_gate"),
    "cli": ("main", "cmd_sweep", "cmd_twocycle", "cmd_evolve"),
}
LAYERS = [f"{module}.{name}" for module, names in TRACED.items() for name in names]

# Fields of one span record, in buffer order.
SPAN_FIELDS = ("span", "parent", "binding", "thread", "start", "end", "thread_cpu")
_WIDTH = len(SPAN_FIELDS)


class _ThreadLog:
    def __init__(self, index: int):
        self.index = index
        self.stack: list[int] = []
        self.records = array("d")
        self.fallbacks = 0


class Tracer:
    def __init__(self, package, modules: dict):
        """package: the imported `twospin`; modules: name -> its submodules."""
        self._package = package
        self._modules = modules
        self._tls = threading.local()
        self._logs: list[_ThreadLog] = []
        self._ids = itertools.count()
        self._installed: list[tuple[object, str, object]] = []
        self._root: list[int] = []
        # (layer, module holding the binding) for each wrapper installed
        self.bindings: list[tuple[str, str]] = []

    def _log(self) -> _ThreadLog:
        log = _ThreadLog(len(self._logs))
        self._logs.append(log)
        self._tls.log = log
        return log

    def _wrap(self, fn, binding: int, count_fallback: bool = False):
        tls, ids, root = self._tls, self._ids, self._root
        perf, cpu, new_log = time.perf_counter, time.thread_time, self._log

        def traced(*args, **kwargs):
            try:
                log = tls.log
            except AttributeError:
                log = new_log()
            stack = log.stack
            parent = stack[-1] if stack else (root[-1] if root else -1)
            span = next(ids)
            stack.append(span)
            t0, c0 = perf(), cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1, t1 = cpu(), perf()
                stack.pop()
                log.records.extend((span, parent, binding, log.index, t0, t1, c1 - c0))
            if count_fallback and result.used_fallback:
                log.fallbacks += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every binding of the traced functions; call on the driving thread."""
        self._root = self._log().stack
        originals = {}
        for module, names in TRACED.items():
            for name in names:
                target = getattr(self._modules[module], name)
                if isinstance(target, type):
                    binding = len(self.bindings)
                    self.bindings.append((f"{module}.{name}", module))
                    self._installed.append((target, "__post_init__", target.__post_init__))
                    target.__post_init__ = self._wrap(target.__post_init__, binding)
                else:
                    originals[target] = f"{module}.{name}"
        holders = [("twospin", self._package)] + list(self._modules.items())
        for holder_name, holder in holders:
            for attr, value in list(vars(holder).items()):
                layer = originals.get(value) if callable(value) else None
                if layer is None:
                    continue
                binding = len(self.bindings)
                self.bindings.append((layer, holder_name))
                self._installed.append((holder, attr, value))
                setattr(holder, attr, self._wrap(value, binding, layer == "spectral.eigensystem"))

    def uninstall(self):
        for holder, attr, value in reversed(self._installed):
            setattr(holder, attr, value)
        self._installed.clear()

    def spans(self) -> np.ndarray:
        """All recorded spans, one row per span, columns as SPAN_FIELDS."""
        parts = [np.frombuffer(log.records, dtype=float) for log in self._logs if log.records]
        if not parts:
            return np.zeros((0, _WIDTH))
        return np.concatenate(parts).reshape(-1, _WIDTH)

    def summary(self) -> dict:
        """Per-layer calls and self time, plus pool waiting and fallback counts.

        Self time is a span's duration minus the part of it covered by its
        child spans. Children on the parent's own thread nest and are summed;
        children on other threads (sweep pool workers) overlap one another, so
        their union is taken.
        """
        spans = self.spans()
        span, parent, binding, thread = (spans[:, i].astype(np.int64) for i in range(4))
        start, end, thread_cpu = spans[:, 4], spans[:, 5], spans[:, 6]
        duration = end - start
        position = np.full(int(span.max()) + 1 if len(span) else 1, -1, dtype=np.int64)
        position[span] = np.arange(len(span))
        parent_pos = np.where(parent >= 0, position[np.maximum(parent, 0)], -1)
        has_parent = parent_pos >= 0
        same = has_parent & (thread[np.maximum(parent_pos, 0)] == thread)
        covered = np.bincount(parent_pos[same], weights=duration[same], minlength=len(span))
        cross = has_parent & ~same
        for p in np.unique(parent_pos[cross]):
            mine = cross & (parent_pos == p)
            covered[p] += _union_length(start[mine], end[mine])
        self_time = duration - covered

        binding_layer = np.array([LAYERS.index(layer) for layer, _ in self.bindings], dtype=np.int64)
        layer = binding_layer[binding]
        calls = np.bincount(layer, minlength=len(LAYERS))
        self_s = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
        by_binding = np.bincount(binding, minlength=len(self.bindings))
        phases_eigensystem = sum(
            int(by_binding[i]) for i, b in enumerate(self.bindings) if b == ("spectral.eigensystem", "phases")
        )
        return {
            "calls": {name: int(calls[i]) for i, name in enumerate(LAYERS)},
            "self_s": {name: float(self_s[i]) for i, name in enumerate(LAYERS)},
            "pool_wait_s": float(np.sum(duration[cross] - thread_cpu[cross])),
            "eigensystem_fallbacks": sum(log.fallbacks for log in self._logs),
            "phases_eigensystem_calls": phases_eigensystem,
            "spans": len(span),
        }


def _union_length(start: np.ndarray, end: np.ndarray) -> float:
    order = np.argsort(start, kind="stable")
    start, end = start[order], end[order]
    reach = np.maximum.accumulate(end)
    first = np.r_[True, start[1:] > reach[:-1]]
    heads = np.flatnonzero(first)
    return float(np.sum(np.maximum.reduceat(end, heads) - start[heads]))
