"""Spans around calls into the public functions of each tca module.

A :class:`Tracer` wraps every entry point of :data:`ENTRY_POINTS` and
rebinds each module-level name in ``tca.*`` that refers to the original
function, because the modules import each other's functions by name.
Spans are kept in memory; :func:`layer_metrics` turns the spans of one
pass into the per-layer metrics of :data:`METRICS`.

An entry point that does not exist is recorded in ``Tracer.absent`` and
every metric built only from absent entry points is reported as absent.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import itertools
import math
import os
import sys
import threading
import time

import numpy as np


@dataclasses.dataclass
class Span:
    id: int
    name: str
    thread: int
    start: float
    parent: int | None
    end: float = math.nan
    info: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# Counts read from an entry point's arguments and result, outside its span


def _terms(args, kwargs, result):
    return {"terms": len(result)}


def _solve_flop(args, kwargs, result):
    rhs = args[1] if len(args) > 1 else kwargs["rhs"]
    shape = np.shape(rhs)
    return {"flop": shape[0] ** 2 * math.prod(shape[1:])}


def _array_bytes(args, kwargs, result):
    fields = (
        [getattr(result, f.name) for f in dataclasses.fields(result)]
        if dataclasses.is_dataclass(result)
        else list(vars(result).values())
    )
    return {"bytes": sum(v.nbytes for v in fields if isinstance(v, np.ndarray))}


def _bands(args, kwargs, result):
    return {"draws": result.replications, "discarded": result.discarded}


def _file_size(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


#: ``module.function`` in tca -> count hook (or None).
ENTRY_POINTS = {
    "condition.parse_condition": None,
    "condition.expand_terms": _terms,
    "condition.effect_by_edge_deletion": None,
    "condition.transmission_effect": None,
    "system.make_systems_form": _array_bytes,
    "system.reconstruct_from_single_shock": _array_bytes,
    "linalg.solve_unit_lower": _solve_flop,
    "model.estimate_var_ols": None,
    "model.identify_internal_instrument": None,
    "inference.bootstrap_effects": _bands,
    "inference.point_effects": None,
    "cli.main": None,
    "cli.load_model_file": None,
    "cli.write_effects_csv": _file_size,
    "cli.verify_effects_csv": None,
}


# ---------------------------------------------------------------------------
# Tracer


class Tracer:
    """Records spans around calls into tca's entry points.

    The wrappers are installed only inside :meth:`recording`, so code run
    outside it is untouched.  A span opened in a thread with no open span
    of its own (a bootstrap worker) is parented to the innermost open span
    of the thread that started recording.
    """

    def __init__(self, entry_points=None):
        self.entry_points = dict(ENTRY_POINTS if entry_points is None else entry_points)
        self.absent = set()
        self.spans = []
        self._restore = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_thread = None
        self._root_stack = []

    # -- installation -----------------------------------------------------

    def _install(self) -> None:
        import tca  # noqa: F401  (loads every tca module)

        self.absent = set()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tca" or n.startswith("tca."))]
        for key, hook in self.entry_points.items():
            mod_name, fn_name = key.split(".")
            try:
                fn = getattr(importlib.import_module(f"tca.{mod_name}"), fn_name, None)
            except ImportError:
                fn = None
            if not callable(fn):
                self.absent.add(key)
                continue
            wrapper = self._wrap(key, fn, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, fn))

    def _uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def _wrap(self, key, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                try:
                    span.info = hook(args, kwargs, result)
                except Exception as exc:  # a changed signature must not fail the call
                    span.info = {"hook_error": type(exc).__name__}
            return result

        return traced

    # -- recording --------------------------------------------------------

    @contextlib.contextmanager
    def recording(self):
        """Install the wrappers and yield the list spans are recorded into."""
        self.spans = []
        self._root_thread = threading.get_ident()
        self._root_stack = []
        self._install()
        try:
            yield self.spans
        finally:
            self._uninstall()

    def _stack(self):
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            root = self._root_stack
            parent = root[-1].id if root and stack is not root else None
        span = Span(id=next(self._ids), name=name, thread=threading.get_ident(),
                    start=time.perf_counter(), parent=parent)
        with self._lock:
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()


# ---------------------------------------------------------------------------
# Span arithmetic


def covered(intervals, lo=-math.inf, hi=math.inf) -> float:
    """Length of the union of ``(start, end)`` intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


# ---------------------------------------------------------------------------
# Per-layer metrics


def _sum_duration(*names):
    return lambda ctx: sum(s.duration for s in ctx.spans if s.name in names)


def _count(*names):
    return lambda ctx: sum(1 for s in ctx.spans if s.name in names)


def _info(name, field):
    return lambda ctx: sum(s.info.get(field, 0) for s in ctx.spans if s.name == name)


def _self(*names):
    return lambda ctx: sum(ctx.self_time[s.id] for s in ctx.spans if s.name in names)


def _worker_busy_share(ctx):
    """Time covered by worker-thread spans under each bootstrap span, over
    that span's wall time times the worker count."""
    busy = wall = 0.0
    for boot in (s for s in ctx.spans if s.name == "inference.bootstrap_effects"):
        per_thread = {}
        for s in ctx.spans:
            if s.parent == boot.id and s.thread != boot.thread:
                per_thread.setdefault(s.thread, []).append((s.start, s.end))
        busy += sum(covered(iv, boot.start, boot.end) for iv in per_thread.values())
        wall += boot.duration * ctx.threads
    return busy / wall if wall > 0 else 0.0


#: name -> (unit, entry points it reads, value from one pass's spans).
#: Times of functions that run in bootstrap workers add up busy time over
#: threads.  ``system.bytes`` and ``linalg.solve_flop`` are computed from
#: array sizes, not measured.
METRICS = {
    "condition.parse_s": ("s", ["condition.parse_condition"],
                          _sum_duration("condition.parse_condition")),
    "condition.expand_s": ("s", ["condition.expand_terms"],
                           _sum_duration("condition.expand_terms")),
    "condition.terms": ("count", ["condition.expand_terms"],
                        _info("condition.expand_terms", "terms")),
    "condition.effect_calls": ("count", ["condition.effect_by_edge_deletion"],
                               _count("condition.effect_by_edge_deletion")),
    "condition.self_s": ("s", ["condition.transmission_effect"],
                         _self("condition.transmission_effect",
                               "condition.effect_by_edge_deletion")),
    "system.build_s": ("s", ["system.make_systems_form", "system.reconstruct_from_single_shock"],
                       _sum_duration("system.make_systems_form",
                                     "system.reconstruct_from_single_shock")),
    "system.build_calls": ("count", ["system.make_systems_form",
                                     "system.reconstruct_from_single_shock"],
                           _count("system.make_systems_form",
                                  "system.reconstruct_from_single_shock")),
    "system.bytes": ("B", ["system.make_systems_form", "system.reconstruct_from_single_shock"],
                     lambda ctx: _info("system.make_systems_form", "bytes")(ctx)
                     + _info("system.reconstruct_from_single_shock", "bytes")(ctx)),
    "linalg.solve_s": ("s", ["linalg.solve_unit_lower"],
                       _sum_duration("linalg.solve_unit_lower")),
    "linalg.solve_calls": ("count", ["linalg.solve_unit_lower"],
                           _count("linalg.solve_unit_lower")),
    "linalg.solve_flop": ("flop", ["linalg.solve_unit_lower"],
                          _info("linalg.solve_unit_lower", "flop")),
    "model.ols_s": ("s", ["model.estimate_var_ols"], _sum_duration("model.estimate_var_ols")),
    "model.ols_calls": ("count", ["model.estimate_var_ols"], _count("model.estimate_var_ols")),
    "model.identify_s": ("s", ["model.identify_internal_instrument"],
                         _sum_duration("model.identify_internal_instrument")),
    "inference.self_s": ("s", ["inference.bootstrap_effects", "inference.point_effects"],
                         _self("inference.bootstrap_effects", "inference.point_effects")),
    "inference.draws": ("count", ["inference.bootstrap_effects"],
                        _info("inference.bootstrap_effects", "draws")),
    "inference.discarded": ("count", ["inference.bootstrap_effects"],
                            _info("inference.bootstrap_effects", "discarded")),
    "inference.worker_busy_share": ("ratio", ["inference.bootstrap_effects"],
                                    _worker_busy_share),
    "cli.self_s": ("s", ["cli.main"], _self("cli.main")),
    "cli.read_s": ("s", ["cli.load_model_file"], _sum_duration("cli.load_model_file")),
    "cli.write_s": ("s", ["cli.write_effects_csv"], _sum_duration("cli.write_effects_csv")),
    "cli.verify_s": ("s", ["cli.verify_effects_csv"], _sum_duration("cli.verify_effects_csv")),
    "cli.bytes_written": ("B", ["cli.write_effects_csv"],
                          _info("cli.write_effects_csv", "bytes")),
}


@dataclasses.dataclass
class _PassContext:
    spans: list
    self_time: dict
    threads: int


def absent_metrics(absent_entry_points) -> list:
    """Metrics all of whose entry points are absent."""
    return sorted(name for name, (_, needs, _) in METRICS.items()
                  if all(n in absent_entry_points for n in needs))


def layer_metrics(spans, threads: int, absent_entry_points=()) -> dict:
    """Per-layer metric values of one pass; absent metrics are left out."""
    ctx = _PassContext(spans=spans, self_time=self_times(spans), threads=threads)
    skip = set(absent_metrics(absent_entry_points))
    return {name: float(fn(ctx)) for name, (_, _, fn) in METRICS.items()
            if name not in skip}
