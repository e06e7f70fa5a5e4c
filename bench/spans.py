"""Span tracing of hamgame's layers, installed from outside the package.

`Tracer.install` replaces every public function and method named in
`LAYERS` by a wrapper that records one span per call: id, parent id, layer,
thread, start and end.  It replaces each binding a caller can look the
function up through: the defining module's attribute, the by-name imports
in the other hamgame modules and in the package namespace, class attributes
for methods, and entries of module-level tables such as
`dynamics.KERNELS`.  Targets are found by name in the package namespace or
in any hamgame module, so a function that moves to another module is still
traced under the same layer name.

Each thread keeps its own span stack, so the worker threads of
`hamgame cloud` are traced too.  A layer's self time is its span's
duration minus the durations of its child spans on the same thread.  A
call made while a span of the same layer is open on the thread joins that
span (`PayoffOperator.field` calling `.linear`, a product regularizer's
blockwise recursion), so counts are calls into the layer.

Spans are held in memory; `collect` closes one round and returns its
per-layer totals, and keeps the round's spans for `dump` while
`keep_spans` is set.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from time import perf_counter


def _named(*names):
    """Functions looked up by name in the package, else in any hamgame module."""

    def targets(hg):
        found = []
        for name in names:
            obj = getattr(hg, name, None) or next((getattr(m, name) for m in _modules() if hasattr(m, name)), None)
            if obj is None:
                raise LookupError(f"hamgame has no function {name!r} to trace")
            found.append(obj)
        return found

    return targets


def _methods(class_name, *methods):
    def targets(hg):
        cls = next((getattr(m, class_name) for m in _modules() if isinstance(getattr(m, class_name, None), type)), None)
        if cls is None:
            raise LookupError(f"hamgame has no class {class_name!r} to trace")
        return [(cls, name) for name in methods]

    return targets


def _public_functions(module):
    return [
        value
        for name, value in vars(module).items()
        if not name.startswith("_") and callable(value) and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
    ]


# layer name -> targets (functions, or (class, method name) pairs)
LAYERS = {
    "regularizers.block_choice": _methods("BlockChoiceMap", "__call__"),
    "regularizers.project_simplex": _named("project_simplex"),
    "regularizers.choice_map": _named("choice_map"),
    "regularizers.conjugate_value": _named("conjugate_value"),
    "regularizers.h_value": _named("h_value"),
    "regularizers.fenchel_coupling": _named("fenchel_coupling"),
    "regularizers.bregman_distance": _named("bregman_distance"),
    "dynamics.simulate": _named("simulate"),
    "dynamics.payoff": _methods("PayoffOperator", "field", "linear", "motion"),
    "dynamics.kernel": lambda hg: list(hg.dynamics.KERNELS.values()),
    "hamiltonian.energy": lambda hg: [f for f in _public_functions(hg.hamiltonian) if f.__name__.startswith("energy_")],
    "analysis.build_report": _named("build_report"),
    "analysis.fenchel_bregman_series": _named("fenchel_bregman_series"),
    "analysis.volume_ratio": _named("volume_ratio"),
    "fileio.load_game_file": _named("load_game_file"),
    "fileio.csv_write": _named("write_trajectory_csv"),
    "fileio.csv_read": _named("read_trajectory_csv"),
    "cli.main": lambda hg: [hg.cli.main],
    "games": lambda hg: _public_functions(hg.games),
}


def _modules():
    return [m for name, m in list(sys.modules.items()) if name == "hamgame" or name.startswith("hamgame.")]


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _after_simulate(tracer, args, kwargs, result):
    tracer.count("dynamics.snapshots", len(result.states))


def _after_csv_write(tracer, args, kwargs, result):
    tracer.count("fileio.csv_bytes", _file_bytes(kwargs.get("path", args[2] if len(args) > 2 else None)))


def _after_csv_read(tracer, args, kwargs, result):
    tracer.count("fileio.csv_bytes", _file_bytes(kwargs.get("path", args[0] if args else None)))


AFTER = {
    "dynamics.simulate": _after_simulate,
    "fileio.csv_write": _after_csv_write,
    "fileio.csv_read": _after_csv_read,
}


class _ThreadLog:
    """One thread's open spans, finished spans and per-layer totals."""

    def __init__(self):
        self.stack = []  # [layer, span id, start, child seconds]
        self.spans = []  # (id, parent id, layer, thread, start, end)
        self.totals = {}  # layer -> [calls, self seconds, inclusive seconds]
        self.counts = {}


class Tracer:
    """Spans and per-layer totals of the calls into hamgame's layers."""

    def __init__(self):
        self._local = threading.local()
        self._logs = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches = []  # (owner, key, original, setter), undone by uninstall
        self.keep_spans = True
        self.kept = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def count(self, name, amount):
        counts = self._log().counts
        counts[name] = counts.get(name, 0) + amount

    def wrap(self, layer, fn):
        tracer, after = self, AFTER.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = tracer._log()
            stack = log.stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, next(tracer._ids), perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += duration
                total = log.totals.setdefault(layer, [0, 0.0, 0.0])
                total[0] += 1
                total[1] += duration - frame[3]
                total[2] += duration
                if tracer.keep_spans:
                    log.spans.append(
                        (frame[1], parent[1] if parent else None, layer,
                         threading.get_ident(), frame[2], end)
                    )
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, hg):
        """Wrap every target of every layer on every binding that holds it."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, targets in LAYERS.items():
            for target in targets(hg):
                if isinstance(target, tuple):
                    cls, name = target
                    original = cls.__dict__[name]
                    self._set(cls, name, self.wrap(layer, original), original, setattr)
                else:
                    wrappers[id(target)] = (target, self.wrap(layer, target))
        for mod in _modules():
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._set(mod, name, wrappers[id(value)][1], value, setattr)
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if id(entry) in wrappers and wrappers[id(entry)][0] is entry:
                            self._set(value, key, wrappers[id(entry)][1], entry, dict.__setitem__)

    def _set(self, owner, key, new, original, setter):
        setter(owner, key, new)
        self._patches.append((owner, key, original, setter))

    def uninstall(self):
        for owner, key, original, setter in reversed(self._patches):
            setter(owner, key, original)
        self._patches.clear()

    def collect(self):
        """Close a round: per-layer totals and counters, summed over threads."""
        totals, counts = {}, {}
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            for layer, (calls, self_s, incl_s) in log.totals.items():
                acc = totals.setdefault(layer, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += self_s
                acc[2] += incl_s
            for name, value in log.counts.items():
                counts[name] = counts.get(name, 0) + value
            if self.keep_spans:
                self.kept.extend(log.spans)
            log.spans, log.totals, log.counts = [], {}, {}
        return totals, counts

    def dump(self, path, **header):
        spans = sorted(self.kept, key=lambda s: s[4])
        origin = spans[0][4] if spans else 0.0
        doc = dict(header)
        doc["columns"] = ["id", "parent", "layer", "thread", "start_s", "end_s"]
        doc["spans"] = [
            [sid, parent, layer, thread, round(start - origin, 9), round(end - origin, 9)]
            for sid, parent, layer, thread, start, end in spans
        ]
        with open(path, "w") as handle:
            json.dump(doc, handle)
