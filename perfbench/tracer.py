"""Outside-in layer timing: wrap each layer's entry points on live objects.

The benchmark never edits the program to time it.  For a traced repetition
it replaces each layer's public entry point on the live instance (or the
module global a caller resolves at call time) with a timing wrapper, runs
the workload, and restores the module globals afterwards.  Instances are
discarded after each repetition, so their wrappers die with them.

Each wrapper records one span: its duration is added to the layer's busy
time and to the enclosing span's child time, so a layer's self time is
its busy time minus the part covered by spans it caused.  Spans are
aggregated as they close (per-record spans would not fit in memory over a
repetition).  A layer whose entry point is missing, or whose object
refuses a new attribute, is reported as absent instead of failing the run.
A re-entrant call into a layer that is already open is not timed again,
so a layer's busy time never counts one interval twice.
"""

from __future__ import annotations

import sys
from time import perf_counter
from types import ModuleType

__all__ = ["LAYERS", "LayerTracer"]


def _path(*names):
    def get(system):
        obj = system
        for name in names:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj

    return get


def _module_of(*names):
    def get(system):
        obj = _path(*names)(system)
        return None if obj is None else sys.modules.get(type(obj).__module__)

    return get


#: (layer, object getter, entry-point names).  A layer is the sum of every
#: entry point the object has; module getters resolve the module a class is
#: defined in, whose globals that class's methods call through.
LAYERS = (
    ("engine.system.ingest", _path(), ("ingest",)),
    ("engine.system.search", _path(), ("search",)),
    ("engine.executor.execute", _path("executor"), ("execute",)),
    ("core.policy.insert", _path("engine"), ("insert",)),
    ("core.policy.needs_flush", _path("engine"), ("needs_flush",)),
    ("core.policy.run_flush", _path("engine"), ("run_flush",)),
    ("core.policy.lookup", _path("engine"), ("lookup",)),
    ("core.policy.note_query", _path("engine"), ("note_query",)),
    ("model.attributes.keys", _path("engine", "attribute"), ("keys",)),
    ("storage.raw_store.add", _path("engine", "raw"), ("add",)),
    (
        "storage.inverted_index.insert",
        _path("engine", "index"),
        ("insert", "insert_scalar", "insert_record_scalars"),
    ),
    ("core.phases.p1", _module_of("engine"), ("run_phase1",)),
    ("core.phases.p2", _module_of("engine"), ("run_phase2",)),
    ("core.phases.p3", _module_of("engine"), ("run_phase3",)),
    ("storage.flush_buffer.commit", _path("engine", "buffer"), ("commit",)),
    ("storage.disk.commit_flush", _path("disk"), ("commit_flush",)),
    ("storage.disk.lookup", _path("disk"), ("lookup",)),
    # Called by the tracer itself after each disk lookup, to measure read
    # amplification; timed as its own span so its cost is not charged to
    # the executor.
    ("storage.disk.run_count", _path("disk"), ("run_count",)),
    ("storage.topk.merge", _module_of("executor"), ("_merge_topk", "merge_topk")),
)


class LayerTracer:
    """Per-layer call counts, busy and self seconds of one repetition."""

    def __init__(self) -> None:
        n = len(LAYERS)
        self.calls = [0] * n
        self.busy = [0.0] * n
        self.self_time = [0.0] * n
        #: Busy time of spans opened with no span enclosing them.
        self.top_busy = 0.0
        #: Disk lookups seen and the runs their keys held (read amplification).
        self.lookups = 0
        self.runs = 0
        self.present = [False] * n
        self._active = [0] * n
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, system) -> None:
        """Wrap every entry point ``system`` exposes; call :meth:`remove`
        before the next install."""
        run_count = None
        for idx, (name, getter, entry_points) in enumerate(LAYERS):
            target = getter(system)
            if target is None:
                continue
            for attr in entry_points:
                fn = getattr(target, attr, None)
                if not callable(fn):
                    continue
                after = None
                if name == "storage.disk.lookup":
                    after = self._note_runs
                wrapper = self._wrap(idx, fn, after)
                try:
                    setattr(target, attr, wrapper)
                except (AttributeError, TypeError):
                    continue
                if isinstance(target, ModuleType):
                    self._restore.append((target, attr, fn))
                self.present[idx] = True
                if name == "storage.disk.run_count":
                    run_count = wrapper
        self._run_count = run_count

    def remove(self) -> None:
        """Put back the module globals the last install replaced."""
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def _note_runs(self, args) -> None:
        if self._run_count is not None and args:
            self.lookups += 1
            self.runs += self._run_count(args[0])

    def _wrap(self, idx, fn, after):
        calls = self.calls
        busy = self.busy
        self_time = self.self_time
        active = self._active
        stack = self._stack
        clock = perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if active[idx]:
                return fn(*args, **kwargs)
            active[idx] = 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                active[idx] = 0
                calls[idx] += 1
                busy[idx] += elapsed
                self_time[idx] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer.top_busy += elapsed
                if after is not None:
                    after(args)

        return wrapper
