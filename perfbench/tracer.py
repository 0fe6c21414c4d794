"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps public functions of each layer (the modules of
``repro``) with timers for the length of one traced search, then puts the
originals back.  Each wrapper counts calls, total time, and self time: its
total minus the time its nested wrapped calls took, so that no interval is
counted under two layers.

Fork workers inherit the wrappers.  In each worker the tracer zeroes the
inherited totals after the fork and, when the worker exits, writes the
worker's totals to ``<dump_dir>/worker-<pid>.json``; :meth:`collect` reads
them back after the search.  The span stack is per process and assumes the
wrapped calls of a process happen on one thread, which holds for the
searching process and the fork workers.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path


def layer_targets():
    """``(span name, owner, attribute)`` for every wrapped function."""
    from repro.mc import replay, store, strategies, system, worker
    from repro.mc.transport import local
    from repro.properties import Property
    from repro.sym.engine import ConcolicEngine

    targets = [
        ("system.execute", system.System, "execute"),
        ("system.clone", system.System, "clone"),
        ("system.state_hash", system.System, "state_hash"),
        ("system.enabled_transitions", system.System, "enabled_transitions"),
        ("sym.discover_packets", ConcolicEngine, "discover_packets"),
        ("sym.discover_stats", ConcolicEngine, "discover_stats"),
        ("store.add_batch", store.StateStore, "add_batch"),
        ("checkpoint.write", store.Checkpointer, "write"),
        ("replay", replay, "replay_from"),
        ("worker.expand", worker.WorkerRuntime, "expand"),
        ("transport.recv", local.LocalTransport, "recv"),
        ("transport.submit", local.LocalTransport, "submit"),
    ]
    for base, attrs, layer in ((strategies.Strategy, ("filter", "post_execute"),
                                "strategies"),
                               (Property, ("check", "check_quiescent"),
                                "properties")):
        for cls in _with_subclasses(base):
            targets.extend((f"{layer}.{attr}", cls, attr)
                           for attr in attrs if attr in vars(cls))
    return targets


def _with_subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _with_subclasses(sub)


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`."""

    def __init__(self, dump_dir: str | Path):
        self.dump_dir = Path(dump_dir)
        #: span name -> [calls, total seconds, self seconds].
        self.records: dict[str, list] = {}
        self._stack: list[float] = []
        self._patches: list[tuple] = []
        self.active = False

    # ------------------------------------------------------------------

    def install(self) -> None:
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        for name, owner, attr in layer_targets():
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            # A module function is also reachable under every name that
            # imported it (``from repro.mc.replay import replay_from``).
            holders = [owner]
            if not isinstance(owner, type):
                holders = [module for key, module in list(sys.modules.items())
                           if key.startswith("repro") and module is not None
                           and getattr(module, attr, None) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._patches.append((holder, attr, original))
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)
        self.active = True

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()
        self.active = False

    def _wrap(self, name, fn):
        record = self.records.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
        return wrapper

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------

    def _after_fork(self) -> None:
        """Runs in every multiprocessing child after its finalizer
        registry is reset: start the child's totals from zero and dump
        them when it exits."""
        if not self.active:
            return
        for record in self.records.values():
            record[:] = [0, 0.0, 0.0]
        self._stack.clear()
        multiprocessing.util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self) -> None:
        path = self.dump_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(self.records))

    def collect(self) -> list[dict]:
        """Totals each worker wrote, one dict per worker process."""
        return [json.loads(path.read_text())
                for path in sorted(self.dump_dir.glob("worker-*.json"))]

    def spans(self) -> dict:
        """This process's totals, for spans called at least once."""
        return {name: list(record) for name, record in self.records.items()
                if record[0]}
