"""Wire format for the parallel search (DESIGN.md, "Scheduler and
transports").

Everything a worker exchanges with the scheduler is defined here, so the
``fork``/``spawn`` local pools and the TCP socket transport speak one
protocol:

* :class:`ScenarioSpec` — a *by-name* description of a scenario (registry
  name, builder keyword arguments, final :class:`~repro.config.NiceConfig`)
  that a worker in a fresh interpreter resolves through the scenario
  registry (``repro/scenarios.py``) instead of inheriting unpicklable
  closures from a forked parent;
* task/result messages — :class:`Hello`, :class:`InitWorker`,
  :class:`ExpandTask`, :class:`TaskResult`, :class:`WorkerError`,
  :class:`Shutdown`, :class:`Heartbeat`;
* pool-membership events — :class:`WorkerGone` and :class:`WorkerJoined`.
  Transports translate their own failure signals (a dead child process,
  a socket EOF, a connection reset) into :class:`WorkerGone` so the
  scheduler sees one churn vocabulary regardless of transport; an elastic
  socket worker connecting mid-search surfaces as :class:`WorkerJoined`.
  The scheduler reacts by requeueing the dead worker's in-flight sibling
  groups (or feeding the joiner) — see DESIGN.md, "Fault tolerance and
  elasticity";
* length-prefixed pickle framing (:func:`send_msg` / :func:`recv_msg`) for
  the socket transport.  Pickle is the serializer because tasks and results
  are trees of pure-data model objects (:class:`~repro.mc.transitions.Transition`,
  packets, stats dicts) already required to be picklable by the spawn pool;
  the trust model is the same as ``multiprocessing``'s — workers are
  processes *you* started on hosts you control, not an open service.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field

from repro.config import NiceConfig

#: Bump when the task/result layout changes; Hello carries it so a stale
#: remote worker fails fast instead of mis-decoding tasks.
#: v2: Hello carries host/pid (elastic joins + fault-injection hooks).
#: v3: workers emit :class:`Heartbeat` liveness beats on the result channel.
#: v4: worker-side Bloom dedup pre-filter (summary broadcasts, digest-only
#:     child stubs, a fetch round-trip for false positives).
#: v5: the v4 pre-filter is removed; results ship every child in full.
PROTOCOL_VERSION = 5

_HEADER = struct.Struct("!I")


# ----------------------------------------------------------------------
# Scenario specs: rebuild a System by name in a fresh interpreter
# ----------------------------------------------------------------------

@dataclass
class ScenarioSpec:
    """A scenario by registry name + builder kwargs + final config.

    ``kwargs`` are the keyword arguments the builder was originally called
    with; ``config`` is the scenario's *final* config (builders adjust
    bounds), applied verbatim after rebuilding so master and workers agree
    on every knob.
    """

    name: str
    kwargs: dict = field(default_factory=dict)
    config: NiceConfig = field(default_factory=NiceConfig)

    def build(self):
        """Resolve the registry and rebuild the scenario."""
        from repro import scenarios  # deferred: scenarios imports this module

        builder = scenarios.REGISTRY.get(self.name)
        if builder is None:
            raise KeyError(
                f"scenario {self.name!r} is not in the registry; known:"
                f" {sorted(scenarios.REGISTRY)}"
            )
        scenario = builder(**self.kwargs)
        scenario.config = self.config
        scenario.spec = self
        return scenario


def spec_is_portable(spec: ScenarioSpec | None) -> bool:
    """Whether ``spec`` can cross a process boundary: present and
    picklable (a builder kwarg that is a lambda/closure is not)."""
    if spec is None:
        return False
    try:
        pickle.dumps(spec)
    except Exception:  # noqa: BLE001 - any pickling failure disqualifies
        return False
    return True


def searcher_from_spec(spec: ScenarioSpec):
    """A *serial* :class:`~repro.mc.search.Searcher` for worker-side
    expansion — workers never recurse into the parallel engine."""
    from repro.mc.search import Searcher
    from repro.mc.strategies import make_strategy

    scenario = spec.build()
    config = scenario.config
    discoverer = None
    if config.use_symbolic_execution:
        from repro.sym.engine import ConcolicEngine

        discoverer = ConcolicEngine(max_paths=config.max_paths)
    return Searcher(
        scenario.system_factory, scenario.properties, config,
        strategy=make_strategy(config, scenario.app_factory()),
        discoverer=discoverer,
    )


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------

@dataclass
class Hello:
    """Worker -> master, first message after connecting.

    ``host``/``pid`` identify the worker process: they are logged when an
    elastic worker joins a live run, and ``pid`` is what lets the master
    kill a co-located worker (the fault-injection hook
    ``Transport.kill_worker`` used by the chaos tests).
    """

    protocol: int = PROTOCOL_VERSION
    host: str = ""
    pid: int = 0


@dataclass
class InitWorker:
    """Master -> worker: build your scenario and await tasks."""

    spec: ScenarioSpec
    worker_id: int = 0


@dataclass
class ExpandTask:
    """Master -> worker: expand these sibling groups.

    ``groups`` is a list of ``(parent trace, [transition, ...] | None)``
    pairs — ``None`` marks the initial-state group.
    """

    task_id: int
    groups: list


@dataclass
class TaskResult:
    """Worker -> master: the expansion of one :class:`ExpandTask`;
    every child ships as a full ``(transition, digest)`` pair."""

    task_id: int
    worker_id: int
    out: dict


@dataclass
class WorkerError:
    """Worker -> master: the task raised; carries the formatted traceback."""

    task_id: int | None
    worker_id: int
    error: str


@dataclass
class Shutdown:
    """Master -> worker: exit cleanly."""


@dataclass
class Heartbeat:
    """Worker -> master: periodic liveness beat (protocol v3).

    Sent by a daemon thread every ``heartbeat_interval`` seconds on the
    same channel as results.  A beat proves the worker *process* is alive
    and its channel healthy — it does not prove the current task is making
    progress (a handler spinning in a pure-Python loop still lets the beat
    thread run), which is why hang detection keys off the per-task
    deadline, with beat staleness reported as corroborating evidence."""

    worker_id: int


@dataclass
class WorkerGone:
    """Transport -> scheduler: a worker died (process exit, socket EOF,
    reset, or startup failure).  Not fatal by itself — the scheduler
    requeues the worker's in-flight groups and applies the
    ``min_workers``/``max_worker_failures`` policy."""

    worker_id: int
    reason: str


@dataclass
class WorkerJoined:
    """Transport -> scheduler: an elastic worker connected mid-search and
    completed the Hello/Init handshake; it is ready for tasks."""

    worker_id: int
    host: str = ""
    pid: int = 0


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

def send_msg(sock, message) -> None:
    """Write one length-prefixed pickled message to a socket."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def recv_msg(sock):
    """Read one framed message; returns None on clean EOF at a frame
    boundary."""
    frame = recv_frame(sock)
    return None if frame is None else pickle.loads(frame)


def recv_frame(sock) -> bytes | None:
    """Read one frame's pickled payload without decoding it; returns None
    on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    return _recv_exact(sock, length)


def _recv_exact(sock, count: int, allow_eof: bool = False):
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise ConnectionError(
                f"socket closed mid-frame ({count - remaining}/{count} bytes)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
