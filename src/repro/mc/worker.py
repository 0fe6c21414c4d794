"""Worker-side runtime of the parallel search.

A worker — forked, spawned, or connected over TCP — runs the same code:
build a :class:`WorkerRuntime`, then expand :class:`~repro.mc.wire.ExpandTask`
sibling groups until told to stop.  Expansion mirrors the serial loop's
per-node work exactly (enumerate enabled transitions, one clone + execute +
property check per child, hash); only *restoration* work (parent replay,
sibling rebuild) is extra, and none of it is counted in the transition
totals.

Restoration cost is amortized by an LRU cache of node systems keyed by
trace (``NiceConfig.worker_cache_size`` entries): restoring a group clones
the longest cached ancestor and replays only the missing suffix, and long
replays snapshot a spine of intermediates back into the cache
(:func:`~repro.mc.replay.replay_with_spine`).  The cache is also what the
scheduler's affinity routing exploits — a child group sent to the worker
that expanded its parent finds the parent trace cached and replays a
one-transition suffix.  ``cache_hits`` / ``cache_misses`` count ancestor
restorations vs. full replays from the initial state — every restoration
increments exactly one of the two — and are reported to the master with
every result.
"""

from __future__ import annotations

import gc
import os
import threading
import traceback
from collections import OrderedDict

from repro.errors import NiceError, PropertyViolation
from repro.mc.replay import replay_with_spine
from repro.mc.search import MODEL_ERROR_PROPERTY
from repro.mc.strategies import make_strategy
from repro.mc.wire import (
    ExpandTask,
    Heartbeat,
    Hello,
    InitWorker,
    Shutdown,
    TaskResult,
    WorkerError,
    recv_msg,
    searcher_from_spec,
    send_msg,
)

#: Set by the fork local transport in the parent just before forking, so
#: workers inherit the live searcher (closures included) by copy-on-write.
#: Spawned and socket workers rebuild theirs from a ScenarioSpec instead.
_INHERITED_SEARCHER = None


class WorkerRuntime:
    """Everything one worker process needs, built once per process."""

    #: Snapshot stride while replaying long suffixes.
    SPINE = 8

    def __init__(self, searcher):
        self.searcher = searcher
        self.config = searcher.config
        self.max_cache = self.config.worker_cache_size
        self.initial = searcher.system_factory()
        self.strategy = (searcher._strategy
                         or make_strategy(self.config, self.initial.app))
        self.properties = searcher.properties
        for prop in self.properties:
            prop.reset(self.initial)
        #: trace -> System at that trace.  Entries are never mutated (they
        #: only serve as clone sources), so cache hits are safe to reuse.
        #: The initial state lives in ``self.initial``, not here, so
        #: eviction never has to special-case it.
        self.cache: OrderedDict[tuple, object] = OrderedDict()

    # ------------------------------------------------------------------
    # Restoration
    # ------------------------------------------------------------------

    def base_for(self, trace, out):
        """System at ``trace``: clone the longest cached ancestor and replay
        the missing suffix (full replay from the initial state at worst).

        Counter contract (module docstring / DESIGN.md): every restoration
        increments exactly one of ``cache_hits`` / ``cache_misses`` — a
        hit whenever *any* cached entry (exact, proper ancestor, or the
        root entry ``()``) provided the starting point, a miss only for
        the fall-through full replay from ``self.initial``.  Root-trace
        restorations count like any other, so hits + misses always equals
        the number of restorations performed.
        """
        for k in range(len(trace), -1, -1):
            system = self.cache.get(trace[:k])
            if system is None:
                continue
            self.cache.move_to_end(trace[:k])
            out["cache_hits"] += 1
            if k == len(trace):
                return system
            out["replayed"] += len(trace) - k
            return self._replay(system.clone(), trace, k)
        out["cache_misses"] += 1
        out["replayed"] += len(trace)
        return self._replay(self.initial.clone(), trace, 0)

    def _replay(self, system, trace, k):
        return replay_with_spine(system, trace, k, self.strategy,
                                 snapshot=self.remember, stride=self.SPINE)

    def remember(self, trace, system) -> None:
        self.cache[trace] = system
        if len(self.cache) > self.max_cache:
            self.cache.popitem(last=False)

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------

    def expand(self, groups) -> dict:
        """Expand every node of every sibling group, one clone per child.

        Nodes are referenced back to the master as
        ``(group index, sibling index | None)`` so only transitions and
        digests cross the process boundary, never System objects.
        """
        searcher = self.searcher
        config = self.config
        stats_sink = _StatsSink()  # scratch counter sink for _enabled()
        # Every system this worker touches descends from self.initial by
        # clone, so one shared HashStats accumulates the hot-path counters;
        # each result carries this task's delta back to the master.
        self._hash_before = self.initial._hash_stats.snapshot()
        out = {
            "children": [],     # (gi, si, [(transition, digest), ...])
            "quiescent": 0,
            "violations": [],   # (property, message, hash, gi, si, transition)
            "transitions": 0,
            "replayed": 0,      # restoration transitions (not in totals)
            "rebuilt": 0,       # sibling-rebuild transitions (ditto)
            "cache_hits": 0,
            "cache_misses": 0,
        }
        for gi, (trace, steps) in enumerate(groups):
            base = self.base_for(trace, out)
            if steps is None:       # the initial-state group
                nodes = [(base, trace, None)]
            else:
                nodes = []
                for si, step in enumerate(steps):
                    system = base.clone()
                    system.execute(step)
                    self.strategy.post_execute(system, step)
                    out["rebuilt"] += 1
                    nodes.append((system, trace + (step,), si))
            for system, node_trace, si in nodes:
                self.remember(node_trace, system)
                enabled = searcher._enabled(system, self.strategy, stats_sink)
                if not enabled:
                    out["quiescent"] += 1
                    self._check(
                        "check_quiescent", system, gi, si, None, out)
                    if config.stop_at_first_violation and out["violations"]:
                        return self._finish(out, stats_sink)
                    continue
                if (config.max_depth is not None
                        and len(node_trace) >= config.max_depth):
                    continue
                kids = []
                for transition in enabled:
                    child = system.clone()
                    try:
                        child.execute(transition)
                        self.strategy.post_execute(child, transition)
                    except Exception as exc:
                        # Mirror of the serial loop's containment: a model-
                        # handler exception becomes a ModelError violation
                        # tuple and the crashed child is discarded.  Engine
                        # errors (NiceError: replay divergence, transition
                        # bugs) still escape as WorkerError — fail_fast
                        # additionally forwards model exceptions there.
                        if isinstance(exc, NiceError) or config.fail_fast:
                            raise
                        out["transitions"] += 1
                        out["violations"].append(
                            (MODEL_ERROR_PROPERTY,
                             f"{type(exc).__name__}: {exc}", "",
                             gi, si, transition, traceback.format_exc())
                        )
                        if config.stop_at_first_violation:
                            return self._finish(out, stats_sink)
                        continue
                    out["transitions"] += 1
                    self._check("check", child, gi, si, transition, out)
                    if config.stop_at_first_violation and out["violations"]:
                        return self._finish(out, stats_sink)
                    # The digest feeds the master's explored-set dedup;
                    # without state matching it would be discarded (the
                    # serial loop skips hashing there too).
                    digest = (child.state_hash() if config.state_matching
                              else None)
                    kids.append((transition, digest))
                out["children"].append((gi, si, kids))
        return self._finish(out, stats_sink)

    def _finish(self, out, stats_sink) -> dict:
        out["discover_packet_runs"] = stats_sink.discover_packet_runs
        out["discover_stats_runs"] = stats_sink.discover_stats_runs
        after = self.initial._hash_stats.snapshot()
        out["hash_stats"] = tuple(
            now - before for now, before in zip(after, self._hash_before)
        )
        return out

    def _check(self, method, system, gi, si, transition, out) -> None:
        """Run every property, appending violations as picklable tuples."""
        for prop in self.properties:
            try:
                if method == "check":
                    prop.check(system, transition)
                else:
                    prop.check_quiescent(system)
            except PropertyViolation as violation:
                out["violations"].append(
                    (violation.property_name, violation.message,
                     system.state_hash(), gi, si, transition)
                )

    # ------------------------------------------------------------------
    # Memory watchdog
    # ------------------------------------------------------------------

    def should_recycle(self, worker_id: int) -> bool:
        """Memory watchdog (``worker_memory_limit``), called between tasks.

        Over the limit, shed the replay cache first — it is the one
        unbounded-value structure a worker owns, and losing it only costs
        restoration replays.  Still over after a collection, ask to be
        recycled: the caller returns, the channel EOFs, and the master's
        respawn path replaces the process.  Checked *after* a result is
        sent, so even a worker whose base RSS exceeds the limit makes
        forward progress (one task per incarnation)."""
        limit = self.config.worker_memory_limit
        if not limit:
            return False
        rss = _rss_bytes()
        if rss is None or rss <= limit:
            return False
        import sys

        print(f"search worker {worker_id}: rss {rss} B over"
              f" worker_memory_limit {limit} B; shedding replay cache"
              f" ({len(self.cache)} entries)", file=sys.stderr, flush=True)
        self.cache.clear()
        gc.collect()
        rss = _rss_bytes()
        if rss is None or rss <= limit:
            return False
        print(f"search worker {worker_id}: rss {rss} B still over limit;"
              f" recycling", file=sys.stderr, flush=True)
        return True


def _rss_bytes() -> int | None:
    """Resident set size of this process, or None if unmeasurable."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
        return pages * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return kb * 1024  # high-water mark: conservative fallback
    except Exception:  # noqa: BLE001 - no resource module on this platform
        return None


class _StatsSink:
    """Just the counters ``Searcher._enabled`` increments."""

    def __init__(self):
        self.discover_packet_runs = 0
        self.discover_stats_runs = 0


# ----------------------------------------------------------------------
# Heartbeats
# ----------------------------------------------------------------------

class _HeartbeatThread:
    """Daemon thread beating :class:`~repro.mc.wire.Heartbeat` every
    ``interval`` seconds through ``send`` (which must serialize against the
    main loop's result sends).  Because the beat runs on its own thread, a
    handler spinning in a pure-Python loop still beats (the GIL preempts) —
    the beat proves the *process* and its channel are alive, while the
    task deadline catches the stuck task.  It also keeps the master's
    timed ``recv`` loop fed, so deadline checks fire on schedule."""

    def __init__(self, send, worker_id: int, interval: float):
        self._send = send
        self._worker_id = worker_id
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{worker_id}", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._send(Heartbeat(self._worker_id))
            except Exception:  # noqa: BLE001 - channel gone: search is over
                return

    def stop(self) -> None:
        self._stop.set()


def _start_heartbeat(send, worker_id: int, interval: float):
    if not interval or interval <= 0:
        return None
    return _HeartbeatThread(send, worker_id, interval)


# ----------------------------------------------------------------------
# Process entry points
# ----------------------------------------------------------------------

def _serve(runtime, worker_id: int, task: ExpandTask):
    """Expand one task into its reply: a TaskResult, or a WorkerError
    carrying the traceback if the expansion raised."""
    try:
        return TaskResult(task.task_id, worker_id,
                          runtime.expand(task.groups))
    except Exception:  # noqa: BLE001 - surface the traceback
        return WorkerError(task.task_id, worker_id, traceback.format_exc())


def local_worker_main(worker_id: int, task_queue, result_conn, spec) -> None:
    """Entry point of a local-transport worker process.

    ``spec`` is None under ``fork`` (the searcher is inherited via
    :data:`_INHERITED_SEARCHER`); under ``spawn`` it is the pickled
    :class:`~repro.mc.wire.ScenarioSpec` to rebuild from.  ``result_conn``
    is this worker's private result pipe — per-worker channels are what
    lets the master survive a worker killed mid-write (see
    ``repro/mc/transport/local.py``).
    """
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            result_conn.send(message)

    try:
        searcher = (_INHERITED_SEARCHER if spec is None
                    else searcher_from_spec(spec))
        runtime = WorkerRuntime(searcher)
    except Exception:  # noqa: BLE001 - report startup failure to the master
        result_conn.send(WorkerError(None, worker_id, traceback.format_exc()))
        return
    beat = _start_heartbeat(send, worker_id,
                            runtime.config.heartbeat_interval)
    try:
        while True:
            message = task_queue.get()
            if message is None or isinstance(message, Shutdown):
                return
            reply = _serve(runtime, worker_id, message)
            try:
                send(reply)
            except OSError:
                # The master stopped reading (early stop, or it gave up on
                # the pool): its search is over, so are we.
                return
            if runtime.should_recycle(worker_id):
                # Exit cleanly; EOF surfaces as WorkerGone and the respawn
                # path replaces us with a fresh-memory sibling.
                return
    finally:
        if beat is not None:
            beat.stop()


#: Seconds a connecting worker waits for the master's InitWorker reply —
#: pointed at a non-master port (an HTTP server, say) it must error out,
#: not hang forever on a frame header that never arrives.
INIT_TIMEOUT = 30.0


def socket_worker_loop(sock) -> None:
    """Serve one master over a connected socket until Shutdown/EOF."""
    import socket as socket_mod

    sock.settimeout(INIT_TIMEOUT)
    send_msg(sock, Hello(host=socket_mod.gethostname(), pid=os.getpid()))
    init = recv_msg(sock)
    if not isinstance(init, InitWorker):
        raise ConnectionError(f"expected InitWorker, got {init!r}")
    sock.settimeout(None)
    worker_id = init.worker_id
    try:
        runtime = WorkerRuntime(searcher_from_spec(init.spec))
    except Exception:  # noqa: BLE001 - report startup failure to the master
        send_msg(sock, WorkerError(None, worker_id, traceback.format_exc()))
        return
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            send_msg(sock, message)

    beat = _start_heartbeat(send, worker_id,
                            runtime.config.heartbeat_interval)
    try:
        while True:
            try:
                message = recv_msg(sock)
            except (OSError, ConnectionError):
                return  # master hung up (early stop) — a clean shutdown
            if message is None or isinstance(message, Shutdown):
                return
            if not isinstance(message, ExpandTask):
                raise ConnectionError(f"unexpected message {message!r}")
            reply = _serve(runtime, worker_id, message)
            try:
                send(reply)
            except (OSError, ConnectionError):
                # The master stopped reading mid-task (first violation
                # found, transition cap hit): its search is over, so are
                # we.
                return
            if runtime.should_recycle(worker_id):
                # Close the connection; the master sees EOF -> WorkerGone
                # and respawns (or elastically re-admits) a replacement.
                return
    finally:
        if beat is not None:
            beat.stop()


# ----------------------------------------------------------------------
# Quarantine sandbox
# ----------------------------------------------------------------------

def quarantine_worker_main(result_conn, spec, groups, limits: dict) -> None:
    """One-shot sandboxed expansion of a poison sibling group.

    Runs in a dedicated subprocess with rlimits applied (CPU to contain
    hangs, address space to contain memory bombs, no core dumps), expands
    ``groups`` exactly as a pool worker would — so a success merges with
    bit-identity to serial — and sends a single
    :class:`~repro.mc.wire.TaskResult` or :class:`~repro.mc.wire.WorkerError`
    back.  ``spec`` is None when the searcher is inherited by fork."""
    # Advertise the sandbox to the model under test: the hostile test apps
    # (repro/apps/hostile.py) read this to behave on the isolated retry,
    # modelling a task that was poisonous to the fleet but is salvageable.
    os.environ["NICE_QUARANTINE"] = "1"
    _apply_rlimits(limits)
    try:
        searcher = (_INHERITED_SEARCHER if spec is None
                    else searcher_from_spec(spec))
        runtime = WorkerRuntime(searcher)
        out = runtime.expand(groups)
        reply = TaskResult(0, -1, out)
    except Exception:  # noqa: BLE001 - the whole point is to catch anything
        reply = WorkerError(0, -1, traceback.format_exc())
    try:
        result_conn.send(reply)
    except OSError:
        pass


def _apply_rlimits(limits: dict) -> None:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return
    for key, which in (("cpu", "RLIMIT_CPU"),
                       ("address_space", "RLIMIT_AS")):
        value = limits.get(key)
        if not value:
            continue
        try:
            resource.setrlimit(getattr(resource, which),
                               (int(value), int(value)))
        except (OSError, ValueError):  # pragma: no cover - host forbids it
            pass
    try:
        resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
    except (OSError, ValueError):  # pragma: no cover
        pass
