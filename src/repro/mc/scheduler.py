"""Transport-agnostic parallel search scheduler (DESIGN.md, "Scheduler
and transports" and "Fault tolerance and elasticity").

The master owns the explored-state set and a frontier of **sibling
groups** ``(parent trace, [transitions])`` — trace-replay checkpoints;
full :class:`~repro.mc.system.System` objects never cross a process or
socket boundary.  Children returned by a task are deduplicated against
the global explored set *before* they are scheduled, so every reachable
state is expanded exactly once, exactly like the serial loop.  Workers
(:mod:`repro.mc.worker`) restore a group's parent by trace replay and
expand every sibling; the scheduler merges results as they arrive — no
wave barrier; completed tasks immediately refill the workers.

**Affinity routing** (``NiceConfig.affinity``, default on): every group
discovered by worker *w* has its parent trace sitting in *w*'s replay
LRU, so the scheduler keeps a per-worker frontier queue and prefers
handing a worker its own groups — the restore is then one cache hit plus
a one-transition suffix.  An idle worker with an empty queue *steals*
from the longest other queue, so affinity never serializes the search.
``affinity_hits`` / ``affinity_misses`` in :class:`SearchStats` count
groups that ran on their owner vs. stolen/rerouted ones; with affinity
off, routing is round-robin and every group counts as a miss.  Affinity
composes with the default ``dfs`` order only: ``bfs`` and ``random``
frontiers pop from one global queue in frontier order (the policy
``Searcher._pop`` applies serially) and route round-robin.

**Worker churn** (PR 4): the pool membership is dynamic.  A worker death
(process exit, socket EOF — delivered by the transport as a
:class:`~repro.mc.wire.WorkerGone` event, or discovered at submit time as
a :class:`~repro.mc.transport.WorkerLost`) requeues the dead worker's
in-flight sibling groups onto the global queue and folds its affinity
queue back in; because a group is merged at most once (stale results of
requeued tasks are dropped by task id), the explored state space stays
bit-identical to serial under any failure schedule.  The run only aborts
— with a clean :class:`~repro.mc.transport.TransportError` — when the
live pool shrinks below ``min_workers`` or more than
``max_worker_failures`` deaths accumulate.  Symmetrically, an elastic
socket worker connecting mid-search (:class:`~repro.mc.wire.WorkerJoined`)
enters the routing tables and receives work on the next dispatch.

**Adaptive batch sizing** (``adaptive_batching``, default on): the
per-task node/group budgets start from ``batch_nodes``/``batch_groups``
and adapt per worker from observed task round-trip times — fast round
trips grow the batch geometrically (amortizing per-task overhead, the
regime high-RTT socket workers live in), slow ones shrink it back toward
fine-grained load balancing (which also caps how much work a dying worker
can strand).  Batch sizing never affects *what* is explored, only how it
is packed.

**Checkpointing** (PR 5): with ``checkpoint_dir`` set the scheduler
periodically snapshots the explored-set store, the queued sibling
groups, the stats and the config (DESIGN.md, "State store and
restartability").  A snapshot is only written at a **consistent cut**:
dispatching pauses and every in-flight task is drained (merged) first,
so no unit of work can be half-counted; ``nice resume`` then continues
the search — on any transport — with a final explored state space
bit-identical to an uninterrupted run.

Exactness contract (unchanged from PR 1): every (state, transition) pair
is executed and property-checked exactly once, so for an exhaustive
search ``unique_states``, ``transitions_executed``, ``revisited_states``
and ``quiescent_states`` all equal the serial searcher's — on every
transport and start method, and under any worker failure/join schedule
the policy survives.  The set of *violated properties* is likewise
identical.  Individual violation records can differ from serial DFS in
their messages and traces whenever a property reads execution *history*
(packet-fate ledger, packet-in logs): state matching keeps only the first
path that reaches each state, and which path wins is a search-order
artifact — serial DFS and BFS disagree on those records the same way.
Early-stopping runs are approximate: workers in flight when the stop
condition trips may have executed extra transitions.
"""

from __future__ import annotations

import hashlib
import pickle
import sys
import time
from collections import deque

from repro.config import ORDER_BFS, ORDER_DFS
from repro.mc import store as store_mod
from repro.mc.search import (
    MODEL_ERROR_PROPERTY,
    ModelError,
    QuarantinedTask,
    Searcher,
    SearchStats,
    Violation,
    _StopSearch,
)
from repro.mc.transport import TransportError, WorkerLost, create_transport
from repro.mc.wire import (
    ExpandTask,
    Heartbeat,
    TaskResult,
    WorkerError,
    WorkerGone,
    WorkerJoined,
)


class ParallelSearcher(Searcher):
    """Figure 5's loop, sharded across ``config.workers`` workers.

    ``scenario_spec`` (a :class:`~repro.mc.wire.ScenarioSpec` or None) is
    what spawn/socket transports ship to workers so they can rebuild the
    initial System by registry name; without it only ``fork`` workers —
    which inherit the closures — are possible.
    """

    def __init__(self, system_factory, properties, config, strategy=None,
                 discoverer=None, scenario_spec=None):
        super().__init__(system_factory, properties, config,
                         strategy=strategy, discoverer=discoverer,
                         scenario_spec=scenario_spec)

    def run(self) -> SearchStats:
        if self.config.workers <= 1:
            return super().run()
        transport = create_transport(self.config, self.scenario_spec)
        if transport is None:
            # create_transport already warned about why.
            return super().run()
        return _Scheduler(self, transport).run()


class _Scheduler:
    """One search run: a frontier of sibling groups routed to workers."""

    #: Tasks kept in flight per worker (>1 hides result latency).
    PER_WORKER_INFLIGHT = 2

    #: Adaptive batching (``NiceConfig.adaptive_batching``): grow a
    #: worker's batch while its task round trips finish under RTT_LOW
    #: seconds, shrink while they exceed RTT_HIGH.  The asymmetric step
    #: (gentle growth, halving shrink) converges without oscillating.
    RTT_LOW = 0.010
    RTT_HIGH = 0.100
    BATCH_GROW = 1.5
    BATCH_SHRINK = 0.5
    MAX_BATCH_NODES = 512

    #: Hang detection (DESIGN.md, "Failure containment").  A task's hard
    #: deadline derives from the worker's EWMA task round-trip time:
    #: ``DEADLINE_RTT_FACTOR x rtt x PER_WORKER_INFLIGHT`` (the depth
    #: factor because a task can wait behind the others in the worker's
    #: queue), floored at DEADLINE_FLOOR seconds so early noisy samples
    #: never declare a healthy worker hung.  ``task_deadline`` pins the
    #: deadline instead; ``0`` disables detection.
    DEADLINE_FLOOR = 30.0
    DEADLINE_RTT_FACTOR = 50.0
    #: EWMA weight of a new RTT sample in the deadline estimator.
    RTT_EWMA = 0.3
    #: Fallback wall-clock allowance for one quarantine sandbox run when
    #: no explicit ``task_deadline`` is configured.
    QUARANTINE_DEADLINE = 30.0
    #: Seconds an asynchronously respawned worker (socket transport) gets
    #: to complete its elastic join before it stops counting toward the
    #: ``min_workers`` floor.
    RESPAWN_GRACE = 60.0

    def __init__(self, searcher: ParallelSearcher, transport):
        self.searcher = searcher
        self.config = searcher.config
        self.transport = transport
        #: Affinity routing only composes with DFS pops: BFS and random
        #: orders need one global queue popped in frontier order, exactly
        #: like PR 1's engine (which had no affinity on any order).
        self._affine = (self.config.affinity
                        and self.config.search_order == ORDER_DFS)
        #: owner worker id (or None) -> queue of (trace, steps) groups.
        #: With affinity off everything lives under None.  Deques: BFS pops
        #: the head and defers oversized groups back to it, both O(1).
        self._queues: dict[int | None, deque] = {None: deque()}
        self._pending_groups = 0
        self._explored = store_mod.create_store(self.config)
        self._in_flight: dict[int, tuple[int, list]] = {}  # task_id -> (wid, groups)
        #: Live pool membership; filled from ``transport.worker_ids()``
        #: once the transport is up — deaths remove ids, elastic joins add
        #: them.
        self._live: set[int] = set()
        #: Deaths already processed, for deduplication: a submit-time
        #: WorkerLost and the transport's own WorkerGone can both report
        #: the same worker.
        self._dead: set[int] = set()
        self._load: dict[int, int] = {}
        #: Per-worker adaptive node budget (float so growth compounds).
        self._batch: dict[int, float] = {}
        #: task id -> (submit timestamp, pipelining depth at submit).
        self._submit_times: dict[int, tuple[float, int]] = {}
        #: Per-worker EWMA of per-task service time, feeding the deadline
        #: derivation (kept separately from ``_batch`` so hang detection
        #: works with adaptive batching off).
        self._rtt: dict[int, float] = {}
        #: task id -> absolute monotonic deadline (only tasks with hang
        #: detection enabled appear here).
        self._deadlines: dict[int, float] = {}
        #: worker id -> monotonic timestamp of its last heartbeat.
        self._last_beat: dict[int, float] = {}
        #: Poison attribution: content key of a sibling group -> number of
        #: worker deaths that group was in flight for.
        self._poison: dict[bytes, int] = {}
        #: Replacements requested from an *asynchronous* spawn_worker (the
        #: socket transport): they count toward the ``min_workers`` floor
        #: until they join or ``_respawn_deadline`` expires.
        self._pending_respawns = 0
        self._respawn_deadline: float | None = None
        self._next_task_id = 0
        self._next_round_robin = 0
        self.stats = SearchStats()
        if transport.workers < self.config.min_workers:
            # An availability floor above the pool size would otherwise be
            # silently violated for the whole run and only noticed if a
            # worker happened to die.
            raise TransportError(
                f"min_workers={self.config.min_workers} exceeds the"
                f" configured pool of {transport.workers} worker(s)")

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> SearchStats:
        searcher, stats = self.searcher, self.stats
        stats.engine = self.transport.name
        stats.workers = self.transport.workers
        resume = searcher._resume
        baseline = None
        start = time.perf_counter()
        initial = searcher.system_factory()
        for prop in searcher.properties:
            prop.reset(initial)
        if resume is None:
            try:
                searcher._check_properties(initial, None, stats, ())
            except _StopSearch:
                # The search ends before the transport comes up, but the
                # store from __init__ is live: close it (a sharded store
                # holds open shard files and a temp spill directory).
                stats.store = self._explored.kind
                stats.unique_states = len(self._explored)
                self._explored.close()
                stats.wall_time = time.perf_counter() - start
                return stats
            self._explored.add(initial.state_hash())
            self._push(None, ((), None))
        else:
            resume.restore_stats(stats)
            # Preload the explored set (with the checkpoint's Bloom
            # summaries when compatible); a layout-compatible checkpoint
            # becomes the baseline the next snapshot hard-links from.
            baseline = store_mod.restore_store(self._explored, resume)
            if resume.rng_state is not None:
                searcher._rng.setstate(resume.rng_state)
            # The old owners' replay caches died with the previous run:
            # every checkpointed group restarts unowned.
            for group in resume.frontier:
                self._push(None, group)
        checkpointer = store_mod.Checkpointer(
            self.config, searcher.scenario_spec, self._explored, stats,
            previous=baseline)
        checkpointer.install()
        # Frame bytes of earlier legs of a resumed search; this leg's
        # transport total goes on top (see _count_payload).
        self._payload_base = stats.result_payload_bytes
        # start() is inside the try: a transport that fails to come up
        # (accept deadline, dead spawn) must still have stop() run so no
        # listener or half-started worker outlives the search.
        try:
            self.transport.start(searcher)
            # Enroll the pool the transport *actually* brought up: the
            # socket accept barrier can burn ids on workers that die
            # mid-handshake, so the live ids need not be 0..workers-1.
            for worker_id in self.transport.worker_ids():
                self._enroll(worker_id)
            while self._pending_groups or self._in_flight:
                if checkpointer.due():
                    # Drain first: a snapshot must capture a consistent
                    # cut (every dispatched task merged, nothing in
                    # flight), or resumed counters would double-count.
                    self._drain()
                    self._count_payload()
                    checkpointer.write(self._frontier_groups(),
                                       searcher._rng.getstate())
                    if checkpointer.sigterm:
                        stats.terminated = "sigterm"
                        raise _StopSearch()
                    continue  # the drain may have emptied the frontier
                self._dispatch()
                message = self.transport.recv(timeout=self._recv_timeout())
                if message is not None:
                    self._handle(message)
                self._check_deadlines()
        except _StopSearch:
            pass
        finally:
            # Nested so an exception out of stop() (a transport teardown
            # bug, a signal mid-close) can never skip restoring the
            # previous SIGTERM handler — leaking the checkpointer's
            # flag-setting handler past the search would swallow real
            # SIGTERMs for the rest of the process.
            try:
                self.transport.stop()
            finally:
                checkpointer.restore()
                checkpointer.sync()
                stats.unique_states = len(self._explored)
                self._explored.close()
                self._count_payload()
        stats.wall_time = time.perf_counter() - start
        # Worker deltas were merged per task; add the master's own hashing
        # (the initial state) on top.
        stats.add_hash_stats(initial._hash_stats.snapshot())
        return stats

    def _count_payload(self) -> None:
        """Copy the transport's received-frame byte total into the stats
        (before a snapshot, so checkpoints carry it, and at the end)."""
        self.stats.result_payload_bytes = (self._payload_base
                                           + self.transport.result_bytes)

    def _drain(self) -> None:
        """Absorb every in-flight result (worker churn included) so the
        master state is a consistent cut of the search.  Deadlines keep
        ticking here too — a worker that hangs while a checkpoint drains
        would otherwise stall the snapshot forever."""
        while self._in_flight:
            message = self.transport.recv(timeout=self._recv_timeout())
            if message is not None:
                self._handle(message)
            self._check_deadlines()

    def _frontier_groups(self) -> list:
        """Every queued sibling group, global queue first then per-owner
        queues in worker-id order — the checkpoint's frontier."""
        groups = list(self._queues.get(None, ()))
        for owner in sorted(w for w in self._queues if w is not None):
            groups.extend(self._queues[owner])
        return groups

    def _handle(self, message) -> None:
        if isinstance(message, TaskResult):
            self._merge(message)
        elif isinstance(message, Heartbeat):
            self._last_beat[message.worker_id] = time.monotonic()
        elif isinstance(message, WorkerGone):
            self._on_worker_gone(message.worker_id, message.reason)
        elif isinstance(message, WorkerJoined):
            self._on_worker_joined(message.worker_id)
        elif isinstance(message, WorkerError):
            # A task that *raised* inside the worker is a deterministic
            # bug, not churn: retrying it elsewhere would raise the same
            # way, so surface the traceback instead of looping forever.
            # Model-handler exceptions never arrive here unless fail_fast
            # asked for exactly this abort — workers contain them as
            # ModelError counterexamples (see WorkerRuntime.expand).
            raise TransportError(
                f"worker {message.worker_id} failed on task"
                f" {message.task_id}:\n{message.error}")
        else:
            raise TransportError(f"unexpected transport message {message!r}")

    # ------------------------------------------------------------------
    # Worker churn
    # ------------------------------------------------------------------

    def _on_worker_gone(self, worker_id: int, reason: str) -> None:
        """Requeue a dead worker's work, repair affinity state, and apply
        the ``min_workers`` / ``max_worker_failures`` policy."""
        if worker_id in self._dead:
            return  # duplicate notice (submit failure + transport event)
        # Deliberately NOT gated on _live membership: a worker that died
        # in the window between the transport's start() and the
        # enrollment snapshot was never enrolled, but its death still
        # shrank the pool and must hit the policy below — otherwise a
        # 1-worker run whose worker dies in that window would hang in
        # recv() forever instead of failing cleanly.
        self._dead.add(worker_id)
        self._live.discard(worker_id)
        self._load.pop(worker_id, None)
        self._batch.pop(worker_id, None)
        self._rtt.pop(worker_id, None)
        self._last_beat.pop(worker_id, None)
        stats = self.stats
        stats.worker_failures += 1
        # A tolerated death must still be *visible*: the reason can carry a
        # startup traceback or a connection error an operator needs even
        # when the policy lets the search continue.
        print(f"search worker {worker_id} died"
              f" ({len(self._live)} worker(s) left); requeueing its work:"
              f" {reason}", file=sys.stderr, flush=True)
        # Requeue in-flight sibling groups.  The old task ids are simply
        # forgotten: a stale result still in the pipe when the death was
        # detected no longer matches ``_in_flight`` and is dropped —
        # whether the death was organic or a deadline kill — so every
        # group is merged exactly once: the bit-identical-state-space
        # guarantee under churn.  Each group is charged one death toward
        # poison attribution; past ``max_task_retries`` it goes to
        # quarantine instead of back to the fleet.
        poisoned: list[tuple[tuple, int]] = []
        for task_id in [t for t, (w, _) in self._in_flight.items()
                        if w == worker_id]:
            _, groups = self._in_flight.pop(task_id)
            self._submit_times.pop(task_id, None)
            self._deadlines.pop(task_id, None)
            stats.tasks_retried += 1
            for group in groups:
                stats.groups_reassigned += 1
                attempts = self._poison.get(self._group_key(group), 0) + 1
                self._poison[self._group_key(group)] = attempts
                if attempts > self.config.max_task_retries:
                    poisoned.append((group, attempts))
                else:
                    self._push(None, group)
        # Affinity repair: the dead worker's replay cache is gone, so its
        # queued groups lose their owner and rejoin the global queue (the
        # next dispatch re-counts them as affinity misses).
        orphaned = self._queues.pop(worker_id, None)
        if orphaned:
            stats.groups_reassigned += len(orphaned)
            self._queues[None].extend(orphaned)
        if self.config.respawn_workers:
            # Autoscaler: replace the dead worker *before* the policy
            # check, so a synchronously respawned local worker keeps the
            # pool at its ``min_workers`` floor.  Deaths still count
            # toward ``max_worker_failures``.
            self._respawn(worker_id)
        failures_allowed = self.config.max_worker_failures
        if failures_allowed is not None \
                and stats.worker_failures > failures_allowed:
            raise TransportError(
                f"giving up after {stats.worker_failures} worker"
                f" failures (max_worker_failures={failures_allowed});"
                f" last failure: worker {worker_id}: {reason}")
        if (len(self._live) + self._pending_respawns
                < self.config.min_workers):
            raise TransportError(
                f"worker pool shrank to {len(self._live)} live worker(s),"
                f" below min_workers={self.config.min_workers}"
                f" ({stats.worker_failures} failure(s) total);"
                f" last failure: worker {worker_id}: {reason}")
        # Quarantine last, after the pool is repaired and the policy has
        # passed: the sandbox can merge results (possibly stopping the
        # search) and must not run if the fleet is aborting anyway.
        for group, attempts in poisoned:
            self._quarantine(group, attempts)

    @staticmethod
    def _group_key(group) -> bytes:
        """Content identity of a sibling group, stable across requeues and
        re-batching (the same group object round-trips through the
        scheduler, so its pickled form is stable within a run)."""
        payload = pickle.dumps(group, protocol=pickle.HIGHEST_PROTOCOL)
        return hashlib.blake2b(payload, digest_size=16).digest()

    # ------------------------------------------------------------------
    # Poison-task quarantine
    # ------------------------------------------------------------------

    def _quarantine(self, group, attempts: int) -> None:
        """A group has now been in flight for ``attempts`` worker deaths:
        stop feeding it to the fleet.  With quarantine enabled it gets one
        last run in a sandboxed one-shot subprocess (rlimits contain what
        killed the pool workers); a sandbox success merges normally —
        bit-identity to serial is preserved.  Any sandbox failure — or
        quarantine disabled — degrades gracefully: the group is abandoned
        and a :class:`~repro.mc.search.QuarantinedTask` diagnostic records
        what was given up, instead of the whole search aborting."""
        stats = self.stats
        trace, steps = group
        if self.config.quarantine:
            stats.tasks_quarantined += 1
            print(f"sibling group at trace length {len(trace)} survived"
                  f" {attempts} worker death(s); quarantining it in a"
                  f" sandboxed subprocess", file=sys.stderr, flush=True)
            out, failure = self._sandbox_expand(group)
            if out is not None:
                print("quarantined group completed in the sandbox;"
                      " merging its result", file=sys.stderr, flush=True)
                self._absorb(out, [group], None)
                return
        else:
            failure = "quarantine disabled (NiceConfig.quarantine=False)"
        stats.quarantined_tasks.append(
            QuarantinedTask(trace, steps, attempts, failure))
        print(f"abandoning poison sibling group after {attempts}"
              f" attempt(s): {failure}\nthe rest of the state space is"
              f" still being explored", file=sys.stderr, flush=True)

    def _sandbox_expand(self, group):
        """Run one group through ``quarantine_worker_main`` in a fresh
        subprocess.  Returns ``(out, "")`` on success or ``(None, why)``
        on any failure."""
        import multiprocessing
        import signal
        import threading

        from repro.mc import worker as worker_mod
        from repro.mc.wire import spec_is_portable

        spec = self.searcher.scenario_spec
        if "fork" in multiprocessing.get_all_start_methods():
            # Fork even under spawn/socket transports: it inherits the
            # live searcher, so hand-built scenarios stay quarantinable.
            context = multiprocessing.get_context("fork")
            use_spec = None
        elif spec_is_portable(spec):
            context = multiprocessing.get_context("spawn")
            use_spec = spec
        else:
            return None, ("no sandbox available: the platform lacks 'fork'"
                          " and the scenario has no portable spec")
        allowance = self.config.task_deadline or self.QUARANTINE_DEADLINE
        limits = {"cpu": int(allowance) + 1,
                  "address_space": self.config.worker_memory_limit}
        recv_end, send_end = context.Pipe(duplex=False)
        inherit = use_spec is None
        if inherit:
            worker_mod._INHERITED_SEARCHER = self.searcher
        try:
            process = context.Process(
                target=worker_mod.quarantine_worker_main,
                args=(send_end, use_spec, [group], limits), daemon=True)
            # Same SIGTERM bracket as the local transport's _launch: the
            # sandbox must not inherit the checkpointer's flag handler.
            previous = None
            if threading.current_thread() is threading.main_thread():
                previous = signal.signal(signal.SIGTERM, signal.SIG_DFL)
            try:
                process.start()
            finally:
                if previous is not None:
                    signal.signal(signal.SIGTERM, previous)
        finally:
            if inherit:
                worker_mod._INHERITED_SEARCHER = None
        send_end.close()
        reply = None
        timed_out = False
        try:
            if recv_end.poll(allowance + 5.0):
                reply = recv_end.recv()
            else:
                timed_out = True
        except (EOFError, OSError):
            reply = None  # died mid-write; exit status tells the story
        try:
            if reply is None:
                if timed_out and process.is_alive():
                    process.kill()
                    process.join(5.0)
                    return None, (f"sandbox run exceeded its"
                                  f" {allowance:.0f}s allowance")
                # A pipe EOF races process teardown: the kernel closes the
                # child's fds a beat before it becomes reapable, so join
                # *before* reading the exit code or a self-inflicted
                # SIGKILL gets misread as a hang.
                process.join(5.0)
                if process.is_alive():
                    process.kill()
                    process.join(5.0)
                    return None, (f"sandbox run exceeded its"
                                  f" {allowance:.0f}s allowance")
                return None, (f"sandbox run died"
                              f" ({_describe_exit(process.exitcode)})")
            if isinstance(reply, TaskResult):
                return reply.out, ""
            if isinstance(reply, WorkerError):
                return None, f"sandbox run raised:\n{reply.error}"
            return None, f"sandbox sent an unexpected {reply!r}"
        finally:
            if process.is_alive():
                process.kill()
            process.join(5.0)
            recv_end.close()

    def _respawn(self, dead_worker_id: int) -> None:
        """Ask the transport for a replacement worker (``respawn_workers``).

        Local pools return the fresh worker id synchronously and it is
        enrolled immediately; the socket transport spawns a subprocess
        that joins through the elastic accept path and surfaces later as
        a :class:`~repro.mc.wire.WorkerJoined` event.  A transport that
        cannot spawn (or a spawn that fails) logs and moves on — the
        ordinary failure policy then decides whether the shrunken pool
        survives."""
        try:
            new_id = self.transport.spawn_worker()
        except Exception as exc:  # noqa: BLE001 - any failure, policy decides
            print(f"could not respawn a replacement for dead worker"
                  f" {dead_worker_id}: {exc}", file=sys.stderr, flush=True)
            return
        self.stats.workers_respawned += 1
        if new_id is not None and new_id not in self._live:
            self._enroll(new_id)
            self.stats.workers += 1
            print(f"respawned worker {new_id} to replace dead worker"
                  f" {dead_worker_id}", file=sys.stderr, flush=True)
        elif new_id is None:
            # Asynchronous join (socket): the replacement holds a seat in
            # the min_workers accounting until it arrives — or until the
            # grace deadline declares it lost.
            self._pending_respawns += 1
            self._respawn_deadline = time.monotonic() + self.RESPAWN_GRACE
            print(f"respawning a replacement for dead worker"
                  f" {dead_worker_id} (joins asynchronously)",
                  file=sys.stderr, flush=True)

    def _enroll(self, worker_id: int) -> None:
        """Enter a worker into the routing tables."""
        self._live.add(worker_id)
        self._load[worker_id] = 0
        self._batch[worker_id] = float(self.config.batch_nodes)
        self.stats.worker_tasks.setdefault(worker_id, 0)

    def _on_worker_joined(self, worker_id: int) -> None:
        """Enter an elastic joiner into the routing tables; the next
        ``_dispatch`` feeds it (an idle joiner steals immediately)."""
        if worker_id in self._live or worker_id in self._dead:
            return
        if self._pending_respawns:
            self._pending_respawns -= 1
            if not self._pending_respawns:
                self._respawn_deadline = None
        self._enroll(worker_id)
        self.stats.elastic_joins += 1
        self.stats.workers += 1

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _push(self, owner: int | None, group: tuple) -> None:
        if not self._affine or (owner is not None
                                and owner not in self._live):
            owner = None
        self._queues.setdefault(owner, deque()).append(group)
        self._pending_groups += 1

    def _pop_group(self, queue: deque) -> tuple:
        """Pop per ``config.search_order`` — dfs from the end, bfs from the
        front, random via the searcher's seeded RNG (the same policy
        ``Searcher._pop`` applies to the serial frontier)."""
        order = self.config.search_order
        if order == ORDER_DFS:
            return queue.pop()
        if order == ORDER_BFS:
            return queue.popleft()
        index = self.searcher._rng.randrange(len(queue))
        queue.rotate(-index)
        group = queue.popleft()
        queue.rotate(index)
        return group

    def _dispatch(self) -> None:
        """Hand groups to every worker with spare capacity."""
        while self._pending_groups:
            worker_id = self._pick_worker()
            if worker_id is None:
                return
            groups = self._pack(worker_id)
            task_id = self._next_task_id
            self._next_task_id += 1
            self._in_flight[task_id] = (worker_id, groups)
            self._load[worker_id] += 1
            # The pipelining depth at submit time rides along so the RTT
            # sample can be normalized to per-task service time: a task
            # submitted behind another in-flight task waits its turn, and
            # counting that queueing as service time would stop batch
            # growth at half the intended threshold.
            now = time.monotonic()
            self._submit_times[task_id] = (now, self._load[worker_id])
            allowance = self._task_deadline(worker_id)
            if allowance:
                self._deadlines[task_id] = now + allowance
            try:
                self.transport.submit(worker_id, ExpandTask(task_id, groups))
            except WorkerLost as lost:
                # The task is registered in-flight, so the death handler
                # requeues it along with anything else the worker held.
                self._on_worker_gone(worker_id, lost.reason)

    def _pick_worker(self) -> int | None:
        """Next worker to feed: affine work first, then the least loaded
        (round-robin tie-break keeps spawn-order bias out)."""
        spare = [w for w in sorted(self._live)
                 if self._load[w] < self.PER_WORKER_INFLIGHT]
        if not spare:
            return None
        if self._affine:
            affine = [w for w in spare if self._queues.get(w)]
            if affine:
                return min(affine, key=lambda w: self._load[w])
        modulus = max(self._live) + 1
        choice = min(
            spare,
            key=lambda w: (self._load[w],
                           (w - self._next_round_robin) % modulus),
        )
        self._next_round_robin = (choice + 1) % modulus
        return choice

    def _node_budget(self, worker_id: int) -> int:
        """Nodes to pack into one task for this worker.

        While the explored set is small a task carries a single node, so
        the search fans out across the pool instead of running serially
        inside one worker.  After that, either the static
        ``batch_nodes`` (adaptive batching off — the measurable baseline)
        or the worker's RTT-adapted budget applies.
        """
        if len(self._explored) < 4 * max(len(self._live), 1):
            return 1
        if not self.config.adaptive_batching:
            return self.config.batch_nodes
        adapted = max(1, int(self._batch[worker_id]))
        # Fair-share guard: an RTT-*grown* batch must never swallow so
        # much of the frontier that the rest of the pool idles — cap each
        # task at this worker's share of the pending work (group count as
        # a proxy for nodes).  The cap never bites below the configured
        # ``batch_nodes`` seed: up to there the static baseline is the
        # contract, and throttling it would just add per-task overhead.
        fair = self._pending_groups // (max(len(self._live), 1)
                                        * self.PER_WORKER_INFLIGHT)
        return max(1, min(adapted, max(self.config.batch_nodes, fair)))

    def _group_budget(self, worker_id: int, node_budget: int) -> int:
        """Groups per task: the static cap, or — adaptive — the static
        groups:nodes ratio applied to the adapted node budget."""
        if not self.config.adaptive_batching:
            return self.config.batch_groups
        ratio = self.config.batch_groups / self.config.batch_nodes
        return max(1, round(node_budget * ratio))

    def _observe_rtt(self, worker_id: int, rtt: float) -> None:
        # The deadline estimator smooths every sample, independent of
        # whether batch adaptation is on — hang detection must not change
        # its trigger when the batching baseline is being measured.
        previous = self._rtt.get(worker_id)
        self._rtt[worker_id] = (rtt if previous is None else
                                (1 - self.RTT_EWMA) * previous
                                + self.RTT_EWMA * rtt)
        if not self.config.adaptive_batching \
                or worker_id not in self._batch:
            return
        budget = self._batch[worker_id]
        if rtt < self.RTT_LOW:
            # The growth ceiling never sits below a larger configured
            # seed: a fast round trip must not *shrink* --batch-nodes.
            ceiling = max(float(self.MAX_BATCH_NODES),
                          float(self.config.batch_nodes))
            budget = min(budget * self.BATCH_GROW, ceiling)
        elif rtt > self.RTT_HIGH:
            budget = max(budget * self.BATCH_SHRINK, 1.0)
        self._batch[worker_id] = budget

    def _pack(self, worker_id: int) -> list:
        """Pop up to the worker's group budget (node-budget bounded) for
        one task.  Groups owned by ``worker_id`` are taken first (affinity
        hits); an empty own queue steals from the longest other queue
        (affinity misses)."""
        budget = self._node_budget(worker_id)
        group_budget = self._group_budget(worker_id, budget)
        groups: list = []
        nodes = 0
        while self._pending_groups and len(groups) < group_budget \
                and nodes < budget:
            queue, owned = self._source_queue(worker_id)
            trace, steps = self._pop_group(queue)
            take = len(steps) if steps is not None else 1
            if steps is not None and nodes + take > budget and groups:
                # Defer an oversized group rather than overshooting,
                # putting it back where the order's next pop finds it.
                if self.config.search_order == ORDER_BFS:
                    queue.appendleft((trace, steps))
                else:
                    queue.append((trace, steps))
                break
            self._pending_groups -= 1
            if owned and self._affine:
                self.stats.affinity_hits += 1
            else:
                self.stats.affinity_misses += 1
            groups.append((trace, steps))
            nodes += take
        return groups

    def _source_queue(self, worker_id: int) -> tuple[list, bool]:
        own = self._queues.get(worker_id)
        if own:
            return own, True
        longest = max((q for q in self._queues.values() if q), key=len)
        return longest, False

    # ------------------------------------------------------------------
    # Hang detection
    # ------------------------------------------------------------------

    def _task_deadline(self, worker_id: int) -> float:
        """Seconds a freshly submitted task gets before its worker is
        declared hung; 0 disables (see the class constants)."""
        if self.config.task_deadline is not None:
            return self.config.task_deadline
        rtt = self._rtt.get(worker_id)
        if rtt is None:
            return self.DEADLINE_FLOOR
        return max(self.DEADLINE_FLOOR,
                   self.DEADLINE_RTT_FACTOR * rtt * self.PER_WORKER_INFLIGHT)

    def _recv_timeout(self) -> float | None:
        """How long ``recv`` may block: until the nearest task deadline or
        the respawn-grace deadline, or forever when neither is armed."""
        armed = list(self._deadlines.values())
        if self._respawn_deadline is not None:
            armed.append(self._respawn_deadline)
        if not armed:
            return None
        return max(0.05, min(armed) - time.monotonic())

    def _check_deadlines(self) -> None:
        """Declare workers with expired tasks hung: kill and requeue.

        Runs after every ``recv`` wakeup (results, heartbeats, and
        timeouts alike).  The kill routes the worker through the ordinary
        death path — requeue, poison attribution, respawn, policy — and
        the transport's own later WorkerGone for the killed process is
        deduplicated by ``_dead``.  Results already in the pipe from the
        killed worker no longer match ``_in_flight`` and are dropped, the
        same stale-result rule any death relies on."""
        now = time.monotonic()
        if (self._respawn_deadline is not None
                and now >= self._respawn_deadline):
            # Replacement worker(s) never joined: their seats in the
            # min_workers accounting are forfeit.  Re-apply the floor so
            # a fleet waiting on ghosts aborts instead of hanging.
            lost = self._pending_respawns
            self._pending_respawns = 0
            self._respawn_deadline = None
            if len(self._live) < self.config.min_workers:
                raise TransportError(
                    f"{lost} respawned replacement worker(s) never joined"
                    f" within {self.RESPAWN_GRACE:.0f}s and the pool"
                    f" ({len(self._live)} live) is below"
                    f" min_workers={self.config.min_workers}")
        if not self._deadlines:
            return
        expired = [task_id for task_id, deadline in self._deadlines.items()
                   if deadline <= now]
        for task_id in expired:
            held = self._in_flight.get(task_id)
            if held is None:
                self._deadlines.pop(task_id, None)
                continue
            worker_id = held[0]
            if worker_id in self._dead:
                continue  # its death is already being processed
            beat = self._last_beat.get(worker_id)
            liveness = ("no heartbeat received" if beat is None
                        else f"last heartbeat {now - beat:.1f}s ago")
            self.stats.workers_hung += 1
            print(f"search worker {worker_id} declared hung: task"
                  f" {task_id} missed its deadline ({liveness});"
                  f" killing it", file=sys.stderr, flush=True)
            try:
                self.transport.kill_worker(worker_id)
                self.stats.deadline_kills += 1
            except Exception as exc:  # noqa: BLE001 - still requeue its work
                print(f"could not kill hung worker {worker_id}: {exc}",
                      file=sys.stderr, flush=True)
            self._on_worker_gone(
                worker_id,
                f"hung: task {task_id} exceeded its deadline ({liveness})")

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    @staticmethod
    def _node_trace(groups, gi, si) -> tuple:
        trace, steps = groups[gi]
        return trace if si is None else trace + (steps[si],)

    def _merge(self, result: TaskResult) -> None:
        """Retire one completed task's bookkeeping and fold its output
        into the search state."""
        task_id = result.task_id
        if task_id not in self._in_flight:
            # A result that outraced its worker's death notice — organic
            # or a deadline kill: the task was already requeued, and
            # merging both copies would double-count — drop the stale one.
            return
        worker_id, groups = self._in_flight.pop(task_id)
        self._deadlines.pop(task_id, None)
        self._load[worker_id] -= 1
        submitted = self._submit_times.pop(task_id, None)
        if submitted is not None:
            sent_at, depth = submitted
            self._observe_rtt(
                worker_id, (time.monotonic() - sent_at) / max(depth, 1))
        self.stats.worker_tasks[worker_id] = \
            self.stats.worker_tasks.get(worker_id, 0) + 1
        self._absorb(result.out, groups, worker_id)

    def _absorb(self, out: dict, groups, worker_id: int | None) -> None:
        """Fold one expansion output into the search state — the shared
        back half of merging, used by pool task results and quarantine
        sandbox successes alike (``worker_id`` None for the sandbox: its
        one-shot process has no replay cache to route children back to)."""
        stats = self.stats
        stats.discover_packet_runs += out["discover_packet_runs"]
        stats.discover_stats_runs += out["discover_stats_runs"]
        stats.transitions_executed += out["transitions"]
        stats.quiescent_states += out["quiescent"]
        stats.replayed_transitions += out["replayed"]
        stats.rebuilt_transitions += out["rebuilt"]
        stats.cache_hits += out["cache_hits"]
        stats.cache_misses += out["cache_misses"]
        stats.add_hash_stats(out["hash_stats"])
        for record in out["violations"]:
            # Plain violations are 6-tuples; contained model exceptions
            # carry a 7th element, the worker-side traceback.
            property_name, message, digest, gi, si, transition = record[:6]
            trace = self._node_trace(groups, gi, si)
            if transition is not None:
                trace = trace + (transition,)
            if property_name == MODEL_ERROR_PROPERTY and len(record) > 6:
                stats.model_errors += 1
                stats.violations.append(
                    ModelError(property_name, message, trace, digest,
                               stats.transitions_executed,
                               details=record[6])
                )
            else:
                stats.violations.append(
                    Violation(property_name, message, trace, digest,
                              stats.transitions_executed)
                )
            if self.config.stop_at_first_violation:
                stats.terminated = "first_violation"
                raise _StopSearch()
        if (self.config.max_transitions is not None
                and stats.transitions_executed
                >= self.config.max_transitions):
            stats.terminated = "max_transitions"
            raise _StopSearch()
        children = out["children"]
        if self.config.state_matching and children:
            # One batched store append per merged task result; add_batch
            # preserves order (and in-batch duplicate semantics), so the
            # frontier matches what per-child adds would have built.
            flags = iter(self._explored.add_batch(
                [digest for _, _, kids in children for _, digest in kids]))
            for gi, si, kids in children:
                fresh = []
                for transition, _ in kids:
                    if next(flags):
                        fresh.append(transition)
                    else:
                        stats.revisited_states += 1
                if fresh:
                    # The worker that expanded this node holds its trace
                    # in its replay LRU — route the children back to it.
                    self._push(worker_id,
                               (self._node_trace(groups, gi, si), fresh))
        else:
            for gi, si, kids in children:
                if kids:
                    self._push(worker_id,
                               (self._node_trace(groups, gi, si),
                                [transition for transition, _ in kids]))


def _describe_exit(exitcode: int | None) -> str:
    """Human-readable subprocess exit status (signal names included)."""
    if exitcode is None:
        return "still running"
    if exitcode < 0:
        import signal

        try:
            return f"killed by {signal.Signals(-exitcode).name}"
        except ValueError:
            return f"killed by signal {-exitcode}"
    return f"exit code {exitcode}"
