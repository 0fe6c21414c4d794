"""TCP transport: the VPKIaaS-style scale-out (PAPERS.md).

The master listens on ``NiceConfig.worker_address`` and waits for
``workers`` connections.  Each worker — a ``nice worker --connect
HOST:PORT`` process, on this machine or another — sends a
:class:`~repro.mc.wire.Hello`, receives an
:class:`~repro.mc.wire.InitWorker` carrying the
:class:`~repro.mc.wire.ScenarioSpec`, rebuilds the System by registry
name, and then serves :class:`~repro.mc.wire.ExpandTask` messages.

The pool is **elastic**: the listener stays open for the whole search, and
any worker connecting *after* the initial barrier joins the live run — it
completes the same handshake, gets the next worker id, and surfaces to the
scheduler as a :class:`~repro.mc.wire.WorkerJoined` event, at which point
it starts receiving tasks from the per-worker queues (the VPKIaaS
autoscaling shape: add ``nice worker`` processes whenever there are spare
cores, mid-run).  Symmetrically, a dropped connection or dead worker
process surfaces as :class:`~repro.mc.wire.WorkerGone` — never a hang and
never, by itself, an aborted search; the scheduler requeues the dead
worker's in-flight groups and applies the ``min_workers`` /
``max_worker_failures`` policy.

By default (``spawn_socket_workers=True``) the transport launches the
worker subprocesses itself, pointed at its own ephemeral port, so
``nice run --transport socket`` works with zero setup; with it off, the
master only listens, and the operator starts workers wherever there are
cores.  A reader thread per connection funnels results into one queue.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import queue
import signal
import socket
import subprocess
import sys
import tempfile
import threading
from time import monotonic as _monotonic

import repro
from repro.mc.transport import Transport, TransportError, WorkerLost
from repro.mc.wire import (
    PROTOCOL_VERSION,
    Hello,
    InitWorker,
    Shutdown,
    WorkerError,
    WorkerGone,
    WorkerJoined,
    recv_frame,
    recv_msg,
    send_msg,
)


def parse_address(address: str) -> tuple[str, int]:
    """``host:port`` -> (host, port); a bare port means localhost."""
    host, sep, port = address.rpartition(":")
    if not sep:
        host, port = "127.0.0.1", address
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise ValueError(
            f"bad worker address {address!r}; expected host:port") from None


class SocketTransport(Transport):
    """Master side of the TCP worker protocol."""

    #: Seconds to wait for all *initial* workers to connect before giving
    #: up on the run (elastic joiners can arrive any time after that).
    ACCEPT_TIMEOUT = 60.0

    #: Seconds a freshly accepted connection gets to complete the Hello
    #: handshake before being dropped (a port scanner or hung peer must
    #: not stall the master).
    HANDSHAKE_TIMEOUT = 10.0

    def __init__(self, workers: int, address: str, spec,
                 spawn_workers: bool = True):
        super().__init__(workers)
        self.name = "socket"
        self.address = address
        self.spec = spec
        self.spawn_workers = spawn_workers
        self._listener: socket.socket | None = None
        #: worker id -> live connection; the accept thread adds elastic
        #: joiners, reader threads remove the dead.  Guarded by _lock.
        self._connections: dict[int, socket.socket] = {}
        #: worker id -> (host, pid) from the worker's Hello.
        self._peers: dict[int, tuple[str, int]] = {}
        self._next_worker_id = 0
        self._lock = threading.Lock()
        self._stopping = False
        #: Set once start() returns.  Deaths *during* the accept barrier
        #: are the barrier's business (the id is burned and the slot
        #: reopens — or the barrier times out cleanly); only deaths after
        #: the search is running become scheduler-visible WorkerGone
        #: events.
        self._started = False
        self._subprocesses: list[subprocess.Popen] = []
        self._stderr_logs: list = []
        self._threads: list[threading.Thread] = []
        self._results: queue.Queue = queue.Queue()
        #: The bound (host, port), with the real port once listening.
        self.bound: tuple[str, int] | None = None

    def start(self, searcher) -> None:
        host, port = parse_address(self.address)
        self._listener = socket.create_server((host, port),
                                              backlog=max(self.workers, 8))
        # Short per-accept timeout so worker subprocesses that die before
        # connecting are noticed immediately instead of after the deadline.
        self._listener.settimeout(1.0)
        self.bound = self._listener.getsockname()[:2]
        if self.spawn_workers:
            self._spawn_local_workers()
        else:
            # The operator must be able to aim `nice worker` somewhere —
            # with the default ephemeral port only we know the number.
            print(f"socket transport listening on "
                  f"{self.bound[0]}:{self.bound[1]} — waiting for "
                  f"{self.workers} x `nice worker --connect "
                  f"{self.bound[0]}:{self.bound[1]}`"
                  f" (more may join mid-search)",
                  file=sys.stderr, flush=True)
        deadline = _monotonic() + self.ACCEPT_TIMEOUT
        while len(self._connections) < self.workers:
            if _monotonic() > deadline:
                raise TransportError(
                    f"only {len(self._connections)}/{self.workers}"
                    f" workers connected to"
                    f" {self.bound[0]}:{self.bound[1]} within"
                    f" {self.ACCEPT_TIMEOUT:.0f}s")
            try:
                connection, _ = self._listener.accept()
            except TimeoutError:
                self._check_spawned_alive()
                continue
            self._admit(connection, announce=False)
        # The search runs from here on; late connections are elastic
        # joiners, admitted by a background thread for the run's lifetime.
        accept_thread = threading.Thread(target=self._accept_elastic,
                                         daemon=True)
        accept_thread.start()
        self._threads.append(accept_thread)
        self._started = True

    def worker_ids(self):
        """Ids actually admitted by the accept barrier (a worker that
        handshook and died mid-barrier burned its id; its replacement got
        the next one)."""
        with self._lock:
            return sorted(self._connections)

    def _admit(self, connection: socket.socket, announce: bool) -> bool:
        """Handshake a fresh connection into the pool; posts WorkerJoined
        for elastic (mid-search) joiners."""
        with self._lock:
            worker_id = self._next_worker_id
        peer = self._handshake(connection, worker_id)
        if peer is None:
            return False
        with self._lock:
            if self._stopping:
                # stop() won the race: it has (or is about to have)
                # snapshotted the pool, so registering now would orphan
                # this worker with no Shutdown ever sent.  Closing the
                # socket lets the worker exit on EOF instead.
                connection.close()
                return False
            self._next_worker_id = worker_id + 1
            self._connections[worker_id] = connection
            self._peers[worker_id] = peer
        if announce:
            host, pid = peer
            print(f"elastic worker {worker_id} joined mid-search from"
                  f" {host or 'unknown host'} (pid {pid})",
                  file=sys.stderr, flush=True)
            # Queued *before* the reader thread starts: a joiner that dies
            # instantly must deliver WorkerJoined before its WorkerGone, or
            # the scheduler would ignore the death (id not yet live) and
            # then enter a dead worker into the routing tables.
            self._results.put(WorkerJoined(worker_id, host, pid))
        thread = threading.Thread(
            target=self._reader, args=(worker_id, connection), daemon=True)
        thread.start()
        self._threads.append(thread)
        return True

    def _accept_elastic(self) -> None:
        """Admit workers that connect while the search is running."""
        while not self._stopping:
            try:
                connection, _ = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return  # listener closed by stop()
            if self._stopping:
                connection.close()
                return
            self._admit(connection, announce=True)

    def _spawn_local_workers(self) -> None:
        """Launch ``workers`` `nice worker` subprocesses aimed at us."""
        for _ in range(self.workers):
            self.spawn_worker()

    def spawn_worker(self) -> None:
        """Launch one `nice worker` subprocess aimed at this master.

        Used for the initial pool and available afterwards to grow it
        mid-search (the subprocess joins through the elastic accept path).
        """
        host, port = self.bound
        env = dict(os.environ)
        # Make `repro` importable in the child even when running from a
        # src layout without an installed package.
        src_dir = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p)
        command = [sys.executable, "-m", "repro.cli", "worker",
                   "--connect", f"{host}:{port}"]
        # stderr goes to an unbuffered temp file, not a PIPE: nobody
        # drains a pipe during the search, so a chatty worker would
        # block on a full pipe buffer and stall its tasks.
        log = tempfile.TemporaryFile()
        self._stderr_logs.append(log)
        self._subprocesses.append(
            subprocess.Popen(command, env=env,
                             stdout=subprocess.DEVNULL, stderr=log))

    def _read_stderr(self, index: int) -> str:
        log = self._stderr_logs[index]
        log.seek(0)
        return log.read().decode(errors="replace")

    def _handshake(self, connection: socket.socket,
                   worker_id: int) -> tuple[str, int] | None:
        """Hello/Init exchange on a fresh connection; drops peers that stay
        silent or speak garbage instead of hanging or aborting the run.
        Accepted sockets do not inherit the listener's timeout, so one is
        set for the handshake and cleared for the streaming phase.
        Returns the peer's (host, pid) on success, None on a dropped peer."""
        connection.settimeout(self.HANDSHAKE_TIMEOUT)
        try:
            hello = recv_msg(connection)
            if not isinstance(hello, Hello) \
                    or hello.protocol != PROTOCOL_VERSION:
                raise ConnectionError(
                    f"bad handshake: {hello!r} (master speaks protocol"
                    f" {PROTOCOL_VERSION})")
            send_msg(connection, InitWorker(self.spec, worker_id))
        except Exception as exc:  # noqa: BLE001 - any failure drops the peer
            print(f"dropping connection that failed the worker handshake:"
                  f" {exc}", file=sys.stderr, flush=True)
            connection.close()
            return None
        connection.settimeout(None)
        return hello.host, hello.pid

    def _check_spawned_alive(self) -> None:
        for index, process in enumerate(self._subprocesses):
            if process.poll() is not None:
                raise TransportError(
                    f"spawned socket worker {index} exited with code"
                    f" {process.returncode} before connecting:\n"
                    f"{self._read_stderr(index)}")

    def _reader(self, worker_id: int, connection: socket.socket) -> None:
        # Any reader exit — clean FIN from a dying worker, a mid-frame
        # reset, an unpicklable frame from a mismatched worker — surfaces
        # as a WorkerGone event, never a silent recv() hang on the master.
        # During stop() the master closes the sockets itself and no longer
        # reads the queue, so the spurious event is harmless.
        try:
            while True:
                frame = recv_frame(connection)
                message = None if frame is None else pickle.loads(frame)
                if message is None or isinstance(message, Shutdown):
                    self._disconnect(worker_id,
                                     "worker closed the connection")
                    return
                with self._lock:
                    self.result_bytes += len(frame)
                self._results.put(message)
        except Exception as exc:  # noqa: BLE001 - see above
            self._disconnect(worker_id, f"connection lost: {exc!r}")

    def _disconnect(self, worker_id: int, reason: str) -> None:
        """Retire a dead worker's connection and post its death event
        (exactly once — whichever of the reader thread or ``recv`` retires
        the worker first wins).  Barrier-era deaths are retired silently:
        the accept loop sees the slot reopen and keeps waiting (or times
        out cleanly), and the scheduler never hears about a worker that
        was replaced before the search began."""
        if self._retire(worker_id) and self._started:
            self._results.put(WorkerGone(worker_id, self._enrich(reason)))

    def _retire(self, worker_id: int) -> bool:
        with self._lock:
            connection = self._connections.pop(worker_id, None)
        if connection is None:
            return False
        connection.close()
        return True

    def _enrich(self, reason: str) -> str:
        """Append the stderr of exited worker subprocesses to a death
        reason.  Worker ids are assigned in *accept* order, which need not
        match spawn order — report every exited subprocess's stderr
        instead of guessing which one backed this worker id."""
        for index, process in enumerate(self._subprocesses):
            if process.poll() is not None:
                stderr = self._read_stderr(index)
                if stderr:
                    reason += (f"\nstderr of exited worker subprocess"
                               f" {index}:\n{stderr}")
        return reason

    def submit(self, worker_id: int, message) -> None:
        connection = self._connections.get(worker_id)
        if connection is None:
            raise WorkerLost(worker_id, "connection already closed")
        try:
            send_msg(connection, message)
        except OSError as exc:
            # The reader thread will post the authoritative WorkerGone;
            # failing the submit lets the scheduler requeue this task now.
            raise WorkerLost(
                worker_id,
                f"connection lost while submitting"
                f" {type(message).__name__}: {exc}") from exc

    def recv(self, timeout: float | None = None):
        try:
            result = self._results.get(timeout=timeout)
        except queue.Empty:
            return None
        if isinstance(result, WorkerError) and result.task_id is None:
            # Startup failure inside the worker runtime: the process is
            # done for, but only the scheduler's policy decides whether
            # the *search* is.  Return the death directly so the traceback
            # is on the first event the scheduler sees for this worker.
            self._retire(result.worker_id)
            return WorkerGone(
                result.worker_id,
                self._enrich(f"failed to start:\n{result.error}"))
        return result

    def kill_worker(self, worker_id: int) -> None:
        host, pid = self._peers.get(worker_id, ("", 0))
        if pid and host == socket.gethostname():
            try:
                os.kill(pid, signal.SIGKILL)
                return
            except OSError:
                pass
        # Remote (or already-reaped) worker: sever the connection instead —
        # to the scheduler a partition and a dead process look the same.
        with self._lock:
            connection = self._connections.get(worker_id)
        if connection is not None:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            connection.close()

    def worker_pid(self, worker_id: int) -> int | None:
        host, pid = self._peers.get(worker_id, ("", 0))
        if pid and host == socket.gethostname():
            return pid
        return None

    def stop(self) -> None:
        # _stopping and the pool snapshot commute under the lock with
        # _admit's registration: a connection accepted concurrently is
        # either in the snapshot (gets Shutdown below) or sees _stopping
        # and is closed by _admit.
        with self._lock:
            self._stopping = True
            connections = list(self._connections.values())
            self._connections.clear()
        if self._listener is not None:
            self._listener.close()
        for connection in connections:
            try:
                send_msg(connection, Shutdown())
            except OSError:
                pass
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            connection.close()
        for process in self._subprocesses:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        for log in self._stderr_logs:
            log.close()
        self._subprocesses.clear()
        self._stderr_logs.clear()


def run_worker(address: str, retries: int = 5,
               retry_max_wait: float = 30.0) -> int:
    """Client side: connect to a master and serve tasks (``nice worker``).

    Connection refusals are retried with jittered exponential backoff
    (``retries`` connection attempts total, each delay doubling from 0.5s
    and capped at ``retry_max_wait``), so workers can be started *before*
    the master — the natural order when provisioning a fleet — instead of
    failing on the first refused connection.  Jitter keeps a batch of
    workers launched together from stampeding the listener in lockstep."""
    import random
    import time

    from repro.mc.worker import socket_worker_loop

    host, port = parse_address(address)
    attempt = 0
    while True:
        try:
            connection = socket.create_connection((host, port))
            break
        except OSError as exc:
            attempt += 1
            if attempt >= retries:
                print(f"nice worker: cannot reach a master at {host}:{port}"
                      f" after {attempt} attempt(s): {exc}",
                      file=sys.stderr)
                return 1
            delay = min(retry_max_wait, 0.5 * (2 ** (attempt - 1)))
            delay *= 0.5 + random.random() / 2
            print(f"nice worker: master at {host}:{port} not reachable"
                  f" ({exc}); retrying in {delay:.1f}s"
                  f" ({attempt}/{retries})", file=sys.stderr, flush=True)
            time.sleep(delay)
    with connection:
        socket_worker_loop(connection)
    return 0
