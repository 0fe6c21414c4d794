"""The transport-agnostic scheduler: spawn workers, socket workers,
affinity routing, replay-cache instrumentation, and honest fallbacks.

Acceptance contract (ISSUE 2): an exhaustive search through the *socket*
transport on localhost (2+ workers) and through the *spawn* local
transport reports ``unique_states``, ``transitions_executed`` and violated
properties identical to the serial engine.  The scheduler and worker
runtime are shared by every transport, so these tests close the loop the
fork-only suite (``tests/test_parallel_search.py``) opened.
"""

from __future__ import annotations

import socket as socket_mod
import threading
import time
from collections import OrderedDict

import pytest

from contract import counters, exhaustive, requires_fork, violated_properties
from repro import nice, scenarios
from repro.config import NiceConfig
from repro.mc import wire
from repro.mc.scheduler import ParallelSearcher
from repro.mc.transport.socket import SocketTransport, parse_address
from repro.mc.worker import WorkerRuntime
from repro.nice import Scenario
from repro.scenarios import with_config


@pytest.fixture(scope="module")
def serial_direct_path():
    return exhaustive(scenarios.pyswitch_direct_path())


def hand_built_scenario() -> Scenario:
    """A Scenario assembled without the registry: no portable spec, so
    only fork workers (closure inheritance) can serve it."""
    template = scenarios.pyswitch_direct_path()
    return Scenario(template.topo, template.app_factory,
                    template.hosts_factory, template.properties,
                    template.config, name="hand-built")


# ----------------------------------------------------------------------
# Acceptance: spawn and socket explore the identical state space
# ----------------------------------------------------------------------

class TestSpawnTransport:
    def test_exhaustive_search_matches_serial(self, serial_direct_path):
        parallel = exhaustive(scenarios.pyswitch_direct_path(),
                              workers=2, start_method="spawn")
        assert parallel.engine == "local-spawn"
        assert parallel.workers == 2
        assert counters(parallel) == counters(serial_direct_path)
        assert violated_properties(parallel) == \
            violated_properties(serial_direct_path)


class TestSocketTransport:
    def test_exhaustive_search_matches_serial(self, serial_direct_path):
        parallel = exhaustive(scenarios.pyswitch_direct_path(),
                              workers=2, transport="socket")
        assert parallel.engine == "socket"
        assert parallel.workers == 2
        assert counters(parallel) == counters(serial_direct_path)
        assert violated_properties(parallel) == \
            violated_properties(serial_direct_path)

    @pytest.mark.slow
    def test_first_violation_mode(self):
        result = nice.run(with_config(scenarios.pyswitch_direct_path(),
                                      workers=2, transport="socket"))
        assert result.found_violation
        assert result.terminated == "first_violation"
        assert violated_properties(result) == ["StrictDirectPaths"]

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7000") == ("127.0.0.1", 7000)
        assert parse_address("7000") == ("127.0.0.1", 7000)
        assert parse_address(":7000") == ("127.0.0.1", 7000)
        with pytest.raises(ValueError):
            parse_address("nope")


# ----------------------------------------------------------------------
# Honest fallbacks: a workers>0 request that cannot be honored warns
# ----------------------------------------------------------------------

class TestFallbackWarnings:
    @requires_fork
    def test_spawn_without_spec_falls_back_to_fork_with_warning(self):
        scenario = hand_built_scenario()
        with pytest.warns(RuntimeWarning, match="no portable spec"):
            result = exhaustive(scenario, workers=2, start_method="spawn")
        assert result.engine == "local-fork"

    def test_no_fork_no_spec_runs_serial_with_warning(self, monkeypatch):
        monkeypatch.setattr(
            "repro.mc.transport.multiprocessing.get_all_start_methods",
            lambda: ["spawn"])
        scenario = hand_built_scenario()
        with pytest.warns(RuntimeWarning, match="cannot be honored"):
            result = exhaustive(scenario, workers=2)
        assert result.engine == "serial"
        assert result.workers == 0

    @requires_fork
    def test_socket_without_spec_falls_back_to_local(self):
        scenario = hand_built_scenario()
        with pytest.warns(RuntimeWarning, match="socket"):
            result = exhaustive(scenario, workers=2, transport="socket")
        assert result.engine == "local-fork"

    @requires_fork
    def test_registry_scenarios_honor_workers_without_warning(
            self, recwarn, serial_direct_path):
        result = exhaustive(scenarios.pyswitch_direct_path(), workers=2)
        assert result.engine == "local-fork"
        assert counters(result) == counters(serial_direct_path)
        assert not [w for w in recwarn if issubclass(w.category,
                                                     RuntimeWarning)]


# ----------------------------------------------------------------------
# Replay LRU cache: counters, eviction correctness, affinity payoff
# ----------------------------------------------------------------------

class TestReplayCache:
    """Restoration-work measurements pin ``adaptive_batching=False``:
    they characterize the *static* batch-size baseline (adaptive batching
    grows batches until replay all but disappears, which is the point of
    adaptive batching but not of these tests)."""

    def test_cache_counters_exposed_in_stats(self, serial_direct_path):
        result = exhaustive(scenarios.pyswitch_direct_path(), workers=2,
                            adaptive_batching=False)
        # Deep scenario: most restorations must hit a cached ancestor.
        assert result.cache_hits > result.cache_misses
        assert result.replayed_transitions > 0
        assert "cache" in result.summary()

    def test_correct_after_heavy_eviction(self, serial_direct_path):
        """worker_cache_size=1 forces near-constant eviction; the search
        must still be exact, just slower (more full replays)."""
        result = exhaustive(scenarios.pyswitch_direct_path(), workers=2,
                            worker_cache_size=1, adaptive_batching=False)
        assert counters(result) == counters(serial_direct_path)
        assert violated_properties(result) == \
            violated_properties(serial_direct_path)
        assert result.cache_misses > result.cache_hits

    @pytest.mark.parametrize("order", ["bfs", "random"])
    def test_non_dfs_orders_still_exact(self, order):
        """bfs/random frontiers pop globally (no affinity) but must keep
        the exact-equality contract."""
        serial = exhaustive(scenarios.pyswitch_direct_path(),
                            search_order=order)
        parallel = exhaustive(scenarios.pyswitch_direct_path(),
                              search_order=order, workers=2)
        assert counters(parallel) == counters(serial)
        assert parallel.affinity_hits == 0

    def test_affinity_reduces_replay_vs_round_robin(self, serial_direct_path):
        """Routing child groups to the worker whose LRU holds the parent
        trace must measurably cut restoration replay on a deep scenario."""
        affine = exhaustive(scenarios.pyswitch_direct_path(), workers=2,
                            adaptive_batching=False)
        round_robin = exhaustive(scenarios.pyswitch_direct_path(), workers=2,
                                 affinity=False, adaptive_batching=False)
        assert counters(affine) == counters(round_robin)
        assert affine.affinity_hits > affine.affinity_misses
        assert round_robin.affinity_hits == 0
        # Empirically ~4-5x fewer; assert 2x so ordinary scheduler timing
        # jitter cannot flake the test.
        assert affine.replayed_transitions * 2 \
            < round_robin.replayed_transitions

    def test_adaptive_batching_matches_static_results(
            self, serial_direct_path):
        """Adaptive batch sizing repacks tasks, never changes what is
        explored: results equal the static baseline (and serial)."""
        adaptive = exhaustive(scenarios.pyswitch_direct_path(), workers=2)
        assert counters(adaptive) == counters(serial_direct_path)
        assert violated_properties(adaptive) == \
            violated_properties(serial_direct_path)


class TestBaseForAccounting:
    """DESIGN.md: every restoration bumps exactly one of cache_hits /
    cache_misses — a hit whenever *any* cached entry provided the clone
    source (the root entry ``()`` included), a miss only for the
    fall-through full replay from the initial state."""

    class _FakeSystem:
        def clone(self):
            return self

    def _runtime(self, cached=()):
        runtime = WorkerRuntime.__new__(WorkerRuntime)
        runtime.cache = OrderedDict(
            (trace, self._FakeSystem()) for trace in cached)
        runtime.initial = self._FakeSystem()
        runtime._replay = lambda system, trace, k: system
        return runtime

    @staticmethod
    def _counters():
        return {"cache_hits": 0, "cache_misses": 0, "replayed": 0}

    def test_exact_hit_replays_nothing(self):
        runtime = self._runtime(cached=[("a", "b")])
        out = self._counters()
        runtime.base_for(("a", "b"), out)
        assert (out["cache_hits"], out["cache_misses"]) == (1, 0)
        assert out["replayed"] == 0

    def test_ancestor_hit_replays_the_suffix(self):
        runtime = self._runtime(cached=[("a",)])
        out = self._counters()
        runtime.base_for(("a", "b", "c"), out)
        assert (out["cache_hits"], out["cache_misses"]) == (1, 0)
        assert out["replayed"] == 2

    def test_root_entry_restore_of_a_deep_trace_is_a_hit(self):
        runtime = self._runtime(cached=[()])
        out = self._counters()
        runtime.base_for(("a", "b", "c"), out)
        assert (out["cache_hits"], out["cache_misses"]) == (1, 0)
        assert out["replayed"] == 3

    def test_root_trace_restore_with_cached_root_is_a_hit(self):
        runtime = self._runtime(cached=[()])
        out = self._counters()
        runtime.base_for((), out)
        assert (out["cache_hits"], out["cache_misses"]) == (1, 0)
        assert out["replayed"] == 0

    def test_cold_cache_is_a_miss_with_full_replay(self):
        runtime = self._runtime(cached=[])
        out = self._counters()
        runtime.base_for(("a", "b"), out)
        assert (out["cache_hits"], out["cache_misses"]) == (0, 1)
        assert out["replayed"] == 2

    def test_hits_plus_misses_equals_restorations(self):
        runtime = self._runtime(cached=[(), ("a",)])
        out = self._counters()
        for trace in [(), ("a",), ("a", "b"), ("x", "y"), ("a", "b")]:
            runtime.base_for(trace, out)
        assert out["cache_hits"] + out["cache_misses"] == 5


# ----------------------------------------------------------------------
# Wire accounting: result_payload_bytes counts received frames
# ----------------------------------------------------------------------

class TestResultPayloadBytes:
    """``result_payload_bytes`` is the pickled size of every worker ->
    master frame the transport received: nonzero whenever workers ran,
    zero on the serial engine, which has no wire."""

    @pytest.mark.parametrize("overrides", [
        pytest.param(dict(start_method="fork"), marks=requires_fork,
                     id="fork"),
        pytest.param(dict(transport="socket"), id="socket"),
    ])
    def test_parallel_runs_count_received_frames(self, overrides,
                                                 serial_direct_path):
        result = exhaustive(scenarios.pyswitch_direct_path(), workers=2,
                            **overrides)
        assert counters(result) == counters(serial_direct_path)
        assert result.result_payload_bytes > 0

    def test_serial_runs_count_nothing(self, serial_direct_path):
        assert serial_direct_path.engine == "serial"
        assert serial_direct_path.result_payload_bytes == 0


# ----------------------------------------------------------------------
# Wire protocol version: a stale worker is refused at the handshake
# ----------------------------------------------------------------------

def _recv_or_eof(sock):
    """The master's reply on ``sock``, or None once it hung up."""
    try:
        return wire.recv_msg(sock)
    except OSError:
        return None


class TestProtocolVersion:
    def test_stale_worker_is_refused_and_a_current_one_admitted(self):
        """A v4 worker is dropped at the Hello; the master keeps waiting
        for its pool, and the next worker speaking the current protocol
        gets its InitWorker and completes the barrier."""
        transport = SocketTransport(
            1, "127.0.0.1:0", scenarios.pyswitch_direct_path().spec,
            spawn_workers=False)
        barrier = threading.Thread(target=transport.start, args=(None,),
                                   daemon=True)
        barrier.start()
        try:
            deadline = time.monotonic() + 10
            while transport.bound is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert transport.bound is not None, "master never listened"
            with socket_mod.create_connection(transport.bound,
                                              timeout=10) as stale:
                wire.send_msg(stale, wire.Hello(protocol=4))
                assert _recv_or_eof(stale) is None
            assert barrier.is_alive(), "the master gave up on its pool"
            assert transport.worker_ids() == []
            assert wire.PROTOCOL_VERSION == 5
            with socket_mod.create_connection(transport.bound,
                                              timeout=10) as current:
                wire.send_msg(current, wire.Hello())
                init = _recv_or_eof(current)
                assert isinstance(init, wire.InitWorker)
                barrier.join(timeout=10)
                assert not barrier.is_alive(), "the barrier did not close"
                assert transport.worker_ids() == [init.worker_id]
        finally:
            transport.stop()
            barrier.join(timeout=10)


# ----------------------------------------------------------------------
# Churn stats: fault-tolerance counters sum correctly across workers
# ----------------------------------------------------------------------

class TestChurnStats:
    """The retry/reassignment/elastic-join counters of ISSUE 4.  The
    chaos suite (tests/test_fault_tolerance.py) drives them to nonzero
    values; here the plumbing contract is pinned for ordinary runs:
    zeros, a complete per-worker task ledger, and a summary line."""

    @pytest.fixture(scope="class")
    def parallel_run(self):
        return exhaustive(scenarios.pyswitch_direct_path(), workers=2)

    def test_no_churn_counts_zero(self, parallel_run):
        assert parallel_run.worker_failures == 0
        assert parallel_run.tasks_retried == 0
        assert parallel_run.groups_reassigned == 0
        assert parallel_run.elastic_joins == 0

    def test_worker_tasks_ledger_is_complete(self, parallel_run):
        """Every configured worker has a ledger entry and every merged
        task is attributed to exactly one worker, so the per-worker
        shares sum to the whole run."""
        assert set(parallel_run.worker_tasks) == {0, 1}
        total = sum(parallel_run.worker_tasks.values())
        assert total > 0
        # Two workers on a nontrivial scenario: both must have worked.
        assert all(n > 0 for n in parallel_run.worker_tasks.values())

    def test_summary_renders_fault_tolerance_line(self, parallel_run):
        summary = parallel_run.summary()
        assert "fault tolerance" in summary
        assert "0 worker failure(s)" in summary
        assert "0 elastic join(s)" in summary

    def test_serial_runs_have_no_churn_stats(self, serial_direct_path):
        assert serial_direct_path.worker_tasks == {}
        assert "fault tolerance" not in serial_direct_path.summary()


# ----------------------------------------------------------------------
# Scenario registry and specs
# ----------------------------------------------------------------------

class TestScenarioRegistry:
    def test_builders_are_registered(self):
        assert {"ping", "pyswitch-mobile", "pyswitch-direct-path",
                "pyswitch-loop", "loadbalancer",
                "energy-te"} <= set(scenarios.REGISTRY)

    def test_builders_stamp_a_portable_spec(self):
        scenario = scenarios.ping_experiment(pings=3)
        assert scenario.spec is not None
        assert scenario.spec.name == "ping"
        assert scenario.spec.kwargs == {"pings": 3}
        assert wire.spec_is_portable(scenario.spec)

    def test_with_config_carries_the_spec_forward(self):
        scenario = with_config(scenarios.pyswitch_direct_path(), workers=2)
        assert scenario.spec is not None
        assert scenario.spec.config.workers == 2
        assert scenario.spec.config is scenario.config

    def test_spec_rebuilds_an_identical_initial_state(self):
        scenario = scenarios.pyswitch_direct_path()
        rebuilt = scenario.spec.build()
        assert rebuilt.config == scenario.config
        assert rebuilt.system_factory().state_hash() == \
            scenario.system_factory().state_hash()

    def test_hand_built_scenario_has_no_spec(self):
        scenario = hand_built_scenario()
        assert scenario.spec is None
        assert not wire.spec_is_portable(scenario.spec)

    def test_searcher_from_spec_is_serial(self):
        searcher = wire.searcher_from_spec(
            with_config(scenarios.pyswitch_direct_path(), workers=4).spec)
        assert type(searcher).__name__ == "Searcher"
        assert not isinstance(searcher, ParallelSearcher)


# ----------------------------------------------------------------------
# Wire framing
# ----------------------------------------------------------------------

class TestWireFraming:
    def test_roundtrip_over_a_socketpair(self):
        left, right = socket_mod.socketpair()
        with left, right:
            task = wire.ExpandTask(7, [((), None)])
            wire.send_msg(left, task)
            wire.send_msg(left, wire.Shutdown())
            received = wire.recv_msg(right)
            assert isinstance(received, wire.ExpandTask)
            assert received.task_id == 7
            assert received.groups == [((), None)]
            assert isinstance(wire.recv_msg(right), wire.Shutdown)

    def test_eof_at_frame_boundary_is_none(self):
        left, right = socket_mod.socketpair()
        with right:
            left.close()
            assert wire.recv_msg(right) is None

    def test_config_knob_validation(self):
        with pytest.raises(ValueError):
            NiceConfig(transport="carrier-pigeon")
        with pytest.raises(ValueError):
            NiceConfig(start_method="forkserver")
        with pytest.raises(ValueError):
            NiceConfig(worker_cache_size=0)
