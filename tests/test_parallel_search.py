"""The parallel search engine and the checkpointing modes.

Exactness contracts under test (see ``repro/mc/scheduler.py`` and DESIGN.md):

* serial search is bit-identical across checkpoint modes (``deepcopy`` vs
  ``trace``) and clone implementations (``fast_clone`` on/off) — same
  counters, same violations, same messages;
* the parallel engine (``workers=4``) explores exactly the serial state
  space: equal ``unique_states`` / ``transitions_executed`` /
  ``quiescent_states`` / ``revisited_states`` and the same set of violated
  properties on every scenario; for quiescent-state properties the full
  ``(property, state hash)`` violation set matches too.  Violation
  *records* of history-reading properties may differ in message text, the
  same way serial DFS and BFS differ;
* trace-replay checkpoint restoration is deterministic: replaying a
  violation trace reproduces the recorded state hash.
"""

from __future__ import annotations

import multiprocessing

import pytest

from contract import (
    counters,
    exhaustive,
    violated_properties,
    violation_messages,
    violation_states,
)
from repro import nice, scenarios
from repro.mc.scheduler import ParallelSearcher
from repro.mc.search import Searcher
from repro.scenarios import with_config

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel engine requires the fork start method",
)


class TestSerialCheckpointModes:
    """`trace` restoration and fast clones must not change serial results."""

    @pytest.mark.parametrize("scenario_builder", [
        scenarios.pyswitch_direct_path,
        pytest.param(scenarios.loadbalancer_scenario,
                     marks=pytest.mark.slow),
    ])
    def test_trace_checkpoints_bit_identical(self, scenario_builder):
        scenario = scenario_builder()
        deepcopy_run = exhaustive(scenario)
        trace_run = exhaustive(scenario, checkpoint_mode="trace")
        assert counters(deepcopy_run) == counters(trace_run)
        assert violation_messages(deepcopy_run) == violation_messages(trace_run)

    def test_fast_clone_bit_identical_to_seed_clone(self):
        scenario = scenarios.pyswitch_direct_path()
        fast = exhaustive(scenario)
        seed = exhaustive(scenario, fast_clone=False, hash_memoization=False)
        assert counters(fast) == counters(seed)
        assert violation_messages(fast) == violation_messages(seed)


class TestParallelMatchesSerial:
    """workers=4 explores the identical state space on two scenarios."""

    @pytest.mark.parametrize("scenario_builder", [
        scenarios.pyswitch_direct_path,
        pytest.param(scenarios.loadbalancer_scenario,
                     marks=pytest.mark.slow),
    ])
    def test_same_states_and_violated_properties(self, scenario_builder):
        scenario = scenario_builder()
        serial = exhaustive(scenario)
        parallel = exhaustive(scenario, workers=4)
        assert counters(serial) == counters(parallel)
        assert violated_properties(serial) == violated_properties(parallel)

    @pytest.mark.slow
    def test_quiescent_violation_set_identical(self):
        # The load balancer's violations fire at quiescent states, whose
        # (property, state hash) set is search-order independent.
        scenario = scenarios.loadbalancer_scenario()
        serial = exhaustive(scenario)
        parallel = exhaustive(scenario, workers=4)
        assert violation_states(serial) == violation_states(parallel)
        assert len(serial.violations) == len(parallel.violations)

    def test_first_violation_mode_finds_a_bug(self):
        scenario = with_config(scenarios.pyswitch_direct_path(), workers=4)
        result = nice.run(scenario)
        assert result.found_violation
        assert result.terminated == "first_violation"
        assert violated_properties(result) == ["StrictDirectPaths"]

    def test_workers_one_uses_serial_engine(self):
        searcher = with_config(scenarios.pyswitch_direct_path(),
                               workers=1).make_searcher()
        # workers <= 1 falls back to the serial loop inside Searcher.run.
        assert type(searcher) is Searcher

    def test_workers_config_selects_parallel_engine(self):
        searcher = with_config(scenarios.pyswitch_direct_path(),
                               workers=4).make_searcher()
        assert isinstance(searcher, ParallelSearcher)


class TestTraceReplayDeterminism:
    """Restoring a checkpoint is a pure function of the transition path."""

    def test_violation_trace_replays_to_recorded_hash(self):
        scenario = scenarios.pyswitch_direct_path()
        result = nice.run(with_config(scenario, checkpoint_mode="trace"))
        assert result.found_violation
        violation = result.violations[0]
        replayed = nice.replay(scenario, violation.trace,
                               expected_hash=violation.state_hash)
        assert replayed.state_hash() == violation.state_hash

    @pytest.mark.slow
    def test_parallel_violation_traces_replay(self):
        scenario = scenarios.loadbalancer_scenario()
        result = exhaustive(scenario, workers=4)
        assert result.found_violation
        for violation in result.violations[:3]:
            replayed = nice.replay(scenario, violation.trace,
                                   expected_hash=violation.state_hash)
            assert replayed.state_hash() == violation.state_hash

    def test_repeated_trace_runs_identical(self):
        scenario = scenarios.pyswitch_direct_path()
        first = exhaustive(scenario, checkpoint_mode="trace")
        second = exhaustive(scenario, checkpoint_mode="trace")
        assert counters(first) == counters(second)
        assert violation_messages(first) == violation_messages(second)
