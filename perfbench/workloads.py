"""The benchmark's workloads: how each builds its search, and the verdict
every run of it must reproduce.

Each workload is one exhaustive search.  ``build`` imports ``repro`` lazily
so that the import is timed as part of set-up.  The reference counts were
taken from the serial engine; the DFS searches do not depend on
``NiceConfig.seed``, so every seed must reproduce them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Reference:
    """What a correct search of a workload reports."""

    transitions: int
    unique: int
    revisited: int
    quiescent: int
    #: property name -> number of violations recorded for it.
    violations: dict = field(default_factory=dict)
    #: ``SearchStats.terminated``: exhaustive unless stopped early.
    terminated: str = "exhausted"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``build(seed, checkpoint_dir)`` -> a ``repro.nice.Scenario``.
    build: object
    reference: Reference
    #: True when the search writes checkpoints into ``checkpoint_dir``.
    checkpoints: bool = False


def _loadbalancer(workers: int):
    def build(seed, checkpoint_dir=None):
        from repro import scenarios
        from repro.config import NiceConfig

        parallel = (dict(workers=workers, transport="local",
                         start_method="fork") if workers else {})
        config = NiceConfig(max_pkt_sequence=3, stop_at_first_violation=False,
                            seed=seed, **parallel)
        return scenarios.loadbalancer_scenario(config=config)
    return build


def _ping3_checkpointed(seed, checkpoint_dir=None):
    from repro import scenarios
    from repro.config import NiceConfig

    config = NiceConfig(store="sharded", store_memory_budget=1024,
                        checkpoint_interval=250,
                        checkpoint_dir=str(checkpoint_dir), seed=seed)
    return scenarios.ping_experiment(pings=3, config=config)


def _pyswitch_direct_path(seed, checkpoint_dir=None):
    from repro import scenarios
    from repro.config import NiceConfig

    return scenarios.pyswitch_direct_path(config=NiceConfig(seed=seed))


LB3 = Reference(transitions=133_888, unique=43_186, revisited=90_703,
                quiescent=148, violations={"NoForgottenPackets": 132})

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "lb3-serial",
            "loadbalancer, max_pkt_sequence=3, exhaustive, serial engine:"
            " the hot path of state hashing, execute and a read-heavy store",
            _loadbalancer(0), LB3),
        Workload(
            "lb3-fork2",
            "the same search on 2 fork workers: scheduler, worker, transport,"
            " wire and replay layers, and CPU inflation against lb3-serial",
            _loadbalancer(2), LB3),
        Workload(
            "ping3-ckpt",
            "3 pings, sharded store with a 1024-digest budget, a checkpoint"
            " every 250 states: write- and spill-heavy store and checkpoints",
            _ping3_checkpointed,
            Reference(transitions=33_402, unique=13_876, revisited=19_527,
                      quiescent=3),
            checkpoints=True),
    )
}

#: A 0.1 s search the harness self-test runs; not a benchmark workload.
SELFTEST = Workload(
    "pyswitch-direct-path",
    "first StrictDirectPaths violation of BUG-II; harness self-test only",
    _pyswitch_direct_path,
    Reference(transitions=431, unique=266, revisited=165, quiescent=5,
              violations={"StrictDirectPaths": 1},
              terminated="first_violation"))
