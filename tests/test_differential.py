"""Differential testing over randomized scenarios (ISSUE 4, extended by
ISSUE 5).

Every engine variant of the search — serial, parallel over two fork
workers, the eager-clone baseline (``cow_clone=False``), the
full-render hash baseline (``hash_mode="full"``), and the sharded
explored-set store under a spill-forcing memory budget — must explore
the identical state space and reach identical property verdicts on
every scenario :mod:`scenario_gen` can generate.  On top of the
variants, every seed also runs **interrupted-then-resumed**: the search
is cut at a seed-derived state count past its first checkpoint and
continued with ``nice.resume``, and the combined legs must match the
uninterrupted serial run exactly (the checkpoint/resume invariant of
DESIGN.md, "State store and restartability").  A failing seed is
printed in the assertion message for replay
(``random_scenario(seed)`` rebuilds it exactly).

A small seed range runs in the fast tier; the wide sweep is ``slow``
and rides the nightly matrix.
"""

from __future__ import annotations

import pytest

from checkpoint_helpers import Interrupted, interrupt_after
from contract import counters, requires_fork, violated_properties
from repro import nice
from repro.scenarios import with_config
from scenario_gen import random_scenario

#: Engine variants cross-checked against the serial default.
VARIANTS = {
    "parallel-2": dict(workers=2),
    "eager-clone": dict(cow_clone=False),
    "full-hash": dict(hash_mode="full"),
    # A tiny resident budget forces the disk-spill lookup path on every
    # generated scenario, not just giant ones.
    "sharded-store": dict(store="sharded", store_shards=4,
                          store_memory_budget=16),
}

FAST_SEEDS = range(4)
SLOW_SEEDS = range(4, 20)


def check_seed(seed: int, tmp_path, monkeypatch) -> None:
    scenario = random_scenario(seed)
    baseline = nice.run(scenario)
    replay = f"replay with scenario_gen.random_scenario({seed})"
    for variant, overrides in VARIANTS.items():
        result = nice.run(with_config(scenario, **overrides))
        assert counters(result) == counters(baseline), (
            f"seed {seed}: {variant} explored a different state space"
            f" ({counters(result)} != {counters(baseline)}); {replay}")
        assert violated_properties(result) == violated_properties(baseline), (
            f"seed {seed}: {variant} reached different verdicts"
            f" ({violated_properties(result)} !="
            f" {violated_properties(baseline)}); {replay}")
    resumed = interrupted_then_resumed(scenario, seed, baseline, tmp_path,
                                       monkeypatch)
    assert counters(resumed) == counters(baseline), (
        f"seed {seed}: interrupted-then-resumed explored a different state"
        f" space ({counters(resumed)} != {counters(baseline)}); {replay}")
    assert violated_properties(resumed) == violated_properties(baseline), (
        f"seed {seed}: interrupted-then-resumed reached different verdicts;"
        f" {replay}")


def interrupted_then_resumed(scenario, seed, baseline, tmp_path, monkeypatch):
    """Cut the search at a seed-derived point past its first checkpoint,
    then continue from the snapshot.  Generated scenarios carry no
    registry spec, so the resume rebuilds from the scenario object — the
    path `nice.resume(scenario=...)` exists for."""
    unique = baseline.unique_states
    if unique < 6:
        pytest.skip(f"seed {seed} explores only {unique} states — nothing "
                    f"meaningful to interrupt")
    interval = max(2, unique // 4)
    cut = min(unique - 1, interval + 1 + (seed % max(unique - interval - 2, 1)))
    ckpt_dir = tmp_path / f"ckpt-{seed}"
    interrupted = with_config(scenario, checkpoint_dir=str(ckpt_dir),
                              checkpoint_interval=interval)

    def cut_after_first_checkpoint():
        # Only interrupt once a completed snapshot exists to fall back
        # on — checkpoints are written between expansions, and a bushy
        # node can blow through `cut` before the first one lands.
        if any(ckpt_dir.glob("ckpt-*")):
            raise Interrupted(f"cut at >= {cut} states")

    interrupt_after(monkeypatch, cut, action=cut_after_first_checkpoint)
    try:
        with pytest.warns(RuntimeWarning, match="hand-built"):
            finished = nice.run(interrupted)
    except Interrupted:
        pass
    else:
        # The space was too shallow to cut after its first checkpoint;
        # the completed checkpointing run is still a valid variant.
        monkeypatch.undo()
        return finished
    monkeypatch.undo()
    _, stats = nice.resume(ckpt_dir, scenario=scenario, checkpoint_dir=None)
    assert stats.resumed_from is not None
    return stats


class TestDifferentialRandomScenarios:
    @requires_fork
    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_engines_agree(self, seed, tmp_path, monkeypatch):
        check_seed(seed, tmp_path, monkeypatch)

    @requires_fork
    @pytest.mark.slow
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_engines_agree_wide_sweep(self, seed, tmp_path, monkeypatch):
        check_seed(seed, tmp_path, monkeypatch)


class TestGeneratorDeterminism:
    def test_same_seed_same_scenario(self):
        a, b = random_scenario(7), random_scenario(7)
        assert a.system_factory().state_hash() == \
            b.system_factory().state_hash()
        assert a.config == b.config

    def test_seeds_vary_the_scenario(self):
        hashes = {random_scenario(seed).system_factory().state_hash()
                  for seed in range(8)}
        assert len(hashes) > 1

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_spaces_stay_bounded(self, seed):
        """The generator's size contract: every scenario exhausts within
        a bounded transition budget (loop-free topologies, <=3 packets)."""
        result = nice.run(with_config(random_scenario(seed),
                                      max_transitions=40000))
        assert result.terminated == "exhausted"
