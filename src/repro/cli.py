"""Command-line front end.

``nice run`` executes a predefined scenario (the paper's experiments are all
available by name), prints the search statistics, and dumps the violation
traces; ``nice walk`` performs a random walk; ``nice replay`` re-executes a
previously saved trace.

``nice resume`` reconstructs a checkpointed search mid-flight and
continues it (same explored state space as an uninterrupted run).

Examples::

    nice run pyswitch-direct-path
    nice run loadbalancer --strategy NO-DELAY --max-transitions 50000
    nice run ping --pings 3 --no-canonical
    nice run ping --pings 3 --workers 4 --start-method spawn
    nice run loadbalancer --workers 2 --transport socket
    nice run ping --pings 3 --checkpoint-dir ./ckpt --store sharded
    nice resume ./ckpt --workers 4
    nice checkpoints ./ckpt
    nice worker --connect 192.0.2.10:7000 --retry 10
    nice walk energy-te --steps 500 --seed 7
    nice list
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import nice, scenarios
from repro.config import (
    ALL_CHECKPOINT_MODES,
    ALL_HASH_MODES,
    ALL_START_METHODS,
    ALL_STORES,
    ALL_STRATEGIES,
    ALL_TRANSPORTS,
    HASH_DIGEST,
    STORE_MEMORY,
    NiceConfig,
)
from repro.apps.hostile import MODES as HOSTILE_MODES
from repro.mc.replay import format_trace
from repro.mc.store import CheckpointError

#: Scenario name -> builder: the registry the spawn/socket workers resolve
#: specs against (repro/scenarios.py).
SCENARIOS = scenarios.REGISTRY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nice",
        description="NICE: systematic testing of OpenFlow controller programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="model-check a scenario")
    run_p.add_argument("scenario", choices=sorted(SCENARIOS))
    run_p.add_argument("--strategy", choices=ALL_STRATEGIES,
                       default="PKT-SEQ")
    run_p.add_argument("--pings", type=int, default=2,
                       help="ping pairs (ping scenario only)")
    run_p.add_argument("--mode", choices=HOSTILE_MODES, default="benign",
                       help="misbehavior mode (hostile scenario only)")
    run_p.add_argument("--arm-file", default=None,
                       help="hostile scenario: arm-counter file; each"
                            " misbehavior decrements it, -1 = always fire")
    run_p.add_argument("--max-transitions", type=int, default=None)
    run_p.add_argument("--max-pkt-sequence", type=int, default=2)
    run_p.add_argument("--max-outstanding", type=int, default=1)
    run_p.add_argument("--no-canonical", action="store_true",
                       help="disable the canonical switch representation "
                            "(NO-SWITCH-REDUCTION)")
    run_p.add_argument("--no-state-matching", action="store_true")
    run_p.add_argument("--workers", type=int, default=0,
                       help="search worker processes (0/1 = serial)")
    run_p.add_argument("--transport", choices=ALL_TRANSPORTS,
                       default="local",
                       help="how workers are reached: in-process pool or "
                            "TCP workers (see `nice worker`)")
    run_p.add_argument("--start-method", choices=ALL_START_METHODS,
                       default=None,
                       help="local-transport start method (default: fork "
                            "where available, else spawn)")
    run_p.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                       help="socket transport listen address "
                            "(port 0 = pick a free port)")
    run_p.add_argument("--external-workers", action="store_true",
                       help="socket transport: wait for externally started "
                            "`nice worker`s instead of spawning local ones")
    run_p.add_argument("--no-affinity", action="store_true",
                       help="route sibling groups round-robin instead of to "
                            "the worker whose replay cache holds the parent")
    run_p.add_argument("--min-workers", type=int,
                       default=NiceConfig.min_workers, metavar="N",
                       help="abort (cleanly) if worker deaths shrink the "
                            "live pool below N workers (default 1: keep "
                            "searching on the last survivor)")
    run_p.add_argument("--max-worker-failures", type=int,
                       default=NiceConfig.max_worker_failures,
                       metavar="N",
                       help="tolerate at most N worker deaths before giving "
                            "up (default: unlimited while min-workers "
                            "survive; 0 = abort on the first death)")
    run_p.add_argument("--respawn-workers", action="store_true",
                       help="replace each dead worker with a fresh process "
                            "(the autoscaler hook; keeps the pool at size "
                            "through crash storms)")
    run_p.add_argument("--heartbeat-interval", type=float,
                       default=NiceConfig.heartbeat_interval, metavar="SEC",
                       help="worker liveness beat period (0 disables "
                            "heartbeats and hang detection)")
    run_p.add_argument("--task-deadline", type=float, default=None,
                       metavar="SEC",
                       help="hard per-task deadline after which a silent "
                            "worker is declared hung and killed (default: "
                            "derived from observed task round-trip times; "
                            "0 disables deadlines)")
    run_p.add_argument("--max-task-retries", type=int,
                       default=NiceConfig.max_task_retries, metavar="N",
                       help="worker deaths one sibling group may survive "
                            "before it is quarantined as a poison task")
    run_p.add_argument("--no-quarantine", action="store_true",
                       help="record poison tasks as diagnostics immediately "
                            "instead of retrying them in a sandboxed "
                            "subprocess")
    run_p.add_argument("--worker-memory-limit", type=int, default=None,
                       metavar="BYTES",
                       help="worker rss watchdog: above this, a worker "
                            "sheds its replay cache and, if still over, "
                            "recycles itself")
    run_p.add_argument("--fail-fast", action="store_true",
                       help="abort on exceptions raised by the model under "
                            "test instead of recording them as replayable "
                            "ModelError counterexamples")
    run_p.add_argument("--no-adaptive-batching", action="store_true",
                       help="use the static --batch-groups/--batch-nodes "
                            "task sizes instead of adapting them per worker "
                            "from observed task round-trip times")
    run_p.add_argument("--checkpoint-mode", choices=ALL_CHECKPOINT_MODES,
                       default="deepcopy",
                       help="frontier checkpointing: full deep copies or "
                            "trace-replay restoration")
    run_p.add_argument("--no-hash-memoization", action="store_true",
                       help="recanonicalize the full state on every hash "
                            "(the seed behavior)")
    run_p.add_argument("--hash-mode", choices=ALL_HASH_MODES,
                       default=HASH_DIGEST,
                       help="state hashing: combine cached per-component "
                            "digests (digest) or render the whole canonical "
                            "tuple per call (full, the pre-digest baseline)")
    run_p.add_argument("--no-fast-clone", action="store_true",
                       help="checkpoint with full deepcopy instead of "
                            "component-wise copies (the seed behavior)")
    run_p.add_argument("--no-cow-clone", action="store_true",
                       help="copy checkpoints eagerly instead of "
                            "copy-on-write (the pre-CoW baseline)")
    run_p.add_argument("--batch-groups", type=int,
                       default=NiceConfig.batch_groups, metavar="N",
                       help="parallel scheduler: max sibling groups per "
                            "worker task")
    run_p.add_argument("--batch-nodes", type=int,
                       default=NiceConfig.batch_nodes, metavar="N",
                       help="parallel scheduler: max total nodes per "
                            "worker task")
    run_p.add_argument("--store", choices=ALL_STORES, default=STORE_MEMORY,
                       help="explored-set storage: in-memory hash table, or "
                            "digest-prefix shards spilling to disk under an "
                            "LRU memory budget")
    run_p.add_argument("--store-shards", type=int,
                       default=NiceConfig.store_shards, metavar="N",
                       help="sharded store: number of digest-prefix shards")
    run_p.add_argument("--store-memory-budget", type=int,
                       default=NiceConfig.store_memory_budget, metavar="N",
                       help="sharded store: digests kept resident in memory "
                            "(the rest spill to disk)")
    run_p.add_argument("--store-bloom-bits", type=int,
                       default=NiceConfig.store_bloom_bits, metavar="N",
                       help="sharded store: per-shard Bloom filter size in "
                            "bits (rounded up to a power of two; 0 disables)")
    run_p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="periodically snapshot the master state "
                            "(explored set, frontier, stats, config) into "
                            "DIR; continue later with `nice resume DIR`")
    run_p.add_argument("--checkpoint-interval", type=int,
                       default=NiceConfig.checkpoint_interval, metavar="N",
                       help="states explored between checkpoints (SIGTERM "
                            "also triggers one)")
    run_p.add_argument("--all-violations", action="store_true",
                       help="keep searching after the first violation")
    run_p.add_argument("--trace", action="store_true",
                       help="print the violation trace(s)")
    run_p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    resume_p = sub.add_parser(
        "resume",
        help="continue a checkpointed search (see `nice run "
             "--checkpoint-dir`); the resumed run explores the identical "
             "state space an uninterrupted run would have")
    resume_p.add_argument("checkpoint_dir", metavar="DIR",
                          help="checkpoint directory written by a previous "
                               "run; the newest valid snapshot is used "
                               "(torn ones fall back to the previous)")
    resume_p.add_argument("--workers", type=int, default=None,
                          help="override the checkpointed worker count")
    resume_p.add_argument("--transport", choices=ALL_TRANSPORTS,
                          default=None,
                          help="override the checkpointed transport — a "
                               "search may resume on a different one")
    resume_p.add_argument("--start-method", choices=ALL_START_METHODS,
                          default=None,
                          help="override the local-transport start method")
    resume_p.add_argument("--store", choices=ALL_STORES, default=None,
                          help="override the explored-set store")
    resume_p.add_argument("--checkpoint-dir", dest="new_checkpoint_dir",
                          default=None, metavar="DIR",
                          help="keep checkpointing, into DIR (default: the "
                               "directory being resumed from)")
    resume_p.add_argument("--checkpoint-interval", type=int, default=None,
                          metavar="N",
                          help="override the checkpoint interval")
    resume_p.add_argument("--no-checkpoints", action="store_true",
                          help="do not write further checkpoints")
    resume_p.add_argument("--trace", action="store_true",
                          help="print the violation trace(s)")
    resume_p.add_argument("--json", action="store_true",
                          help="machine-readable output")

    walk_p = sub.add_parser("walk", help="random walk on system states")
    walk_p.add_argument("scenario", choices=sorted(SCENARIOS))
    walk_p.add_argument("--steps", type=int, default=200)
    walk_p.add_argument("--seed", type=int, default=0)

    worker_p = sub.add_parser(
        "worker",
        help="serve a socket-transport master (`nice run --transport "
             "socket`) as one search worker")
    worker_p.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="address the master is listening on")
    worker_p.add_argument("--retry", type=int, default=5, metavar="N",
                          help="connection attempts before giving up "
                               "(jittered exponential backoff between "
                               "attempts; 1 = a single try)")
    worker_p.add_argument("--retry-max-wait", type=float, default=30.0,
                          metavar="SEC",
                          help="backoff ceiling between connection attempts")

    ckpt_p = sub.add_parser(
        "checkpoints",
        help="inspect a checkpoint directory: list snapshots, validate "
             "each (sizes + checksums), and show what a resume would load")
    ckpt_p.add_argument("checkpoint_dir", metavar="DIR")
    ckpt_p.add_argument("--json", action="store_true",
                        help="machine-readable output")

    sub.add_parser("list", help="list available scenarios")
    return parser


def make_config(args) -> NiceConfig:
    return NiceConfig(
        strategy=args.strategy,
        max_pkt_sequence=args.max_pkt_sequence,
        max_outstanding=args.max_outstanding,
        canonical_flow_tables=not args.no_canonical,
        state_matching=not args.no_state_matching,
        max_transitions=args.max_transitions,
        stop_at_first_violation=not args.all_violations,
        workers=args.workers,
        transport=args.transport,
        start_method=args.start_method,
        worker_address=args.listen,
        spawn_socket_workers=not args.external_workers,
        affinity=not args.no_affinity,
        min_workers=args.min_workers,
        max_worker_failures=args.max_worker_failures,
        respawn_workers=args.respawn_workers,
        heartbeat_interval=args.heartbeat_interval,
        task_deadline=args.task_deadline,
        max_task_retries=args.max_task_retries,
        quarantine=not args.no_quarantine,
        worker_memory_limit=args.worker_memory_limit,
        fail_fast=args.fail_fast,
        adaptive_batching=not args.no_adaptive_batching,
        checkpoint_mode=args.checkpoint_mode,
        hash_memoization=not args.no_hash_memoization,
        hash_mode=args.hash_mode,
        fast_clone=not args.no_fast_clone,
        cow_clone=not args.no_cow_clone,
        batch_groups=args.batch_groups,
        batch_nodes=args.batch_nodes,
        store=args.store,
        store_shards=args.store_shards,
        store_memory_budget=args.store_memory_budget,
        store_bloom_bits=args.store_bloom_bits,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
    )


def build_scenario(name: str, args, config: NiceConfig | None):
    builder = SCENARIOS[name]
    if name == "ping":
        return builder(pings=getattr(args, "pings", 2), config=config)
    if name == "hostile":
        return builder(mode=getattr(args, "mode", "benign"),
                       arm_file=getattr(args, "arm_file", None),
                       config=config)
    return builder(config=config)


def cmd_run(args) -> int:
    config = make_config(args)
    if args.workers <= 1:
        ignored = [flag for flag, is_default in [
            ("--transport", args.transport == "local"),
            ("--start-method", args.start_method is None),
            ("--listen", args.listen == "127.0.0.1:0"),
            ("--external-workers", not args.external_workers),
            ("--no-affinity", not args.no_affinity),
            ("--min-workers", args.min_workers == NiceConfig.min_workers),
            ("--max-worker-failures",
             args.max_worker_failures == NiceConfig.max_worker_failures),
            ("--respawn-workers", not args.respawn_workers),
            ("--heartbeat-interval",
             args.heartbeat_interval == NiceConfig.heartbeat_interval),
            ("--task-deadline", args.task_deadline is None),
            ("--max-task-retries",
             args.max_task_retries == NiceConfig.max_task_retries),
            ("--no-quarantine", not args.no_quarantine),
            ("--worker-memory-limit", args.worker_memory_limit is None),
            ("--no-adaptive-batching", not args.no_adaptive_batching),
            ("--batch-groups", args.batch_groups == NiceConfig.batch_groups),
            ("--batch-nodes", args.batch_nodes == NiceConfig.batch_nodes),
        ] if not is_default]
        if ignored:
            print(f"warning: {', '.join(ignored)} have no effect without"
                  f" --workers N (N > 1); running the serial engine",
                  file=sys.stderr)
    scenario = build_scenario(args.scenario, args, config)
    result = nice.run(scenario)
    return _report(result, args, scenario.name, config.strategy)


def _report(result, args, scenario_name: str, strategy: str) -> int:
    """Shared `nice run` / `nice resume` result rendering."""
    if args.json:
        payload = {
            "scenario": scenario_name,
            "strategy": strategy,
            "engine": result.engine,
            "workers": result.workers,
            "transitions": result.transitions_executed,
            "unique_states": result.unique_states,
            "wall_time": result.wall_time,
            "hash_hits": result.hash_hits,
            "hash_misses": result.hash_misses,
            "bytes_hashed": result.bytes_hashed,
            "cow_copied": result.cow_copied,
            "worker_failures": result.worker_failures,
            "tasks_retried": result.tasks_retried,
            "groups_reassigned": result.groups_reassigned,
            "elastic_joins": result.elastic_joins,
            "workers_respawned": result.workers_respawned,
            "workers_hung": result.workers_hung,
            "deadline_kills": result.deadline_kills,
            "tasks_quarantined": result.tasks_quarantined,
            "model_errors": result.model_errors,
            "quarantined_tasks": [
                {"trace_length": len(q.trace), "attempts": q.attempts,
                 "reason": q.reason}
                for q in result.quarantined_tasks
            ],
            "worker_tasks": {str(w): n
                             for w, n in sorted(result.worker_tasks.items())},
            "store": result.store,
            "store_hits": result.store_hits,
            "store_spill_reads": result.store_spill_reads,
            "store_evictions": result.store_evictions,
            "store_bloom_negatives": result.store_bloom_negatives,
            "result_payload_bytes": result.result_payload_bytes,
            "checkpoints_written": result.checkpoints_written,
            "checkpoint_seconds": result.checkpoint_seconds,
            "checkpoint_bytes_written": result.checkpoint_bytes_written,
            "resumed_from": result.resumed_from,
            "violations": [
                {"property": v.property_name, "message": v.message,
                 "trace_length": len(v.trace)}
                for v in result.violations
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"scenario : {scenario_name}")
        print(f"strategy : {strategy}")
        print(result.summary())
        if args.trace:
            for index, violation in enumerate(result.violations):
                print(f"\n--- trace of violation {index} "
                      f"({violation.property_name}) ---")
                print(format_trace(violation.trace))
    return 1 if result.found_violation else 0


def cmd_resume(args) -> int:
    overrides = {}
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.transport is not None:
        overrides["transport"] = args.transport
    if args.start_method is not None:
        overrides["start_method"] = args.start_method
    if args.store is not None:
        overrides["store"] = args.store
    if args.checkpoint_interval is not None:
        overrides["checkpoint_interval"] = args.checkpoint_interval
    if args.no_checkpoints:
        overrides["checkpoint_dir"] = None
    elif args.new_checkpoint_dir is not None:
        overrides["checkpoint_dir"] = args.new_checkpoint_dir
    try:
        scenario, result = nice.resume(args.checkpoint_dir, **overrides)
    except CheckpointError as exc:
        print(f"nice resume: {exc}", file=sys.stderr)
        return 2
    return _report(result, args, scenario.name, scenario.config.strategy)


def cmd_walk(args) -> int:
    scenario = build_scenario(args.scenario, args, None)
    result = nice.random_walk(scenario, steps=args.steps, seed=args.seed)
    print(result.summary())
    return 1 if result.found_violation else 0


def cmd_list() -> int:
    for name in sorted(SCENARIOS):
        print(name)
    return 0


def cmd_worker(args) -> int:
    from repro.mc.transport.socket import run_worker

    return run_worker(args.connect, retries=args.retry,
                      retry_max_wait=args.retry_max_wait)


def cmd_checkpoints(args) -> int:
    from repro.mc.store import list_checkpoints, validate_checkpoint

    entries = list_checkpoints(args.checkpoint_dir)
    report = []
    newest_valid = None
    for path in entries:
        try:
            checkpoint = validate_checkpoint(path)
        except CheckpointError as exc:
            report.append({"name": path.name, "valid": False,
                           "error": str(exc)})
            continue
        spec = checkpoint.spec
        report.append({
            "name": path.name,
            "valid": True,
            "scenario": spec.name if spec is not None else None,
            "states": checkpoint.states,
            "frontier": len(checkpoint.frontier),
            "transitions": checkpoint.stats.get("transitions_executed"),
            "violations": len(checkpoint.stats.get("violations", [])),
            "format": checkpoint.format,
            # Bytes this snapshot actually wrote (hard-linked segments
            # excluded) — "delta" snapshots show a small number here even
            # for a large explored set.  None for format-1 snapshots.
            "bytes_written": checkpoint.bytes_written,
        })
        newest_valid = path.name
    if args.json:
        print(json.dumps({"checkpoint_dir": args.checkpoint_dir,
                          "resume_would_load": newest_valid,
                          "checkpoints": report}, indent=2))
    else:
        if not entries:
            print(f"no checkpoints under {args.checkpoint_dir}")
        for entry in report:
            if entry["valid"]:
                written = entry["bytes_written"]
                delta = ("" if written is None
                         else f" written={written}B (delta)")
                print(f"{entry['name']}: ok  scenario={entry['scenario']}"
                      f" states={entry['states']}"
                      f" frontier={entry['frontier']}"
                      f" transitions={entry['transitions']}"
                      f" violations={entry['violations']}"
                      f" format={entry['format']}{delta}")
            else:
                print(f"{entry['name']}: INVALID ({entry['error']})")
        if newest_valid is not None:
            print(f"resume would load: {newest_valid}")
    return 0 if newest_valid is not None else 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "resume":
        return cmd_resume(args)
    if args.command == "walk":
        return cmd_walk(args)
    if args.command == "worker":
        return cmd_worker(args)
    if args.command == "checkpoints":
        return cmd_checkpoints(args)
    if args.command == "list":
        return cmd_list()
    return 2


if __name__ == "__main__":
    sys.exit(main())
