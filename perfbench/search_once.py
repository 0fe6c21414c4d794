"""One timed search of one workload, in a fresh process.

Run by ``run.py`` as ``python3 perfbench/search_once.py <workload> <seed>
<0|1|setup> <scratch dir>`` with ``src`` on ``PYTHONPATH``: ``0`` runs an
untraced search, ``1`` a traced one, and ``setup`` only sets the search up.
Prints one JSON object: set-up and search times, resource usage, the
search's counters, the spans of a traced search, and every verdict or
cross-check that failed.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from tracer import Tracer
from workloads import SELFTEST, WORKLOADS

#: SearchStats fields the benchmark reads after a run.
STATS_FIELDS = (
    "transitions_executed", "unique_states", "revisited_states", "engine",
    "workers", "cache_hits", "cache_misses",
    "replayed_transitions", "rebuilt_transitions", "affinity_hits",
    "affinity_misses", "hash_hits", "hash_misses", "bytes_hashed",
    "cow_copied", "store_spill_reads", "store_evictions",
    "store_bloom_negatives", "bloom_prefilter_drops", "bloom_prefilter_fp",
    "result_payload_bytes", "checkpoint_bytes_written",
)


def verdict_errors(reference, stats) -> list[str]:
    """Every way ``stats`` differs from the workload's reference verdict."""
    got = {
        "transitions": stats.transitions_executed,
        "unique": stats.unique_states,
        "revisited": stats.revisited_states,
        "quiescent": stats.quiescent_states,
        "violations": dict(Counter(v.property_name for v in stats.violations)),
        "terminated": stats.terminated,
    }
    return [f"{key}: expected {getattr(reference, key)!r}, got {value!r}"
            for key, value in got.items() if value != getattr(reference, key)]


def span_errors(stats, spans: dict) -> list[str]:
    """Cross-check the wrappers' call counts against the program's own
    counters; ``spans`` sums every process of the search."""
    calls = {name: record[0] for name, record in spans.items()}
    executed = stats.transitions_executed
    if stats.workers:
        executed += stats.replayed_transitions + stats.rebuilt_transitions
    checks = [
        ("system.execute", executed),
        ("sym.discover_packets", stats.discover_packet_runs),
        ("checkpoint.write", stats.checkpoints_written),
    ]
    return [f"{name}.calls = {calls.get(name, 0)}, the search counted {want}"
            for name, want in checks if calls.get(name, 0) != want]


def filesystem_type(path: Path) -> str:
    """The type of the filesystem holding ``path`` (Linux mount table)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                point = fields[1]
                if (path == point or path.startswith(point.rstrip("/") + "/")) \
                        and len(point) >= len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind


class FsyncCounter:
    """Stands in for ``os.fsync`` while a timed search runs.

    A tmpfs fsync returns at once; on a disk it waits for the device, and
    that wait, not the program, would set the checkpoint workload's time.
    The search runs in the benchmark's own directory, wherever that is, so
    fsync is counted and skipped everywhere: the writes, renames, links and
    checksums of a snapshot all still run.
    """

    def __init__(self):
        self.calls = 0
        self._original = None

    def __call__(self, fd) -> None:
        self.calls += 1

    def __enter__(self):
        self._original, os.fsync = os.fsync, self
        return self

    def __exit__(self, *exc):
        os.fsync = self._original


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def set_up(workload, seed: int, scratch: Path):
    """Import ``repro``, build the scenario and its searcher; returns the
    searcher, its checkpoint directory and the seconds that took."""
    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed as part of set-up)

    checkpoint_dir = scratch / "checkpoints"
    scenario = workload.build(seed, checkpoint_dir)
    searcher = scenario.make_searcher()
    return searcher, checkpoint_dir, time.perf_counter() - t0


def measure(workload, seed: int, trace: bool, scratch: Path) -> dict:
    """Set up and run one search in ``scratch``, a fresh directory."""
    searcher, checkpoint_dir, setup_s = set_up(workload, seed, scratch)

    tracer = Tracer(scratch / "spans") if trace else None
    fsync = FsyncCounter()
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer:
        tracer.install()
    try:
        with fsync:
            start = time.perf_counter()
            stats = searcher.run()
            wall_s = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)

    out = {
        "workload": workload.name,
        "seed": seed,
        "traced": trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "master_cpu_s": _cpu(self_after) - _cpu(self_before),
        "worker_cpu_s": _cpu(children_after) - _cpu(children_before),
        # ru_maxrss is in KiB on Linux; the children's is the largest
        # single child's peak.
        "master_rss_mb": self_after.ru_maxrss / 1024,
        "worker_rss_mb": (children_after.ru_maxrss / 1024
                          if stats.workers else 0.0),
        "stats": {name: getattr(stats, name) for name in STATS_FIELDS},
        "errors": verdict_errors(workload.reference, stats),
    }
    if workload.checkpoints:
        from repro.mc import store

        snapshots = store.list_checkpoints(checkpoint_dir)
        out["fs_type"] = filesystem_type(checkpoint_dir)
        out["fsync_calls"] = fsync.calls
        out["checkpoint_files_last"] = 0
        if not snapshots:
            out["errors"].append("no checkpoint was written")
        else:
            try:
                newest = store.validate_checkpoint(snapshots[-1])
                out["checkpoint_files_last"] = len(newest.file_info)
            except store.CheckpointError as exc:
                out["errors"].append(f"newest checkpoint invalid: {exc}")
    if tracer:
        master = tracer.spans()
        workers = tracer.collect()
        merged: dict[str, list] = {}
        for spans in [master, *workers]:
            for name, record in spans.items():
                total = merged.setdefault(name, [0, 0.0, 0.0])
                for i, value in enumerate(record):
                    total[i] += value
        out["spans"] = merged
        out["unattributed_s"] = wall_s - sum(record[2]
                                             for record in master.values())
        out["errors"].extend(span_errors(stats, merged))
        if out["unattributed_s"] < 0:
            out["errors"].append(
                f"named layers' self time exceeds wall time by"
                f" {-out['unattributed_s']:.6f}s")
    return out


def main(argv) -> int:
    name, seed, mode, scratch = argv[0], int(argv[1]), argv[2], Path(argv[3])
    trace = mode == "1"
    workload = SELFTEST if name == SELFTEST.name else WORKLOADS[name]
    try:
        if mode == "setup":
            out = {"workload": name, "seed": seed, "traced": False,
                   "setup_s": set_up(workload, seed, scratch)[2],
                   "errors": []}
        else:
            out = measure(workload, seed, trace, scratch)
    except Exception:  # noqa: BLE001 - a failed search is a result
        out = {"workload": name, "seed": seed, "traced": trace,
               "errors": [traceback.format_exc()]}
    finally:
        shutil.rmtree(scratch / "checkpoints", ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
