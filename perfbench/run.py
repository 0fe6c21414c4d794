"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lb3-serial --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each search runs in a fresh process
(``search_once.py``), one at a time: a closed loop with one client.  New
searches start while they fit in ``--seconds`` (at least three, or one pair
with ``--trace 1``).  With ``--trace 0`` a few processes that only set the
search up run first, so that ``setup_s`` has more samples than the searches
alone give.  Every search's verdict is checked against the
workload's reference counts; a mismatch or exception counts as failed.

``--trace 0`` reports the end-to-end metrics, medians over the searches.
``--trace 1`` alternates untraced and traced searches and reports the
per-layer metrics: spans (``*.calls``, ``*.self_s``, ``*.wait_s``) from
the traced searches, the program's counters and CPU times from the
untraced ones.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
#: Every run, the searches it starts included, ends within this many seconds.
RUN_DEADLINE_S = 170.0
#: Scratch space for searches, under the directory the benchmark runs in.
SCRATCH = ".perfbench_run"
#: Set-up-only processes at the start of a ``--trace 0`` run.
SETUP_SAMPLES = 5


# ----------------------------------------------------------------------
# Metric definitions
# ----------------------------------------------------------------------

def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _stat(name):
    return lambda s: s["stats"][name]


def _span(name, field):
    index = {"calls": 0, "total_s": 1, "self_s": 2}[field]
    return lambda s: s["spans"].get(name, [0, 0.0, 0.0])[index]


#: name -> (unit, value of one untraced search).
END_TO_END = {
    "wall_s": ("s", lambda s: s["wall_s"]),
    "transitions_per_s": (
        "1/s", lambda s: s["stats"]["transitions_executed"] / s["wall_s"]),
    "cpu_s": ("s", lambda s: s["master_cpu_s"] + s["worker_cpu_s"]),
    "peak_rss_mb": ("MB", lambda s: s["master_rss_mb"] + s["worker_rss_mb"]),
    "setup_s": ("s", lambda s: s["setup_s"]),
}

#: Per-layer metrics read from the untraced searches of a ``--trace 1`` run:
#: name -> (unit, value of one search).
COUNTERS = {
    "system.hash_misses": ("count", _stat("hash_misses")),
    "system.digest_hit_ratio": ("ratio", lambda s: _ratio(
        s["stats"]["hash_hits"],
        s["stats"]["hash_hits"] + s["stats"]["hash_misses"])),
    "system.bytes_hashed_per_transition": ("B/transition", lambda s: _ratio(
        s["stats"]["bytes_hashed"], s["stats"]["transitions_executed"])),
    "system.cow_copied": ("count", _stat("cow_copied")),
    "store.new_ratio": ("ratio", lambda s: _ratio(
        s["stats"]["unique_states"],
        s["stats"]["unique_states"] + s["stats"]["revisited_states"])),
    "store.spill_reads": ("count", _stat("store_spill_reads")),
    "store.evictions": ("count", _stat("store_evictions")),
    "store.bloom_negatives": ("count", _stat("store_bloom_negatives")),
    "checkpoint.bytes_written": ("B", _stat("checkpoint_bytes_written")),
    "checkpoint.bytes_per_new_state": ("B/state", lambda s: _ratio(
        s["stats"]["checkpoint_bytes_written"], s["stats"]["unique_states"])),
    "checkpoint.fsync.calls": ("count", lambda s: s.get("fsync_calls", 0)),
    "checkpoint.files_last": ("count",
                              lambda s: s.get("checkpoint_files_last", 0)),
    "worker.cpu_s": ("s", lambda s: s["worker_cpu_s"]),
    "worker.cache_hit_ratio": ("ratio", lambda s: _ratio(
        s["stats"]["cache_hits"],
        s["stats"]["cache_hits"] + s["stats"]["cache_misses"])),
    "worker.restore_ratio": ("ratio", lambda s: _ratio(
        s["stats"]["replayed_transitions"] + s["stats"]["rebuilt_transitions"],
        s["stats"]["transitions_executed"])),
    "scheduler.master_cpu_s": ("s", lambda s: s["master_cpu_s"]),
    "scheduler.affinity_hit_ratio": ("ratio", lambda s: _ratio(
        s["stats"]["affinity_hits"],
        s["stats"]["affinity_hits"] + s["stats"]["affinity_misses"])),
    "wire.result_payload_bytes": ("B", _stat("result_payload_bytes")),
    "wire.bytes_per_transition": ("B/transition", lambda s: _ratio(
        s["stats"]["result_payload_bytes"],
        s["stats"]["transitions_executed"])),
    "wire.prefilter_drops": ("count", _stat("bloom_prefilter_drops")),
    "wire.prefilter_fp": ("count", _stat("bloom_prefilter_fp")),
}

#: Per-layer metrics read from the traced searches.
SPANS = {}
for _name in ("system.execute", "system.clone", "system.state_hash",
              "system.enabled_transitions", "properties.check",
              "properties.check_quiescent", "sym.discover_packets",
              "sym.discover_stats", "store.add_batch", "checkpoint.write",
              "replay", "worker.expand", "transport.submit"):
    SPANS[f"{_name}.calls"] = ("count", _span(_name, "calls"))
    SPANS[f"{_name}.self_s"] = ("s", _span(_name, "self_s"))
SPANS["strategies.filter.self_s"] = ("s", _span("strategies.filter", "self_s"))
SPANS["strategies.post_execute.self_s"] = (
    "s", _span("strategies.post_execute", "self_s"))
SPANS["transport.recv.calls"] = ("count", _span("transport.recv", "calls"))
# Nothing wrapped runs inside recv, so its whole time is spent waiting.
SPANS["transport.recv.wait_s"] = ("s", _span("transport.recv", "total_s"))
SPANS["trace.unattributed_s"] = ("s", lambda s: s["unattributed_s"])

#: Every per-layer metric name -> unit, grouped by layer; ``trace.overhead``
#: is the median traced wall time over the median untraced one.
LAYERS = ("system", "strategies", "properties", "sym", "store", "checkpoint",
          "replay", "worker", "scheduler", "transport", "wire", "trace")
PER_LAYER = {name: unit for name, (unit, _) in sorted(
    {**SPANS, **COUNTERS, "trace.overhead": ("ratio", None)}.items(),
    key=lambda item: LAYERS.index(item[0].split(".")[0]))}


# ----------------------------------------------------------------------
# Running searches
# ----------------------------------------------------------------------

def run_search(root: Path, workload: str, seed: int, mode: str,
               scratch: Path, timeout: float) -> dict:
    """One search in a fresh process; its JSON result, or an error.
    ``mode`` is ``"0"`` (untraced), ``"1"`` (traced) or ``"setup"``."""
    scratch.mkdir(parents=True)
    (scratch / "tmp").mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    # The sharded store spills into a fresh temporary directory.
    env["TMPDIR"] = str(scratch / "tmp")
    command = [sys.executable, str(HERE / "search_once.py"), workload,
               str(seed), mode, str(scratch)]
    process = subprocess.Popen(command, cwd=root, env=env, text=True,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        # Worker processes share the search's session: stop them all.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"errors": [f"search timed out after {timeout:.0f}s"]}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"errors": [f"search exited with code {process.returncode}:"
                           f" {stderr.strip()[-2000:]}"]}
    if process.returncode:
        result["errors"].append(f"exit code {process.returncode}")
    return result


def collect(root: Path, workload: str, seed: int, seconds: float,
            trace: bool, deadline: float) -> tuple[list, list, list]:
    """Run searches for ``seconds``; returns (untraced, traced, set-up-only)
    results."""
    run_dir = root / SCRATCH / str(os.getpid())
    kinds = (False, True) if trace else (False,)
    min_rounds = 1 if trace else 3
    results = {kind: [] for kind in kinds}
    setups = []
    took = {}
    start = time.perf_counter()
    try:
        for index in range(0 if trace else SETUP_SAMPLES):
            setups.append(run_search(
                root, workload, seed, "setup", run_dir / f"setup-{index}",
                deadline - time.perf_counter()))
        for index in itertools.count():
            for traced in kinds:
                began = time.perf_counter()
                results[traced].append(run_search(
                    root, workload, seed, "1" if traced else "0",
                    run_dir / str(index * 2 + traced), deadline - began))
                took[traced] = time.perf_counter() - began
            elapsed = time.perf_counter() - start
            round_s = sum(took.values())
            if index + 1 >= min_rounds and (
                    elapsed + round_s > seconds
                    or time.perf_counter() + round_s > deadline):
                break
    finally:
        remove_scratch(run_dir)
    return results[False], results.get(True, []), setups


def remove_scratch(path: Path) -> None:
    """Remove ``path``, and the scratch root above it once it is empty."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # another run is still using it


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------

def summarize(values) -> dict:
    """Median, quartiles and sample count of ``values``."""
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "p25": q1, "p75": q3,
            "n": len(values)}


def completed(results) -> list:
    return [r for r in results if "wall_s" in r]


def failures(results) -> int:
    """Searches that raised or failed a verdict or cross-check."""
    return sum(1 for r in results if r.get("errors"))


def end_to_end(untraced, setups=()) -> dict:
    """Metrics of the untraced searches; ``setup_s`` also counts the
    set-up-only processes."""
    done = completed(untraced)
    out = {}
    for name, (unit, fn) in END_TO_END.items():
        values = [fn(s) for s in done]
        if name == "setup_s":
            values += [s["setup_s"] for s in setups if "setup_s" in s]
        out[name] = {**summarize(values), "unit": unit}
    return out


def per_layer(untraced, traced) -> dict:
    done, spans = completed(untraced), completed(traced)
    out = {name: {**summarize([fn(s) for s in done]), "unit": unit}
           for name, (unit, fn) in COUNTERS.items()}
    out.update({name: {**summarize([fn(s) for s in spans]), "unit": unit}
                for name, (unit, fn) in SPANS.items()})
    overhead = (statistics.median(s["wall_s"] for s in spans)
                / statistics.median(s["wall_s"] for s in done))
    out["trace.overhead"] = {"value": overhead, "p25": overhead,
                             "p75": overhead, "n": len(spans),
                             "unit": "ratio"}
    return {name: out[name] for name in PER_LAYER}


def describe(results) -> list[str]:
    """Context lines: engine, filesystem, and every failure."""
    done = completed(results)
    lines = []
    if done:
        first = done[0]
        lines.append(f"engine {first['stats']['engine']}"
                     f" (workers={first['stats']['workers']})")
        if "fs_type" in first:
            kind = first["fs_type"]
            lines.append(
                f"checkpoint directory on {kind}"
                + ("" if kind == "tmpfs" else " (not tmpfs)")
                + f"; fsync counted and skipped"
                  f" ({first['fsync_calls']} calls per search)")
    for result in results:
        for error in result.get("errors", []):
            lines.append(f"FAILED: {error}")
    return lines


def format_metric(name, metric) -> str:
    return (f"{name:38s} {metric['value']:14.6g} {metric['unit']:13s}"
            f" n={metric['n']} p25={metric['p25']:.6g}"
            f" p75={metric['p75']:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {root / 'src' / 'repro'} is missing;"
              " run from the repository root", file=sys.stderr)
        return 2
    untraced, traced, setups = collect(root, args.workload, args.seed,
                                       args.seconds, bool(args.trace),
                                       deadline)
    results = untraced + traced + setups
    if not completed(untraced) or (args.trace and not completed(traced)):
        for line in describe(results):
            print(line, file=sys.stderr)
        print("no search completed", file=sys.stderr)
        return 1
    failed = failures(results)
    metrics = (per_layer(untraced, traced) if args.trace
               else end_to_end(untraced, setups))
    print(f"workload {args.workload} seed {args.seed}:"
          f" {len(results)} processes ({len(setups)} set-up only),"
          f" {failed} failed,"
          f" error_rate {failed / len(results):.3f}")
    for line in describe(results):
        print(line)
    for name, metric in metrics.items():
        print(format_metric(name, metric))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
