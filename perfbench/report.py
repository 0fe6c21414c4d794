"""Every metric of every workload, from one command.

    python3 perfbench/report.py --seed 1 --seconds 40

Run from the repository root.  Each workload runs as ``run.py --trace 1``
does, alternating untraced and traced searches for ``--seconds``.  The
report prints, per workload, the end-to-end metrics and ``error_rate``
(from the untraced searches) and every per-layer metric with
``trace.overhead``, each with its unit and sample count.  It ends with the
two figures derived from the ``lb3-*`` rows:

* ``derived.cpu_inflation`` = worker.cpu_s(lb3-fork2) / cpu_s(lb3-serial)
* ``derived.parallel_speedup`` = wall_s(lb3-serial) / wall_s(lb3-fork2)

Exits 1 if any search failed its verdict or a cross-check.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from pathlib import Path

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("run from the repository root", file=sys.stderr)
        return 2
    rows, layer_rows, failures, engines = {}, {}, 0, {}
    for name in WORKLOADS:
        # The report is not held to run.py's per-run deadline.
        deadline = time.perf_counter() + 10 * args.seconds + 300
        untraced, traced, _ = run.collect(root, name, args.seed, args.seconds,
                                          True, deadline)
        results = untraced + traced
        failed = run.failures(results)
        failures += failed
        print(f"== {name}: {len(results)} searches ({len(untraced)} untraced,"
              f" {len(traced)} traced), {failed} failed")
        for line in run.describe(results):
            print(line)
        if not run.completed(untraced) or not run.completed(traced):
            continue
        engines[name] = run.completed(untraced)[0]["stats"]["engine"]
        rows[name] = run.end_to_end(untraced)
        rows[name]["error_rate"] = {"value": failed / len(results),
                                    "p25": 0, "p75": 0, "n": len(results),
                                    "unit": "ratio"}
        layer_rows[name] = run.per_layer(untraced, traced)
        for metric_name, metric in {**rows[name], **layer_rows[name]}.items():
            print(run.format_metric(metric_name, metric))
    print("== derived (lb3-serial vs lb3-fork2)")
    print(f"nproc {len(os.sched_getaffinity(0))}, Python"
          f" {platform.python_version()}, lb3-fork2 engine"
          f" {engines.get('lb3-fork2', 'n/a')}")
    serial, fork2 = rows.get("lb3-serial"), rows.get("lb3-fork2")
    if serial and fork2:
        inflation = (layer_rows["lb3-fork2"]["worker.cpu_s"]["value"]
                     / serial["cpu_s"]["value"])
        speedup = serial["wall_s"]["value"] / fork2["wall_s"]["value"]
        print(f"derived.cpu_inflation     {inflation:.4f} ratio")
        print(f"derived.parallel_speedup  {speedup:.4f} ratio")
    else:
        print("derived lines unavailable: an lb3 workload completed no search")
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
