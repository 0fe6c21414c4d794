"""Self-test of the benchmark harness on a 0.1 s search.

    python3 perfbench/selftest.py

Run from the repository root.  Checks, on ``pyswitch-direct-path``:

* a traced search records spans whose counts match the program's own
  counters, and afterwards every wrapped function is the original again,
  so an untraced search in the same process records no spans;
* a deliberately wrong reference count makes every search fail, so the
  error rate is 1.0;
* ``BENCHMARK.json`` names exactly the workloads and metrics the harness
  reports.

Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import run
from search_once import measure
from tracer import Tracer, layer_targets
from workloads import SELFTEST, WORKLOADS


def check_tracer_removal(scratch: Path) -> list[str]:
    originals = {(owner, attr): vars(owner)[attr]
                 for _, owner, attr in layer_targets()}
    traced = measure(SELFTEST, 1, True, scratch / "traced")
    problems = [f"traced search: {error}" for error in traced["errors"]]
    if not traced["spans"].get("system.execute", [0])[0]:
        problems.append("the traced search recorded no system.execute span")
    # Record one search with a tracer of our own, remove it, search again:
    # the second search must leave the tracer's totals untouched.
    tracer = Tracer(scratch / "spans")
    tracer.install()
    measure(SELFTEST, 1, False, scratch / "under-tracer")
    tracer.uninstall()
    recorded = json.dumps(tracer.records)
    if not tracer.spans():
        problems.append("an installed tracer recorded no spans")
    problems += [f"{getattr(owner, '__name__', owner)}.{attr} is still wrapped"
                 for (owner, attr), original in originals.items()
                 if vars(owner)[attr] is not original]
    untraced = measure(SELFTEST, 1, False, scratch / "untraced")
    problems += [f"untraced search: {error}" for error in untraced["errors"]]
    if "spans" in untraced or json.dumps(tracer.records) != recorded:
        problems.append("an untraced search after a traced one recorded spans")
    return problems


def check_wrong_reference(scratch: Path) -> list[str]:
    wrong = dataclasses.replace(
        SELFTEST, reference=dataclasses.replace(
            SELFTEST.reference,
            transitions=SELFTEST.reference.transitions + 1))
    results = [measure(wrong, seed, False, scratch / f"wrong-{seed}")
               for seed in (1, 2)]
    rate = run.failures(results) / len(results)
    return [] if rate == 1.0 else [f"wrong reference: error_rate {rate}"]


def check_benchmark_json(root: Path) -> list[str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {
        "workloads": {(w["name"], w["why"]) for w in spec["workloads"]},
        "end_to_end": {(m["name"], m["unit"]) for m in spec["end_to_end"]},
        "per_layer": {(m["name"], m["unit"]) for m in spec["per_layer"]},
    }
    reported = {
        "workloads": {(w.name, w.why) for w in WORKLOADS.values()},
        "end_to_end": {(name, unit)
                       for name, (unit, _) in run.END_TO_END.items()},
        "per_layer": set(run.PER_LAYER.items()),
    }
    return [f"BENCHMARK.json {key}: declared {sorted(declared[key])},"
            f" reported {sorted(reported[key])}"
            for key in declared if declared[key] != reported[key]]


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    scratch = root / run.SCRATCH / "selftest"
    try:
        problems = (check_tracer_removal(scratch)
                    + check_wrong_reference(scratch)
                    + check_benchmark_json(root))
    finally:
        run.remove_scratch(scratch)
    for problem in problems:
        print(f"FAILED: {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
