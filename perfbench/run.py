"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload contended --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same work untraced and then traced, and reports the per-layer
metrics plus the tracing overhead.  Either way the outputs are checked, a
readable report goes to standard output, and the last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness check prints ``"correct": false`` and exits with code 1; a
crash (for instance, no ``src/`` next to the benchmark) exits non-zero
without a result line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Workload name -> the module that runs it (its ``RUNNERS`` maps the name
#: to ``run(seed, seconds, trace) -> Outcome``).
MODULES = {
    "contended": "perfbench.simulated",
    "sharded-faults": "perfbench.simulated",
    "runtime": "perfbench.runtime_load",
    "explorer": "perfbench.explorer",
}
IMPORT_PROBES = 3
_IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "start = time.perf_counter()\n"
    "importlib.import_module(sys.argv[3])\n"
    "print(time.perf_counter() - start)\n"
)

#: The end-to-end figures a user of the system sees, printed for every
#: workload in the readable report (``n/a`` where a figure does not apply).
#: Only those present and non-zero on every workload are gated metrics
#: (``catalogue.END_TO_END``); the rest are per-layer metrics.
REPORTED = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("wall_s", "s"),
    ("tempo.p50_ms", "ms"), ("tempo.p99_ms", "ms"), ("tempo.p999_ms", "ms"),
    ("atlas.p50_ms", "ms"), ("atlas.p99_ms", "ms"), ("atlas.p999_ms", "ms"),
    ("bytes_per_op", "B"), ("failed_ratio", "ratio"), ("outage_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_seconds(module: str) -> float:
    """Median time for a fresh interpreter to import ``module``, and with it
    the program (a set-up cost every user of the benchmark pays once)."""
    times = []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, ROOT, os.path.join(ROOT, "src"), module],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def _report(workload: str, outcome, metrics: dict, trace: bool) -> None:
    known = dict(outcome.per_layer, **metrics)
    mode = "traced" if trace else "untraced"
    print(f"workload {workload} ({mode}): correct={outcome.correct} "
          f"attempted={outcome.attempted} failed={outcome.failed}")
    for note in outcome.notes:
        print(f"  note: {note}")
    for error in outcome.errors:
        print(f"  CHECK FAILED: {error}")
    print("end-to-end:")
    for name, unit in REPORTED:
        value = known.get(name)
        if value is None:
            shown = "n/a"
        elif value == 0 and ".p" in name:
            shown = "n/a (fewer than 10 samples beyond it)"
        else:
            shown = f"{value:.6g} {unit}"
        print(f"  {name:<16} {shown}")


def main(argv=None) -> int:
    args = _parse(argv)
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    module = MODULES[args.workload]
    import_s = _import_seconds(module)
    runner = importlib.import_module(module).RUNNERS[args.workload]

    from perfbench.catalogue import END_TO_END_NAMES, PER_LAYER_NAMES, UNITS

    trace = bool(args.trace)
    outcome = runner(args.seed, args.seconds, trace)
    end_to_end = dict(
        outcome.end_to_end,
        setup_s=import_s + outcome.setup_build_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    _report(args.workload, outcome, end_to_end, trace)
    names = PER_LAYER_NAMES if trace else END_TO_END_NAMES
    values = outcome.per_layer if trace else end_to_end
    unknown = sorted(set(values) - set(PER_LAYER_NAMES) - set(END_TO_END_NAMES))
    if unknown:
        raise RuntimeError(f"metrics missing from the catalogue: {unknown}")
    if trace:
        print("per-layer:")
        for name in names:
            print(f"  {name:<30} {values.get(name, 0):.6g} {UNITS[name]}")
    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": UNITS[name]}
            for name in names
        },
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
