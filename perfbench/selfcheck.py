"""Determinism self-check for the deterministic workloads.

    python3 perfbench/selfcheck.py [--seed N]

Runs the traced benchmark twice per workload with the same seed, in two
fresh processes with different string-hash seeds, and requires every
figure that does not measure time to repeat exactly: simulated
percentiles, ``sent.<Kind>``, ``simulator.events``, ``explorer.states``
and the other counters.  (Each traced run already compares its untraced
and traced halves in one process; this adds the cross-process check.)

``HELD_OUT_SEED`` is kept out of tuning: a later performance claim should
also hold on it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.catalogue import PER_LAYER  # noqa: E402

HELD_OUT_SEED = 7919
WORKLOADS = ("contended", "sharded-faults", "explorer")
#: Figures that measure time (or depend on it) and so may differ.
TIMED = {m.name for m in PER_LAYER if m.unit == "s"} | {"trace.overhead_ratio"}


def _traced_metrics(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: correctness check failed\n{completed.stdout}")
    return {
        name: entry["value"]
        for name, entry in result["metrics"].items()
        if name not in TIMED
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    differ = 0
    for workload in WORKLOADS:
        first = _traced_metrics(workload, args.seed, "1")
        second = _traced_metrics(workload, args.seed, "2")
        changed = sorted(n for n in first if first[n] != second[n])
        differ += len(changed)
        status = "identical" if not changed else f"DIFFER: {changed}"
        print(f"{workload}: {len(first)} deterministic figures {status}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
