"""The ``explorer`` workload: close Tempo's small-model lattice.

``explore_tempo(num_commands=2, ack_broadcast=False)`` is the model tier-1
closes (15,153 states at the time the benchmark was written).  The model
has no random input, so the seed does not change it.  One op is one
closure of the lattice: ``ops_per_s`` is ``1 / wall_s``, which a change
that explores fewer states improves, as it should.
"""

from __future__ import annotations

import pickle
import statistics
import time
import types

from perfbench.report import Outcome
from perfbench.tracing import Tracer
from repro.analysis import smallmodel
from repro.core.process import TempoProcess

SETUP_PROBES = 5
MODEL = dict(num_commands=2, ack_broadcast=False)


def _probe_setup() -> float:
    """Seconds to build the model processes, submit the commands and reach
    the first state: a state budget of 0 stops the search right there."""
    start = time.perf_counter()
    result = smallmodel.explore_tempo(max_states=0, **MODEL)
    elapsed = time.perf_counter() - start
    if result.states_explored != 1 or result.complete:
        raise RuntimeError("set-up probe did not stop at the first state")
    return elapsed


def _explore():
    start = time.perf_counter()
    result = smallmodel.explore_tempo(**MODEL)
    return result, time.perf_counter() - start


def _check(result, outcome: Outcome) -> None:
    if not (result.complete and result.ok):
        outcome.fail(f"explorer: {result.summary()}")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    setup = statistics.median([_probe_setup() for _ in range(SETUP_PROBES)])
    result, wall = _explore()
    outcome = Outcome(attempted=1, failed=0, setup_build_s=setup)
    _check(result, outcome)
    outcome.end_to_end.update(ops_per_s=1.0 / wall, wall_s=wall)
    outcome.notes.append(result.summary())
    if not trace:
        return outcome

    tracer = Tracer()
    with tracer:
        for method in ("deliver", "tick", "submit"):
            tracer.span(TempoProcess, method, "explorer.protocol")
        timed_pickle = types.SimpleNamespace(
            dumps=tracer.wrap(pickle.dumps, "explorer.snapshot"),
            loads=tracer.wrap(pickle.loads, "explorer.snapshot"),
            HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
        )
        tracer.replace(smallmodel, "pickle", timed_pickle)
        tracer.span(smallmodel, "explore_tempo", "explorer")
        traced, phase = _explore()
    _check(traced, outcome)
    outcome.compare_repeat(
        (result.states_explored, result.final_states),
        (traced.states_explored, traced.final_states),
        f"explored states ({result.states_explored} then {traced.states_explored})",
    )
    outcome.per_layer.update(
        {
            "explorer.states": traced.states_explored,
            "explorer.final_states": traced.final_states,
            "explorer.protocol_s": tracer.self_time("explorer.protocol"),
            "explorer.snapshot_s": tracer.self_time("explorer.snapshot"),
            "explorer.self_s": tracer.self_time("explorer"),
            "other.s": phase - tracer.total_self_time(),
            "trace.phase_s": phase,
            "trace.overhead_ratio": phase / wall - 1.0,
        }
    )
    return outcome


RUNNERS = {"explorer": run}
