"""Every metric the benchmark reports, with its unit and meaning.

``END_TO_END`` metrics are measured with tracing off and are present on
every workload.  ``PER_LAYER`` metrics come from the traced run; each entry
names the layer it measures and which end-to-end figure it should move on
which workload (``moves``), so a later change can cite the prediction it
makes before measuring.  A per-layer metric that does not apply to a
workload reads 0 there.

Running this module prints the ``BENCHMARK.json`` that matches the
catalogue: ``python3 perfbench/catalogue.py > BENCHMARK.json``.
"""

from __future__ import annotations

import json
from typing import List, NamedTuple, Tuple

#: Workload name -> why it is in the benchmark (one line each).
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "contended",
        "Fig. 6 regime: 5 EC2 sites, f=1, 16 closed-loop clients/site, 15% "
        "conflict; Tempo then Atlas. Simulator core, Tempo stability and "
        "Atlas's dependency graph do the work.",
    ),
    (
        "sharded-faults",
        "Tempo on 3 sites x 2 shards with crash, restart and flaky links: "
        "cross-shard MStable, recovery and retransmission. Stalls at the "
        "seed: ops unanswered after the crash.",
    ),
    (
        "runtime",
        "asyncio AsyncCluster, 3 Tempo replicas, wire_bytes=True, 8 "
        "closed-loop clients, no injected delay: the wire codec and the "
        "event loop do the work, the simulator none.",
    ),
    (
        "explorer",
        "Closes the 15,153-state Tempo small-model lattice (2 commands, "
        "ack_broadcast off) that tier-1 checks: snapshot, settle and "
        "deliver dominate. The seed does not change it.",
    ),
)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    moves: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "package import plus the median time from the start of a set-up "
        "to its first event, op or state (deployment build); several "
        "set-ups per run",
    ),
    EndToEnd(
        "ops_per_s", "1/s", "higher", 0.25,
        "committed client ops per wall second of the measured phase; on "
        "explorer one op is one closure of the lattice",
    ),
    EndToEnd(
        "wall_s", "s", "lower", 0.25,
        "wall time of one fixed job: contended = a Tempo and an Atlas run, "
        "sharded-faults = one fault-plan run, runtime = one batch of 1,000 "
        "ops (mean), explorer = closing the lattice",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.15,
        "peak resident set of the benchmark process, which runs only the "
        "one workload",
    ),
)

_SIM_OPS = "ops_per_s on contended and sharded-faults"
_ALL_OPS = "ops_per_s on contended, sharded-faults and runtime"
_RUNTIME = "ops_per_s and tempo.p50_ms on runtime"
_REPAIR = (
    "failed_ratio, outage_ms and ops_per_s on sharded-faults; on contended "
    "only Tempo's fault-free MCommitRequest clock-bump path is non-zero"
)
_GC = "peak_rss_mb on contended and sharded-faults"
_EXPLORER = "wall_s on explorer"

#: Message kinds whose sends are counted as ``sent.<Kind>``: every kind
#: Tempo or Atlas sends in the two simulated workloads.
SENT_KINDS: Tuple[str, ...] = (
    "ClientReply", "MBump", "MCommit", "MCommitRequest", "MConsensus",
    "MConsensusAck", "MDeliveryAck", "MDepAccept", "MDepAcceptAck",
    "MDepCommit", "MExecutedClock", "MPayload", "MPreAccept", "MPreAcceptAck",
    "MPromiseResync", "MPromises", "MPropose", "MProposeAck", "MRec",
    "MRecAck", "MStable", "MStableRequest", "MSubmit",
)

#: Kinds that only exist to repair a lost or stalled command.
REPAIR_KINDS: Tuple[str, ...] = (
    "MRec", "MRecAck", "MCommitRequest", "MPromiseResync", "MStableRequest",
    "MDeliveryAck",
)

PER_LAYER: Tuple[PerLayer, ...] = (
    # End-to-end figures that are not on every workload, so not gated
    # end-to-end; simulated latencies are deterministic per seed.
    PerLayer("tempo.p50_ms", "ms", "lower", "end-to-end", "submit->reply; simulated ms on the simulator, wall ms on runtime"),
    PerLayer("tempo.p99_ms", "ms", "lower", "end-to-end", "submit->reply"),
    PerLayer("tempo.p999_ms", "ms", "lower", "end-to-end", "submit->reply; 0 unless >= 10 samples lie beyond it"),
    PerLayer("tempo.samples", "count", "higher", "end-to-end", "latency samples behind the tempo percentiles"),
    PerLayer("atlas.p50_ms", "ms", "lower", "end-to-end", "submit->reply on contended"),
    PerLayer("atlas.p99_ms", "ms", "lower", "end-to-end", "submit->reply on contended"),
    PerLayer("atlas.p999_ms", "ms", "lower", "end-to-end", "submit->reply on contended; 0 unless >= 10 samples lie beyond it"),
    PerLayer("atlas.samples", "count", "higher", "end-to-end", "latency samples behind the atlas percentiles"),
    PerLayer("bytes_per_op", "B", "lower", "end-to-end", "bytes sent per committed op (exact frame sizes / router bytes_shipped)"),
    PerLayer("failed_ratio", "ratio", "lower", "end-to-end", "unanswered / submitted ops, at the drain horizon or the per-op timeout"),
    PerLayer("outage_ms", "ms", "lower", "end-to-end", "longest reply gap from the first fault to the end of the run (sharded-faults)"),
    # simulator
    PerLayer("simulator.self_s", "s", "lower", "simulator", _SIM_OPS),
    PerLayer("simulator.events", "count", "lower", "simulator", _SIM_OPS),
    PerLayer("simulator.heap_ops", "count", "lower", "simulator", _SIM_OPS),
    PerLayer("network.msgs_per_op", "count", "lower", "simulator", _SIM_OPS),
    PerLayer("network.deliveries_per_op", "count", "lower", "simulator", _SIM_OPS),
    PerLayer("network.dropped", "count", "lower", "simulator", "failed_ratio on sharded-faults"),
    # core (Tempo)
    PerLayer("tempo.deliver_s", "s", "lower", "core", _ALL_OPS + "; tempo.p50_ms on runtime"),
    PerLayer("tempo.tick_s", "s", "lower", "core", _ALL_OPS + "; tempo.p50_ms on runtime"),
    PerLayer("tempo.submit_s", "s", "lower", "core", _ALL_OPS),
    PerLayer("tempo.deliveries", "count", "lower", "core", _ALL_OPS),
    PerLayer("tempo.ticks", "count", "lower", "core", _ALL_OPS),
    PerLayer("tempo.fast_path_ratio", "ratio", "higher", "core", "tempo.p50_ms on contended"),
    PerLayer("tempo.commit_requests_per_op", "count", "lower", "core", "bytes_per_op on contended"),
    PerLayer("tempo.mstable_per_op", "count", "lower", "core", "bytes_per_op on sharded-faults"),
    # protocols (Atlas and its dependency graph)
    PerLayer("atlas.deliver_s", "s", "lower", "protocols", "ops_per_s on contended"),
    PerLayer("atlas.tick_s", "s", "lower", "protocols", "ops_per_s on contended"),
    PerLayer("atlas.submit_s", "s", "lower", "protocols", "ops_per_s on contended"),
    PerLayer("atlas.fast_path_ratio", "ratio", "higher", "protocols", "atlas.p50_ms on contended"),
    PerLayer("depgraph.s", "s", "lower", "protocols", "ops_per_s on contended"),
    PerLayer("depgraph.max_component", "count", "lower", "protocols", "atlas.p999_ms on contended"),
    # wire
    PerLayer("wiresize.s", "s", "lower", "wire", _SIM_OPS),
    PerLayer("wiresize.calls", "count", "lower", "wire", _SIM_OPS),
    PerLayer("codec.encode_s", "s", "lower", "wire", _RUNTIME),
    PerLayer("codec.decode_s", "s", "lower", "wire", _RUNTIME),
    PerLayer("codec.frames", "count", "lower", "wire", _RUNTIME),
    PerLayer("codec.bytes_per_frame", "B", "lower", "wire", _RUNTIME),
    # runtime
    PerLayer("runtime.loop_s", "s", "lower", "runtime", _RUNTIME),
    PerLayer("runtime.queue_wait_ms", "ms", "lower", "runtime", _RUNTIME),
    PerLayer("runtime.ticks_per_op", "count", "lower", "runtime", _RUNTIME),
    # kvstore
    PerLayer("kvstore.apply_s", "s", "lower", "kvstore", _ALL_OPS + "; expect little movement"),
    PerLayer("kvstore.applies", "count", "lower", "kvstore", _ALL_OPS),
    # core.gc
    PerLayer("gc.collected", "count", "higher", "core.gc", _GC),
    PerLayer("gc.live_records", "count", "lower", "core.gc", _GC),
    PerLayer("gc.peak_live_per_key", "count", "lower", "core.gc", _GC),
    # reliability and repair
    PerLayer("reliability.tracked", "count", "lower", "reliability", _REPAIR),
    PerLayer("reliability.resends", "count", "lower", "reliability", _REPAIR),
    PerLayer("reliability.expired", "count", "lower", "reliability", _REPAIR),
    PerLayer("repair.msgs", "count", "lower", "reliability", _REPAIR),
    # analysis.smallmodel
    PerLayer("explorer.states", "count", "lower", "analysis.smallmodel", _EXPLORER),
    PerLayer("explorer.final_states", "count", "lower", "analysis.smallmodel", _EXPLORER),
    PerLayer("explorer.protocol_s", "s", "lower", "analysis.smallmodel", _EXPLORER),
    PerLayer("explorer.snapshot_s", "s", "lower", "analysis.smallmodel", _EXPLORER),
    PerLayer("explorer.self_s", "s", "lower", "analysis.smallmodel", _EXPLORER),
    # client and the accounting of the traced phase itself
    PerLayer("client.s", "s", "lower", "client", "expect it to stay small"),
    PerLayer("other.s", "s", "lower", "trace", "traced phase minus every span's self time"),
    PerLayer("trace.phase_s", "s", "lower", "trace", "wall time of the traced phase"),
    PerLayer("trace.overhead_ratio", "ratio", "lower", "trace", "traced / untraced wall time of the same work, minus 1"),
    PerLayer("determinism.mismatches", "count", "lower", "trace", "1 when the untraced and traced same-seed runs differ in a deterministic figure"),
) + tuple(
    PerLayer(f"sent.{kind}", "count", "lower", "network", "bytes_per_op and ops_per_s on the simulated workloads")
    for kind in SENT_KINDS
)

END_TO_END_NAMES: List[str] = [metric.name for metric in END_TO_END]
PER_LAYER_NAMES: List[str] = [metric.name for metric in PER_LAYER]
UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalogue defines."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
