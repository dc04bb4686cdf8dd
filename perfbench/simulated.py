"""The two simulator workloads: ``contended`` and ``sharded-faults``.

A *job* is a fixed list of simulated runs made from the workload seed.  The
measured phase runs jobs back to back, job ``i`` with seed ``seed * 1000 +
i``, while the next job is expected to end within the run's time budget
(always at least one).  Simulated latencies, message counts and every other
deterministic figure come from job 0, so two runs with the same seed report
identical values for them however fast the machine is.
"""

from __future__ import annotations

import collections
import dataclasses
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from perfbench.catalogue import REPAIR_KINDS, SENT_KINDS
from perfbench.report import Outcome, percentile_or_zero
from perfbench.tracing import Tracer
from repro.analysis.trace import ExecutionTraceRecorder
from repro.cluster.client import ClosedLoopClient
from repro.cluster.config import ExperimentConfig
from repro.cluster.runner import run_experiment
from repro.core.base import ProcessBase
from repro.core.messages import MConsensus
from repro.core.process import TempoProcess
from repro.faults.plan import Crash, FaultPlan, FlakyLink, Restart
from repro.kvstore.store import KeyValueStore
from repro.protocols.atlas import AtlasProcess
from repro.protocols.dep_messages import MDepAccept
from repro.protocols.depgraph import DependencyGraphExecutor
from repro.simulator.sim import Simulation
from repro.wire import registered_types

SETUP_PROBES = 5

#: Message kind that marks a command's slow path, per protocol.
_SLOW_PATH = {"tempo": MConsensus, "atlas": MDepAccept}
_PROCESS_CLASS = {"tempo": TempoProcess, "atlas": AtlasProcess}


def contended_job(seed: int) -> List[ExperimentConfig]:
    """Fig. 6's regime: Tempo, then Atlas, long enough for p99.9."""
    common = dict(
        num_sites=5, faults=1, clients_per_site=16, conflict_rate=0.15,
        keys_per_command=1, payload_size=100, warmup_ms=500.0, seed=seed,
    )
    # About 390 (Tempo) and 510 (Atlas) replies per simulated second: both
    # runs collect more than 10,000 samples, so at least ten lie beyond p99.9.
    return [
        ExperimentConfig(protocol="tempo", duration_ms=32_000.0, **common),
        ExperimentConfig(protocol="atlas", duration_ms=24_000.0, **common),
    ]


#: Crash replica (site 1, shard 0) at 5 s, restart it at 7 s, then degrade
#: every cross-site link for 4 s: 5% loss and 30 +- 10 ms extra delay.
SHARDED_FAULT_PLAN = FaultPlan(
    [
        Crash(at_ms=5_000.0, site_rank=1, shard=0),
        Restart(at_ms=7_000.0, site_rank=1, shard=0),
        FlakyLink(
            at_ms=10_000.0, until_ms=14_000.0, extra_delay_ms=20.0,
            jitter_ms=20.0, drop_probability=0.05,
        ),
    ]
)


def sharded_faults_job(seed: int) -> List[ExperimentConfig]:
    return [
        ExperimentConfig(
            protocol="tempo", num_sites=3, faults=1, num_shards=2,
            clients_per_site=16, conflict_rate=0.05, keys_per_command=2,
            payload_size=100, duration_ms=20_000.0, warmup_ms=500.0,
            seed=seed, fault_plan=SHARDED_FAULT_PLAN,
        )
    ]


@dataclass
class RunRecord:
    """What one simulated run leaves behind once its deployment is dropped."""

    protocol: str
    wall_s: float
    submitted: int
    completed: int
    latencies: List[float]
    stats: Dict[str, float]
    dropped: int
    end_ms: float
    reply_times: List[float]
    first_fault_ms: Optional[float]
    stores_agree: bool
    max_component: int = 0
    slow_dots: int = 0

    def signature(self) -> tuple:
        """Every figure that must repeat exactly for the same seed."""
        return (
            self.protocol, self.submitted, self.completed,
            tuple(sorted(self.latencies)), self.dropped,
            tuple(sorted(self.stats.items())),
        )


def _stores_agree(deployment) -> bool:
    """Replicas of one partition that are alive at the end hold equal stores."""
    by_partition: Dict[int, List[dict]] = collections.defaultdict(list)
    for process in deployment.processes:
        if process.alive:
            by_partition[process.partition].append(
                deployment.stores[process.process_id].snapshot()
            )
    return all(
        all(snapshot == snapshots[0] for snapshot in snapshots[1:])
        for snapshots in by_partition.values()
    )


def _run(config: ExperimentConfig, slow_dots: Optional[set] = None) -> RunRecord:
    """One simulated run, keeping only the figures the benchmark reports.

    Client reply times are observed through an untimed wrapper around
    ``ClosedLoopClient.on_reply``: one list append per reply.
    """
    reply_times: List[float] = []
    on_reply = ClosedLoopClient.on_reply

    def noting_reply(client, sender, message, now):
        completed = client.completed
        on_reply(client, sender, message, now)
        if client.completed != completed:
            reply_times.append(now)

    with Tracer() as hooks:
        hooks.replace(ClosedLoopClient, "on_reply", noting_reply)
        start = time.perf_counter()
        result = run_experiment(config)
        wall = time.perf_counter() - start
    deployment = result.deployment
    latencies: List[float] = []
    for histogram in result.per_site_latency.values():
        latencies.extend(histogram.samples())
    plan = config.compiled_fault_plan()
    record = RunRecord(
        protocol=config.protocol,
        wall_s=wall,
        submitted=result.submitted,
        completed=result.completed,
        latencies=latencies,
        stats=dict(result.stats),
        dropped=deployment.network.stats.messages_dropped,
        end_ms=deployment.simulation.stats.end_time,
        reply_times=reply_times,
        first_fault_ms=min(event.at_ms for event in plan) if plan else None,
        stores_agree=_stores_agree(deployment),
        max_component=max(
            (p.max_component_size() for p in deployment.processes
             if hasattr(p, "max_component_size")),
            default=0,
        ),
        slow_dots=len(slow_dots) if slow_dots is not None else 0,
    )
    return record


class _SetupDone(Exception):
    """Raised at the first event to end a set-up probe."""


def probe_setup(config: ExperimentConfig) -> float:
    """Seconds from calling ``run_experiment`` to its first simulated event:
    deployment, clients and fault injector are built, nothing has run."""

    def stop(simulation, until=None):
        raise _SetupDone

    with Tracer() as tracer:
        tracer.replace(Simulation, "run", stop)
        start = time.perf_counter()
        try:
            run_experiment(config)
        except _SetupDone:
            pass
        return time.perf_counter() - start


def _install_spans(tracer: Tracer, slow_dots: Dict[str, set]) -> None:
    """Wrap each layer's public entry points for a traced run."""
    tracer.span(Simulation, "run", "simulator")
    for protocol, cls in _PROCESS_CLASS.items():
        for method in ("deliver", "tick", "submit"):
            tracer.span(cls, method, f"{protocol}.{method}")
    tracer.span(DependencyGraphExecutor, "commit", "depgraph")
    tracer.span(DependencyGraphExecutor, "advance", "depgraph")
    tracer.span(KeyValueStore, "apply", "kvstore")
    tracer.span(ClosedLoopClient, "on_reply", "client")
    tracer.span(ClosedLoopClient, "start", "client")
    seen = set()
    for message_type in registered_types():
        for cls in message_type.__mro__:
            if "size_bytes" in vars(cls) and cls not in seen:
                seen.add(cls)
                tracer.span(cls, "size_bytes", "wiresize")

    def note_send(_result, process, destinations, message, now=0.0):
        for protocol, kind in _SLOW_PATH.items():
            if type(message) is kind:
                slow_dots[protocol].add(message.dot)

    tracer.hook(ProcessBase, "send", note_send)


@dataclass
class SimulatedWorkload:
    job: Callable[[int], List[ExperimentConfig]]

    def run(self, seed: int, seconds: float, trace: bool) -> Outcome:
        first = self.job(seed * 1000)[0]
        setup = statistics.median([probe_setup(first) for _ in range(SETUP_PROBES)])
        outcome = self._traced(seed) if trace else self._measured(seed, seconds)
        outcome.setup_build_s = setup
        return outcome

    # -- untraced: the end-to-end figures --------------------------------------

    def _measured(self, seed: int, seconds: float) -> Outcome:
        started = time.perf_counter()
        jobs: List[List[RunRecord]] = []
        while True:
            jobs.append([_run(config) for config in self.job(seed * 1000 + len(jobs))])
            elapsed = time.perf_counter() - started
            last = sum(record.wall_s for record in jobs[-1])
            if elapsed + last > seconds:
                break
        records = [record for job in jobs for record in job]
        wall = sum(record.wall_s for record in records)
        outcome = _outcome(jobs[0], records)
        outcome.end_to_end.update(
            ops_per_s=sum(r.completed for r in records) / wall,
            wall_s=statistics.median(sum(r.wall_s for r in job) for job in jobs),
        )
        outcome.notes.append(f"{len(jobs)} job(s), {len(records)} simulated run(s)")
        return outcome

    # -- traced: the per-layer figures ---------------------------------------------

    def _traced(self, seed: int) -> Outcome:
        configs = self.job(seed * 1000)
        # Reference: the same job untraced, with the execution-trace
        # checker attached (the certification); its check() time is left
        # out of the wall time the tracing overhead is measured against.
        with Tracer() as checker:
            checker.span(ExecutionTraceRecorder, "check", "check")
            try:
                reference = [
                    _run(dataclasses.replace(config, record_execution_trace=True))
                    for config in configs
                ]
            except AssertionError as violation:
                # run_experiment raises the checker's safety violations.
                failed = Outcome(attempted=1, failed=0)
                failed.fail(f"trace checker: {violation}")
                return failed
        reference_wall = sum(r.wall_s for r in reference) - checker.self_time("check")

        slow_dots: Dict[str, set] = {protocol: set() for protocol in _SLOW_PATH}
        with Tracer() as tracer:
            _install_spans(tracer, slow_dots)
            start = time.perf_counter()
            traced = [_run(config, slow_dots[config.protocol]) for config in configs]
            phase = time.perf_counter() - start

        outcome = _outcome(reference, reference)
        outcome.compare_repeat(
            [r.signature() for r in reference],
            [r.signature() for r in traced],
            "latencies, message counts or events",
        )
        outcome.per_layer.update(_layer_metrics(traced, tracer, phase, reference_wall))
        return outcome


def _outcome(first_job: List[RunRecord], records: List[RunRecord]) -> Outcome:
    """Counts, correctness and the informational end-to-end figures."""
    outcome = Outcome(
        attempted=sum(r.submitted for r in records),
        failed=sum(r.submitted - r.completed for r in records),
    )
    for record in records:
        if not record.stores_agree:
            outcome.fail(f"{record.protocol}: replicas alive at the end disagree")
    info = outcome.per_layer
    for protocol in sorted({r.protocol for r in first_job}):
        latencies = [l for r in first_job if r.protocol == protocol for l in r.latencies]
        info[f"{protocol}.p50_ms"] = percentile_or_zero(latencies, 50.0)
        info[f"{protocol}.p99_ms"] = percentile_or_zero(latencies, 99.0)
        info[f"{protocol}.p999_ms"] = percentile_or_zero(latencies, 99.9)
        info[f"{protocol}.samples"] = len(latencies)
    completed = sum(r.completed for r in first_job)
    info["bytes_per_op"] = sum(r.stats["bytes_sent"] for r in first_job) / completed
    submitted = sum(r.submitted for r in first_job)
    info["failed_ratio"] = (submitted - completed) / submitted
    info["outage_ms"] = max(_outage_ms(r) for r in first_job)
    kinds = {key[5:] for r in records for key in r.stats if key.startswith("sent:")}
    for kind in sorted(kinds - set(SENT_KINDS)):
        outcome.notes.append(f"message kind {kind} is sent but not in the catalogue")
    return outcome


def _outage_ms(record: RunRecord) -> float:
    """Longest gap without a client reply, from the first fault to the end
    of the run (0 for a run without faults)."""
    if record.first_fault_ms is None:
        return 0.0
    marks = [record.first_fault_ms]
    marks.extend(t for t in sorted(record.reply_times) if t > record.first_fault_ms)
    marks.append(record.end_ms)
    return max(b - a for a, b in zip(marks, marks[1:]))


def _layer_metrics(
    runs: List[RunRecord], tracer: Tracer, phase: float, reference_wall: float
) -> Dict[str, float]:
    calls = tracer.calls
    total = lambda key: sum(r.stats.get(key, 0.0) for r in runs)  # noqa: E731
    ops = sum(r.completed for r in runs)
    by_protocol = {p: [r for r in runs if r.protocol == p] for p in _SLOW_PATH}
    metrics: Dict[str, float] = {
        "simulator.self_s": tracer.self_time("simulator"),
        "simulator.events": total("events"),
        "simulator.heap_ops": total("heap_ops"),
        "network.msgs_per_op": total("messages_sent") / ops,
        "network.deliveries_per_op": total("deliveries") / ops,
        "network.dropped": sum(r.dropped for r in runs),
        "depgraph.s": tracer.self_time("depgraph"),
        "depgraph.max_component": max(
            (r.max_component for r in by_protocol["atlas"]), default=0
        ),
        "wiresize.s": tracer.self_time("wiresize"),
        "wiresize.calls": calls["wiresize"],
        "kvstore.apply_s": tracer.self_time("kvstore"),
        "kvstore.applies": calls["kvstore"],
        "gc.collected": total("gc_collected"),
        "gc.live_records": total("live_records"),
        "gc.peak_live_per_key": max(r.stats.get("peak_live_per_key", 0.0) for r in runs),
        "reliability.tracked": total("retransmit_tracked"),
        "reliability.resends": total("retransmit_resends"),
        "reliability.expired": total("retransmit_expired"),
        "repair.msgs": sum(total(f"sent:{kind}") for kind in REPAIR_KINDS),
        "client.s": tracer.self_time("client"),
    }
    for protocol, records in by_protocol.items():
        metrics[f"{protocol}.deliver_s"] = tracer.self_time(f"{protocol}.deliver")
        metrics[f"{protocol}.tick_s"] = tracer.self_time(f"{protocol}.tick")
        metrics[f"{protocol}.submit_s"] = tracer.self_time(f"{protocol}.submit")
        submitted = sum(r.submitted for r in records)
        metrics[f"{protocol}.fast_path_ratio"] = (
            1.0 - sum(r.slow_dots for r in records) / submitted if submitted else 0.0
        )
    tempo_ops = sum(r.completed for r in by_protocol["tempo"])
    tempo_sent = lambda kind: sum(r.stats.get(f"sent:{kind}", 0.0) for r in by_protocol["tempo"])  # noqa: E731
    metrics.update(
        {
            "tempo.deliveries": calls["tempo.deliver"],
            "tempo.ticks": calls["tempo.tick"],
            "tempo.commit_requests_per_op": tempo_sent("MCommitRequest") / tempo_ops,
            "tempo.mstable_per_op": tempo_sent("MStable") / tempo_ops,
        }
    )
    for kind in SENT_KINDS:
        metrics[f"sent.{kind}"] = total(f"sent:{kind}")
    metrics["trace.phase_s"] = phase
    metrics["other.s"] = phase - tracer.total_self_time()
    metrics["trace.overhead_ratio"] = phase / reference_wall - 1.0
    return metrics


RUNNERS = {
    "contended": SimulatedWorkload(contended_job).run,
    "sharded-faults": SimulatedWorkload(sharded_faults_job).run,
}
