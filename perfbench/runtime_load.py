"""The ``runtime`` workload: Tempo on the asyncio ``AsyncCluster``.

Three replicas (f=1) ship every message as an encoded wire frame and are
driven by eight closed-loop client coroutines in the same process, each
waiting for its reply before submitting the next command.  There is no
injected delay, so latency is processor time plus the 5 ms tick cadence.

The measured phase is a warm-up batch and then one batch of
:data:`BATCH_OPS` ops per second of the run's budget (half of them traced
in a traced run), so the work, and with it the memory, does not depend on
how fast the machine is.  ``ops_per_s`` is all measured ops over the wall
time of all measured batches.
"""

from __future__ import annotations

import asyncio
import collections
import statistics
import time
from typing import Deque, Dict, List, Optional

from perfbench.report import Outcome, percentile_or_zero
from perfbench.tracing import Tracer
from repro.core.base import ProcessBase
from repro.core.messages import MConsensus
from repro.core.process import TempoProcess
from repro.runtime import channel as channel_module
from repro.runtime.channel import Channel
from repro.runtime.cluster import AsyncCluster, AsyncClusterOptions
from repro.simulator.rng import SeededRng
from repro.workloads.micro import MicroWorkload

CLIENTS = 8
REPLICAS = 3
BATCH_OPS = 1_000
WARMUP_OPS = 500
OP_TIMEOUT_S = 5.0
SETUP_PROBES = 5
QUIESCE_TIMEOUT_S = 10.0


def _options() -> AsyncClusterOptions:
    return AsyncClusterOptions(
        protocol="tempo", num_processes=REPLICAS, faults=1, wire_bytes=True
    )


class _Load:
    """Closed-loop clients with per-client key streams made from the seed."""

    def __init__(self, cluster: AsyncCluster, seed: int) -> None:
        self.cluster = cluster
        self.workloads = [
            MicroWorkload(
                client_id=client, conflict_rate=0.15, payload_size=100,
                rng=SeededRng(seed * 10_007 + client),
            )
            for client in range(CLIENTS)
        ]
        self.submitted = 0
        self.failed = 0

    async def batch(self, ops: int, latencies: List[float]) -> float:
        """Run ``ops`` commands; returns the batch's wall seconds."""
        issued = 0

        async def client(index: int) -> None:
            nonlocal issued
            workload = self.workloads[index]
            while issued < ops:
                issued += 1
                keys = workload.next_keys()
                start = time.perf_counter()
                self.submitted += 1
                try:
                    await self.cluster.submit(
                        keys, process_id=index % REPLICAS, payload_size=100,
                        timeout=OP_TIMEOUT_S,
                    )
                except asyncio.TimeoutError:
                    self.failed += 1
                    continue
                latencies.append((time.perf_counter() - start) * 1000.0)

        start = time.perf_counter()
        await asyncio.gather(*(client(index) for index in range(CLIENTS)))
        return time.perf_counter() - start


async def _probe_setup() -> float:
    """Seconds to build and start a cluster, up to the point it takes ops."""
    start = time.perf_counter()
    cluster = AsyncCluster(_options())
    await cluster.start()
    elapsed = time.perf_counter() - start
    await cluster.stop()
    return elapsed


async def _quiesce(cluster: AsyncCluster, submitted: int) -> bool:
    """Wait until every replica executed every submitted command."""
    deadline = time.perf_counter() + QUIESCE_TIMEOUT_S
    while time.perf_counter() < deadline:
        if all(count == submitted for count in cluster.executed_counts().values()):
            return True
        await asyncio.sleep(0.01)
    return False


class _QueueWaits:
    """Pairs each ``Channel.put`` with its ``Channel.get``, FIFO per channel."""

    def __init__(self, cluster: AsyncCluster) -> None:
        self.enqueued: Dict[int, Deque[Optional[float]]] = collections.defaultdict(collections.deque)
        self.waits_ms: List[float] = []
        # Messages already queued when tracing starts have no send time.
        for endpoint in list(range(REPLICAS)) + [-1]:
            queue = cluster.router.channel(endpoint).queue
            self.enqueued[endpoint].extend([None] * queue.qsize())

    def install(self, tracer: Tracer) -> None:
        clock = time.perf_counter
        enqueued = self.enqueued
        waits = self.waits_ms

        def before_put(channel, *_args) -> None:
            enqueued[channel.endpoint].append(clock())

        def after_get(_result, channel) -> None:
            pending = enqueued[channel.endpoint]
            sent = pending.popleft() if pending else None
            if sent is not None:
                waits.append((clock() - sent) * 1000.0)

        tracer.async_hook(Channel, "put", before=before_put)
        tracer.async_hook(Channel, "get", after=after_get)


def _install_spans(tracer: Tracer, cluster: AsyncCluster, slow_dots: set) -> None:
    for method in ("deliver", "tick", "submit"):
        tracer.span(TempoProcess, method, f"tempo.{method}")
    # The processes were built holding bound ``KeyValueStore.apply``
    # methods, so the store's span goes on each process's reference.
    for process in cluster.processes:
        tracer.span(process, "apply_fn", "kvstore")
    tracer.span(channel_module, "encode_frame", "codec.encode")
    tracer.span(channel_module, "decode_frame", "codec.decode")
    tracer.span(MicroWorkload, "next_keys", "client")

    def note_send(_result, process, destinations, message, now=0.0):
        if type(message) is MConsensus:
            slow_dots.add(message.dot)

    tracer.hook(ProcessBase, "send", note_send)


async def _main(seed: int, seconds: float, trace: bool) -> Outcome:
    setup = statistics.median([await _probe_setup() for _ in range(SETUP_PROBES)])
    cluster = AsyncCluster(_options())
    outcome = Outcome(attempted=0, failed=0, setup_build_s=setup)
    async with cluster:
        load = _Load(cluster, seed)
        await load.batch(WARMUP_OPS, [])
        batches = max(1, round(seconds / 2 if trace else seconds))
        latencies: List[float] = []
        walls: List[float] = []
        bytes_before = cluster.router.bytes_shipped
        for _ in range(batches):
            walls.append(await load.batch(BATCH_OPS, latencies))
        measured_ops = len(walls) * BATCH_OPS
        bytes_per_op = (cluster.router.bytes_shipped - bytes_before) / measured_ops
        traced_walls: List[float] = []
        if trace:
            tracer = Tracer()
            slow_dots: set = set()
            waits = _QueueWaits(cluster)
            bytes_before = cluster.router.bytes_shipped
            traced_from = load.submitted
            with tracer:
                _install_spans(tracer, cluster, slow_dots)
                waits.install(tracer)
                started = time.perf_counter()
                for _ in range(batches):
                    traced_walls.append(await load.batch(BATCH_OPS, []))
                phase = time.perf_counter() - started
            traced_ops = load.submitted - traced_from
            traced_bytes = cluster.router.bytes_shipped - bytes_before
        executed = await _quiesce(cluster, load.submitted)
        agree = cluster.stores_agree()
        footprints = [process.memory_footprint() for process in cluster.processes]

    outcome.attempted = load.submitted
    outcome.failed = load.failed
    if not executed:
        outcome.fail("replicas did not execute every submitted command")
    if not agree:
        outcome.fail("replica stores disagree (stores_agree() is false)")
    outcome.end_to_end.update(
        ops_per_s=measured_ops / sum(walls),
        wall_s=sum(walls) / len(walls),
    )
    outcome.notes.append(f"{len(walls)} untraced batch(es) of {BATCH_OPS} ops")
    info = outcome.per_layer
    info.update(
        {
            "tempo.p50_ms": percentile_or_zero(latencies, 50.0),
            "tempo.p99_ms": percentile_or_zero(latencies, 99.0),
            "tempo.p999_ms": percentile_or_zero(latencies, 99.9),
            "tempo.samples": len(latencies),
            "bytes_per_op": bytes_per_op,
            "failed_ratio": load.failed / load.submitted,
            "gc.collected": sum(f["gc_collected"] for f in footprints),
            "gc.live_records": sum(f["records"] for f in footprints),
            "gc.peak_live_per_key": max(f["peak_live_per_key"] for f in footprints),
        }
    )
    if trace:
        calls = tracer.calls
        spans = tracer.total_self_time()
        frames = calls["codec.encode"]
        info.update(
            {
                "tempo.deliver_s": tracer.self_time("tempo.deliver"),
                "tempo.tick_s": tracer.self_time("tempo.tick"),
                "tempo.submit_s": tracer.self_time("tempo.submit"),
                "tempo.deliveries": calls["tempo.deliver"],
                "tempo.ticks": calls["tempo.tick"],
                "tempo.fast_path_ratio": 1.0 - len(slow_dots) / traced_ops,
                "codec.encode_s": tracer.self_time("codec.encode"),
                "codec.decode_s": tracer.self_time("codec.decode"),
                "codec.frames": frames,
                "codec.bytes_per_frame": traced_bytes / frames if frames else 0.0,
                # The event loop is the root of the traced phase: whatever
                # no span covers is loop, coroutine and channel time.
                "runtime.loop_s": phase - spans,
                "runtime.queue_wait_ms": percentile_or_zero(waits.waits_ms, 50.0),
                "runtime.ticks_per_op": calls["tempo.tick"] / traced_ops,
                "kvstore.apply_s": tracer.self_time("kvstore"),
                "kvstore.applies": calls["kvstore"],
                "client.s": tracer.self_time("client"),
                "other.s": 0.0,
                "trace.phase_s": phase,
                "trace.overhead_ratio": sum(traced_walls) / sum(walls) - 1.0,
            }
        )
    return outcome


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    return asyncio.run(_main(seed, seconds, trace))


RUNNERS = {"runtime": run}
