"""The acknowledgement-driven GC floor in ``TempoProcess.compact()``.

With the reliable-delivery layer armed, ``compact()`` floors its stable
threshold at the minimum promise frontier the partition peers have
*acknowledged* absorbing — so the send-once promise optimisation can no
longer drop a promise a slow (or briefly disconnected) peer still needs.
Crashed peers stop acking, which pins the floor until they recover,
exactly like ``GcTracker``'s watermark pins collection.
"""

from __future__ import annotations

from repro.core.commands import Partitioner
from repro.core.config import ProtocolConfig
from repro.core.identifiers import Dot
from repro.core.messages import MCommit, MDeliveryAck
from repro.core.process import TempoProcess
from repro.reliability import RetransmitBuffer
from repro.simulator.inline import InlineNetwork

COMMIT_KIND = MCommit.wire_spec.kind


def _cluster(enable_reliability=True):
    config = ProtocolConfig(num_processes=3, faults=1)
    partitioner = Partitioner(1)
    # Watermark GC off: these tests target the epoch-1 compact() path.
    processes = [
        TempoProcess(process_id, config, partitioner=partitioner, watermark_gc=False)
        for process_id in range(3)
    ]
    if enable_reliability:
        for process in processes:
            process.enable_reliability(RetransmitBuffer(process.process_id))
    return processes, InlineNetwork(processes)


def _run_commands(processes, network, count=5):
    commands = []
    for index in range(count):
        process = processes[index % 3]
        command = process.new_command(["hot"])
        process.submit(command, 0.0)
        commands.append(command)
    network.settle(rounds=15)
    return commands


def _ack(target, sender, frontier):
    """Deliver a delivery-ack from ``sender`` carrying its promise frontier."""
    target.deliver(
        sender,
        MDeliveryAck(Dot(sender, 1), kind_id=COMMIT_KIND, epoch=0, frontier=frontier),
        0.0,
    )


class TestAckFloor:
    def test_unacked_peers_pin_the_floor_at_zero(self):
        processes, network = _cluster()
        target = processes[0]
        _run_commands(processes, network)
        # Forget everything the inline run acked; a floor of zero must
        # block both record compaction and promise collection outright.
        target._acked_frontiers = {1: 0, 2: 0}
        assert target.stable_timestamp() > 0
        assert target.compact() == 0
        before = target.tracker.detached() | {
            promise
            for dot in target.executed_dots()
            for promise in target.tracker.attached_for(dot)
        }
        assert before, "expected surviving promises under a zero floor"

    def test_floor_is_the_minimum_over_peers(self):
        processes, network = _cluster()
        target = processes[0]
        _run_commands(processes, network)
        stable = target.stable_timestamp()
        assert stable > 1
        # Peer 2 confirmed everything; peer 1 is stuck at frontier 1.
        target._acked_frontiers = {1: 0, 2: 0}
        _ack(target, 2, stable)
        _ack(target, 1, 1)
        target.compact()
        # Every record above the slow peer's frontier kept its payload.
        for record in target._info.values():
            timestamp = record.final_timestamp or record.timestamp
            if timestamp > 1:
                assert record.command is not None

    def test_full_acks_restore_normal_compaction(self):
        acked, acked_network = _cluster()
        plain, plain_network = _cluster(enable_reliability=False)
        _run_commands(acked, acked_network)
        _run_commands(plain, plain_network)
        stable = acked[0].stable_timestamp()
        for sender in (1, 2):
            _ack(acked[0], sender, stable)
        # With every peer caught up the floor is a no-op: same compaction
        # as a cluster that never armed reliability.
        assert acked[0].compact() == plain[0].compact()

    def test_crashed_peer_pins_the_floor_until_it_acks_again(self):
        processes, network = _cluster()
        target = processes[0]
        _run_commands(processes, network)
        stable = target.stable_timestamp()
        target._acked_frontiers = {1: 0, 2: 0}
        _ack(target, 2, stable)
        _ack(target, 1, 1)
        # Peer 1 crashes: no further acks arrive, so repeated compactions
        # keep every promise above its last confirmed frontier.
        processes[1].crash()
        assert target.compact() == target.compact() == target.compact()
        kept = {
            record.final_timestamp or record.timestamp
            for record in target._info.values()
            if record.command is not None
        }
        assert kept and min(kept) > 1
        # It recovers, catches up, and acks: the floor lifts.
        processes[1].recover_process()
        _ack(target, 1, stable)
        assert target.compact() > 0

    def test_ack_frontier_is_monotone(self):
        processes, network = _cluster()
        target = processes[0]
        _run_commands(processes, network)
        stable = target.stable_timestamp()
        target._acked_frontiers = {1: 0, 2: 0}
        _ack(target, 1, stable)
        _ack(target, 2, stable)
        # A late, reordered ack with an older frontier must not regress
        # the floor below what the peer already confirmed.
        _ack(target, 1, 1)
        assert target._acked_frontiers[1] == stable
        assert target.compact() > 0

    def test_reliability_disabled_keeps_the_legacy_behaviour(self):
        processes, network = _cluster(enable_reliability=False)
        target = processes[0]
        _run_commands(processes, network)
        assert target._acked_frontiers is None
        assert target.compact() > 0

    def test_enable_reliability_seeds_partition_peer_frontiers(self):
        processes, _ = _cluster()
        assert processes[0]._acked_frontiers == {1: 0, 2: 0}
        assert processes[2]._acked_frontiers == {0: 0, 1: 0}
