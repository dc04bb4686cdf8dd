"""Wire types: how one message field is written, read and sized.

A message's wire spec (:func:`repro.wire.codecs.wire_message`) pairs each
dataclass field with one of the :class:`WireType` constants below.  Each
type keeps its writer, reader and size function side by side, so a field
layout is defined exactly once and the encoder, the decoder and
``Message.size_bytes()`` cannot drift apart.

Collections are written sorted, which makes encoding *canonical*: equal
messages produce identical bytes.  ``Dot``s decode through
:func:`repro.core.identifiers.intern_dot`, so received identifiers are the
interned objects the rest of the system uses.  Readers reject values the
constructors would reject (dot sequences and promise timestamps below 1,
unknown phase or flag bytes) with :class:`~repro.wire.primitives.WireError`.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Mapping, NamedTuple, Optional, Tuple

from repro.core.commands import Command, KeyOp, OpKind
from repro.core.identifiers import Dot, intern_dot
from repro.core.phases import Phase
from repro.core.promises import Promise, PromiseRangeWire
from repro.wire.primitives import (
    Reader,
    WireError,
    optional_string_size,
    string_size,
    svarint_size,
    uvarint_size,
    write_optional_string,
    write_string,
    write_svarint,
    write_uvarint,
)


class WireType(NamedTuple):
    """The three views of one field layout."""

    write: Callable[[bytearray, object], None]
    read: Callable[[Reader], object]
    size: Callable[[object], int]


UVARINT = WireType(write_uvarint, Reader.read_uvarint, uvarint_size)
SVARINT = WireType(write_svarint, Reader.read_svarint, svarint_size)


def _write_bool(buf: bytearray, value: bool) -> None:
    buf.append(1 if value else 0)


BOOL = WireType(_write_bool, Reader.read_bool, lambda value: 1)


# -- dot: uvarint(source) uvarint(sequence >= 1) ------------------------------


def _write_dot(buf: bytearray, dot: Dot) -> None:
    write_uvarint(buf, dot.source)
    write_uvarint(buf, dot.sequence)


def _read_dot(reader: Reader) -> Dot:
    source = reader.read_uvarint()
    sequence = reader.read_uvarint()
    if sequence < 1:
        raise WireError(f"dot sequence must be >= 1, got {sequence}")
    return intern_dot(source, sequence)


def _dot_size(dot: Dot) -> int:
    return uvarint_size(dot.source) + uvarint_size(dot.sequence)


DOT = WireType(_write_dot, _read_dot, _dot_size)


# -- dot set: uvarint(count) + sorted dots ------------------------------------


def _write_dot_set(buf: bytearray, dots: FrozenSet[Dot]) -> None:
    write_uvarint(buf, len(dots))
    for dot in sorted(dots):
        _write_dot(buf, dot)


def _read_dot_set(reader: Reader) -> FrozenSet[Dot]:
    count = reader.read_uvarint()
    return frozenset(_read_dot(reader) for _ in range(count))


def _dot_set_size(dots: FrozenSet[Dot]) -> int:
    size = uvarint_size(len(dots))
    for dot in dots:
        size += uvarint_size(dot.source) + uvarint_size(dot.sequence)
    return size


DOT_SET = WireType(_write_dot_set, _read_dot_set, _dot_set_size)


# -- command: dot, ops, payload bytes, optional client id ---------------------


def _write_command(buf: bytearray, command: Command) -> None:
    _write_dot(buf, command.dot)
    write_uvarint(buf, len(command.ops))
    for op in command.ops:
        write_string(buf, op.key)
        buf.append(1 if op.kind is OpKind.WRITE else 0)
        write_optional_string(buf, op.value)
    # The modeled application payload really rides the wire: size-many
    # opaque bytes (zeros here; the simulator never inspects payloads).
    write_uvarint(buf, command.payload_size)
    buf += bytes(command.payload_size)
    if command.client_id is None:
        buf.append(0)
    else:
        buf.append(1)
        write_svarint(buf, command.client_id)


def _read_command(reader: Reader) -> Command:
    dot = _read_dot(reader)
    num_ops = reader.read_uvarint()
    if num_ops == 0:
        raise WireError("command with zero operations")
    ops = []
    for _ in range(num_ops):
        key = reader.read_string()
        kind_byte = reader.read_byte()
        if kind_byte > 1:
            raise WireError(f"invalid op-kind byte {kind_byte}")
        value = reader.read_optional_string()
        ops.append(
            KeyOp(key=key, kind=OpKind.WRITE if kind_byte else OpKind.READ, value=value)
        )
    payload_size = reader.read_uvarint()
    reader.skip(payload_size)
    client_flag = reader.read_byte()
    if client_flag > 1:
        raise WireError(f"invalid client-id flag {client_flag}")
    client_id = reader.read_svarint() if client_flag else None
    return Command(
        dot=dot, ops=tuple(ops), payload_size=payload_size, client_id=client_id
    )


def _command_size(command: Command) -> int:
    size = _dot_size(command.dot) + uvarint_size(len(command.ops))
    for op in command.ops:
        size += string_size(op.key) + 1 + optional_string_size(op.value)
    size += uvarint_size(command.payload_size) + command.payload_size
    if command.client_id is None:
        return size + 1
    return size + 1 + svarint_size(command.client_id)


COMMAND = WireType(_write_command, _read_command, _command_size)


# -- quorums: uvarint(count) + sorted (partition, member list) ----------------


def _write_quorums(buf: bytearray, quorums: Mapping[int, Tuple[int, ...]]) -> None:
    write_uvarint(buf, len(quorums))
    for partition in sorted(quorums):
        write_uvarint(buf, partition)
        members = quorums[partition]
        write_uvarint(buf, len(members))
        for member in members:
            write_uvarint(buf, member)


def _read_quorums(reader: Reader) -> Dict[int, Tuple[int, ...]]:
    count = reader.read_uvarint()
    quorums: Dict[int, Tuple[int, ...]] = {}
    for _ in range(count):
        partition = reader.read_uvarint()
        members = reader.read_uvarint()
        quorums[partition] = tuple(reader.read_uvarint() for _ in range(members))
    return quorums


def _quorums_size(quorums: Mapping[int, Tuple[int, ...]]) -> int:
    size = uvarint_size(len(quorums))
    for partition, members in quorums.items():
        size += uvarint_size(partition) + uvarint_size(len(members))
        for member in members:
            size += uvarint_size(member)
    return size


QUORUMS = WireType(_write_quorums, _read_quorums, _quorums_size)


# -- promise set: uvarint(count) + sorted (process, timestamp >= 1) -----------


def _write_promise_set(buf: bytearray, promises: FrozenSet[Promise]) -> None:
    write_uvarint(buf, len(promises))
    for promise in sorted(promises):
        write_uvarint(buf, promise.process)
        write_uvarint(buf, promise.timestamp)


def _read_promise_set(reader: Reader) -> FrozenSet[Promise]:
    count = reader.read_uvarint()
    promises = []
    for _ in range(count):
        process = reader.read_uvarint()
        timestamp = reader.read_uvarint()
        if timestamp < 1:
            raise WireError(f"promise timestamp must be >= 1, got {timestamp}")
        promises.append(Promise(process, timestamp))
    return frozenset(promises)


def _promise_set_size(promises: FrozenSet[Promise]) -> int:
    size = uvarint_size(len(promises))
    for promise in promises:
        size += uvarint_size(promise.process) + uvarint_size(promise.timestamp)
    return size


PROMISE_SET = WireType(_write_promise_set, _read_promise_set, _promise_set_size)


# -- promise ranges: uvarint(count) + sorted (process, spans as (lo, hi - lo))


def _write_range_wire(buf: bytearray, wire: PromiseRangeWire) -> None:
    write_uvarint(buf, len(wire))
    for process in sorted(wire):
        spans = wire[process]
        write_uvarint(buf, process)
        write_uvarint(buf, len(spans))
        for lo, hi in spans:
            if hi < lo or lo < 1:
                raise WireError(f"invalid promise range ({lo}, {hi})")
            write_uvarint(buf, lo)
            write_uvarint(buf, hi - lo)


def _read_range_wire(reader: Reader) -> Dict[int, Tuple[Tuple[int, int], ...]]:
    count = reader.read_uvarint()
    wire: Dict[int, Tuple[Tuple[int, int], ...]] = {}
    for _ in range(count):
        process = reader.read_uvarint()
        num_spans = reader.read_uvarint()
        spans = []
        for _ in range(num_spans):
            lo = reader.read_uvarint()
            if lo < 1:
                raise WireError(f"promise range starts at {lo}, must be >= 1")
            width = reader.read_uvarint()
            spans.append((lo, lo + width))
        wire[process] = tuple(spans)
    return wire


def _range_wire_size(wire: PromiseRangeWire) -> int:
    size = uvarint_size(len(wire))
    for process, spans in wire.items():
        size += uvarint_size(process) + uvarint_size(len(spans))
        for lo, hi in spans:
            size += uvarint_size(lo) + uvarint_size(hi - lo)
    return size


RANGE_WIRE = WireType(_write_range_wire, _read_range_wire, _range_wire_size)


# -- attached map: uvarint(count) + sorted (dot, promise set) -----------------


def _write_attached_map(
    buf: bytearray, attached: Mapping[Dot, FrozenSet[Promise]]
) -> None:
    write_uvarint(buf, len(attached))
    for dot in sorted(attached):
        _write_dot(buf, dot)
        _write_promise_set(buf, attached[dot])


def _read_attached_map(reader: Reader) -> Dict[Dot, FrozenSet[Promise]]:
    count = reader.read_uvarint()
    attached: Dict[Dot, FrozenSet[Promise]] = {}
    for _ in range(count):
        dot = _read_dot(reader)
        attached[dot] = _read_promise_set(reader)
    return attached


def _attached_map_size(attached: Mapping[Dot, FrozenSet[Promise]]) -> int:
    size = uvarint_size(len(attached))
    for dot, promises in attached.items():
        size += _dot_size(dot) + _promise_set_size(promises)
    return size


ATTACHED_MAP = WireType(_write_attached_map, _read_attached_map, _attached_map_size)


# -- clock map: uvarint(count) + sorted (source, frontier) --------------------


def _write_clock_map(buf: bytearray, clock: Mapping[int, int]) -> None:
    write_uvarint(buf, len(clock))
    for source in sorted(clock):
        write_uvarint(buf, source)
        write_uvarint(buf, clock[source])


def _read_clock_map(reader: Reader) -> Dict[int, int]:
    count = reader.read_uvarint()
    clock: Dict[int, int] = {}
    for _ in range(count):
        source = reader.read_uvarint()
        clock[source] = reader.read_uvarint()
    return clock


def _clock_map_size(clock: Mapping[int, int]) -> int:
    size = uvarint_size(len(clock))
    for source, frontier in clock.items():
        size += uvarint_size(source) + uvarint_size(frontier)
    return size


CLOCK_MAP = WireType(_write_clock_map, _read_clock_map, _clock_map_size)


# -- result: presence flag + uvarint(count) + sorted (key, optional value) ----


def _write_result(
    buf: bytearray, result: Optional[Mapping[str, Optional[str]]]
) -> None:
    if result is None:
        buf.append(0)
        return
    buf.append(1)
    write_uvarint(buf, len(result))
    for key in sorted(result):
        write_string(buf, key)
        write_optional_string(buf, result[key])


def _read_result(reader: Reader) -> Optional[Dict[str, Optional[str]]]:
    flag = reader.read_byte()
    if flag == 0:
        return None
    if flag != 1:
        raise WireError(f"invalid result flag {flag}")
    count = reader.read_uvarint()
    result: Dict[str, Optional[str]] = {}
    for _ in range(count):
        key = reader.read_string()
        result[key] = reader.read_optional_string()
    return result


def _result_size(result: Optional[Mapping[str, Optional[str]]]) -> int:
    if result is None:
        return 1
    size = 1 + uvarint_size(len(result))
    for key, value in result.items():
        size += string_size(key) + optional_string_size(value)
    return size


RESULT = WireType(_write_result, _read_result, _result_size)


# -- phase: one byte from a stable table (wire order, never reordered) --------

_PHASE_TO_BYTE: Dict[Phase, int] = {
    Phase.START: 0,
    Phase.PAYLOAD: 1,
    Phase.PROPOSE: 2,
    Phase.RECOVER_R: 3,
    Phase.RECOVER_P: 4,
    Phase.COMMIT: 5,
    Phase.EXECUTE: 6,
}
_BYTE_TO_PHASE: Dict[int, Phase] = {byte: phase for phase, byte in _PHASE_TO_BYTE.items()}


def _write_phase(buf: bytearray, phase: Phase) -> None:
    buf.append(_PHASE_TO_BYTE[phase])


def _read_phase(reader: Reader) -> Phase:
    byte = reader.read_byte()
    phase = _BYTE_TO_PHASE.get(byte)
    if phase is None:
        raise WireError(f"unknown phase byte {byte}")
    return phase


PHASE = WireType(_write_phase, _read_phase, lambda phase: 1)


# -- Caesar's (clock, process) timestamp pair: two signed varints -------------


def _write_ts_pair(buf: bytearray, timestamp: Tuple[int, int]) -> None:
    write_svarint(buf, timestamp[0])
    write_svarint(buf, timestamp[1])


def _read_ts_pair(reader: Reader) -> Tuple[int, int]:
    return (reader.read_svarint(), reader.read_svarint())


def _ts_pair_size(timestamp: Tuple[int, int]) -> int:
    return svarint_size(timestamp[0]) + svarint_size(timestamp[1])


TS_PAIR = WireType(_write_ts_pair, _read_ts_pair, _ts_pair_size)
