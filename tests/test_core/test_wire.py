"""Wire-format tests: exhaustiveness gate, round-trips, fuzzing, corruption.

Three layers of guarantee:

* **Exhaustiveness** — every :class:`~repro.core.messages.Message` subclass
  defined in :mod:`repro.core.messages` and
  :mod:`repro.protocols.dep_messages` has a registered codec and a sample,
  so a new message kind cannot ship without a wire format.
* **Round-trip** — ``decode(encode(m)) == m`` for every kind, on canonical
  samples and on hypothesis-generated instances (randomised commands,
  dots, promise interval maps, nested ``MBatch`` envelopes).
* **Rejection** — truncated frames, trailing garbage, unknown kind bytes
  and corrupt varints raise :class:`~repro.wire.WireError`, never a random
  exception or a bogus message.

Plus the source gate: ``struct`` (and any hand-rolled binary packing) must
not leak outside ``repro/wire/`` — mirrors ``test_scheduler_api.py``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.core.messages as core_messages
import repro.protocols.dep_messages as dep_messages
from repro.core.base import MBatch
from repro.core.commands import Command, KeyOp, OpKind
from repro.core.identifiers import Dot, intern_dot
from repro.core.messages import (
    ClientReply,
    MBump,
    MCommit,
    Message,
    MPromises,
    MPropose,
    MProposeAck,
    TEMPO_MESSAGE_TYPES,
)
from repro.core.promises import Promise
from repro.protocols.dep_messages import DEP_MESSAGE_TYPES, MCaesarProposeAck
from repro.wire import (
    TYPE_TO_KIND,
    WireError,
    decode,
    decode_frame,
    encode,
    encode_frame,
    encoded_size,
    has_codec,
    registered_types,
    sample_messages,
    wire_message,
)
from repro.wire.fields import SVARINT

def _message_classes():
    """Every concrete Message subclass defined in the two message modules."""
    classes = []
    for module in (core_messages, dep_messages):
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if (
                issubclass(obj, Message)
                and obj is not Message
                and obj.__module__ == module.__name__
            ):
                classes.append(obj)
    return classes


class TestExhaustiveness:
    def test_every_message_subclass_has_a_codec(self):
        missing = [
            cls.__name__ for cls in _message_classes() if not has_codec(cls)
        ]
        assert not missing, (
            f"message kinds without a wire codec: {missing} — declare their "
            "wire spec with @wire_message and add a sample"
        )

    def test_batch_envelope_has_a_codec(self):
        assert has_codec(MBatch)

    def test_every_registered_kind_has_a_sample(self):
        samples = sample_messages()
        sampled = {type(message) for message in samples.values()}
        missing = [
            cls.__name__ for cls in registered_types() if cls not in sampled
        ]
        assert not missing, f"registered kinds without a sample: {missing}"

    def test_type_tuples_match_the_registry(self):
        registered = set(registered_types())
        for cls in TEMPO_MESSAGE_TYPES + DEP_MESSAGE_TYPES:
            assert cls in registered

    def test_kind_bytes_are_stable(self):
        # The registry is append-only: re-numbering breaks any stored or
        # in-flight frame.  Spot-check anchors across the id space.
        assert TYPE_TO_KIND[MBatch] == 0
        assert TYPE_TO_KIND[core_messages.MSubmit] == 1
        assert TYPE_TO_KIND[core_messages.ClientReply] == 16
        assert TYPE_TO_KIND[dep_messages.MPreAccept] == 17
        assert TYPE_TO_KIND[dep_messages.MJanusDeps] == 31
        assert TYPE_TO_KIND[core_messages.MPromiseResync] == 32
        assert TYPE_TO_KIND[core_messages.MExecutedClock] == 33
        assert TYPE_TO_KIND[core_messages.MDeliveryAck] == 34
        assert TYPE_TO_KIND[core_messages.MStableRequest] == 35
        assert len(TYPE_TO_KIND) == 36

    def test_codec_exhaustiveness_lint_agrees(self):
        # The same closure properties, as enforced repo-wide by
        # ``python -m repro.analysis.lint``.
        from repro.analysis.lint import codec_exhaustiveness_findings

        assert not [str(finding) for finding in codec_exhaustiveness_findings()]


class TestSpecRegistration:
    def test_spec_must_name_the_dataclass_fields_in_order(self):
        # A field without a wire entry would otherwise be silently dropped
        # from every frame; a reordered spec would swap fields on decode.
        with pytest.raises(TypeError, match="differ from the dataclass fields"):

            @wire_message(200, ballot=SVARINT)
            @dataclass(frozen=True)
            class MUnlisted(Message):
                ballot: int
                extra: int = 0

        with pytest.raises(TypeError, match="differ from the dataclass fields"):

            @wire_message(200, slot=SVARINT, ballot=SVARINT)
            @dataclass(frozen=True)
            class MReordered(Message):
                ballot: int
                slot: int

        assert 200 not in TYPE_TO_KIND.values()

    def test_kind_bytes_cannot_be_reused(self):
        with pytest.raises(ValueError, match="duplicate codec registration"):

            @wire_message(TYPE_TO_KIND[MBump], timestamp=SVARINT)
            @dataclass(frozen=True)
            class MBumpTwin(Message):
                timestamp: int

        assert len(TYPE_TO_KIND) == 36


class TestRoundTrip:
    @pytest.mark.parametrize(
        "kind", sorted(sample_messages()), ids=lambda kind: kind
    )
    def test_sample_round_trips(self, kind):
        message = sample_messages()[kind]
        assert decode(encode(message)) == message
        decoded, offset = decode_frame(encode_frame(message))
        assert decoded == message
        assert offset == len(encode_frame(message)) == encoded_size(message)

    def test_message_encoded_size_method(self):
        message = sample_messages()["MCommit"]
        assert message.encoded_size() == encoded_size(message)

    def test_consecutive_frames_decode_by_offset(self):
        samples = sample_messages()
        messages = [samples["MPropose"], samples["MStable"], samples["MBatch"]]
        data = b"".join(encode_frame(message) for message in messages)
        offset = 0
        decoded = []
        while offset < len(data):
            message, offset = decode_frame(data, offset)
            decoded.append(message)
        assert decoded == messages

    def test_dots_decode_interned(self):
        # Identity holds for densely-allocated dots (the intern table is
        # filled in sequence order, like a real process allocating ids).
        for sequence in range(1, 10):
            intern_dot(40, sequence)
        message = decode(encode(MBump(dot=intern_dot(40, 9), timestamp=5)))
        assert message.dot is intern_dot(40, 9)


# -- hypothesis strategies ------------------------------------------------------

_keys = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=0x2FF), min_size=1, max_size=12
)
_dots = st.builds(
    intern_dot,
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=1, max_value=2**40),
)
_key_ops = st.builds(
    KeyOp,
    key=_keys,
    kind=st.sampled_from(OpKind),
    value=st.one_of(st.none(), _keys),
)
_commands = st.builds(
    Command,
    dot=_dots,
    ops=st.lists(_key_ops, min_size=1, max_size=4, unique_by=lambda op: op.key).map(tuple),
    payload_size=st.integers(min_value=0, max_value=4096),
    client_id=st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)),
)
_spans = st.tuples(
    st.integers(min_value=1, max_value=2**32), st.integers(min_value=0, max_value=2**16)
).map(lambda pair: (pair[0], pair[0] + pair[1]))
_range_wires = st.dictionaries(
    st.integers(min_value=0, max_value=32),
    st.lists(_spans, min_size=1, max_size=4).map(tuple),
    max_size=4,
)
_promises = st.builds(
    Promise,
    st.integers(min_value=0, max_value=32),
    st.integers(min_value=1, max_value=2**40),
)
_promise_sets = st.frozensets(_promises, max_size=6)


class TestFuzzRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(command=_commands)
    def test_commands_round_trip(self, command):
        message = MPropose(
            dot=command.dot, command=command, quorums={0: (0, 1, 2)}, timestamp=17
        )
        assert decode(encode(message)) == message

    @settings(max_examples=60, deadline=None)
    @given(dot=_dots, attached=_promise_sets, detached=_range_wires)
    def test_promise_payloads_round_trip(self, dot, attached, detached):
        ack = MProposeAck(dot=dot, timestamp=3, attached=attached, detached=detached)
        commit = MCommit(
            dot=dot, timestamp=9, partition=1, attached=attached, detached=detached
        )
        assert decode(encode(ack)) == ack
        assert decode(encode(commit)) == commit

    @settings(max_examples=40, deadline=None)
    @given(
        dot=_dots,
        detached=_range_wires,
        attached=st.dictionaries(_dots, _promise_sets, max_size=3),
        committed=st.frozensets(_dots, max_size=4),
    )
    def test_promise_broadcast_round_trips(self, dot, detached, attached, committed):
        message = MPromises(
            dot=dot, detached=detached, attached=attached, committed=committed
        )
        assert decode(encode(message)) == message

    @settings(max_examples=40, deadline=None)
    @given(
        dot=_dots,
        timestamp=st.tuples(
            st.integers(min_value=0, max_value=2**40),
            st.integers(min_value=0, max_value=64),
        ),
        dependencies=st.frozensets(_dots, max_size=5),
        accepted=st.booleans(),
    )
    def test_baseline_messages_round_trip(self, dot, timestamp, dependencies, accepted):
        message = MCaesarProposeAck(
            dot=dot, timestamp=timestamp, dependencies=dependencies, accepted=accepted
        )
        assert decode(encode(message)) == message

    @settings(max_examples=40, deadline=None)
    @given(
        result=st.one_of(
            st.none(),
            st.dictionaries(_keys, st.one_of(st.none(), _keys), max_size=4),
        ),
        dot=_dots,
    )
    def test_client_reply_round_trips(self, result, dot):
        message = ClientReply(dot=dot, result=result)
        assert decode(encode(message)) == message

    @settings(max_examples=30, deadline=None)
    @given(
        inner=st.lists(
            st.sampled_from(sorted(sample_messages())), min_size=1, max_size=6
        )
    )
    def test_batches_round_trip(self, inner):
        samples = sample_messages()
        batch = MBatch(tuple(samples[kind] for kind in inner))
        assert decode(encode(batch)) == batch

    def test_nested_batches_round_trip(self):
        samples = sample_messages()
        inner = MBatch((samples["MStable"], samples["MConsensusAck"]))
        outer = MBatch((samples["MCommit"], inner, samples["MBump"]))
        assert decode(encode(outer)) == outer


class TestRejection:
    def test_every_truncation_is_rejected(self):
        # Chop the frame at every possible length: each prefix must raise
        # WireError (decode_frame never returns a message from a short buffer).
        frame = encode_frame(sample_messages()["MPropose"])
        for cut in range(len(frame)):
            with pytest.raises(WireError):
                decode_frame(frame[:cut])

    def test_trailing_garbage_is_rejected(self):
        payload = encode(sample_messages()["MStable"])
        with pytest.raises(WireError):
            decode(payload + b"\x00")

    def test_unknown_kind_byte_is_rejected(self):
        with pytest.raises(WireError):
            decode(bytes([255]))

    def test_corrupt_varint_is_rejected(self):
        # 10 continuation bytes: longer than any valid uvarint.
        with pytest.raises(WireError):
            decode(bytes([TYPE_TO_KIND[MBump]]) + b"\x80" * 11)

    def test_empty_buffer_is_rejected(self):
        with pytest.raises(WireError):
            decode(b"")
        with pytest.raises(WireError):
            decode_frame(b"")

    def test_invalid_promise_range_is_rejected(self):
        message = MCommit(dot=intern_dot(0, 1), timestamp=2, detached={0: ((0, 4),)})
        with pytest.raises(WireError):
            encode(message)

    def test_bitflips_never_escape_wireerror(self):
        # Corruption may still decode to a *different* valid message (no
        # checksum in the frame), but it must never raise anything other
        # than WireError.
        frame = encode_frame(sample_messages()["MProposeAck"])
        for position in range(len(frame)):
            for bit in (0x01, 0x80):
                corrupt = bytearray(frame)
                corrupt[position] ^= bit
                try:
                    decode_frame(bytes(corrupt))
                except WireError:
                    pass


def test_struct_stays_inside_the_wire_package():
    # struct/binary packing is a wire concern: everything outside
    # ``repro/wire/`` talks in message objects and lets the codecs do
    # bytes.  Enforced by the import-aware ``struct-outside-wire`` lint
    # (also run repo-wide via ``python -m repro.analysis.lint`` in CI).
    from repro.analysis.lint import struct_import_findings

    offenders = [str(finding) for finding in struct_import_findings()]
    assert not offenders, (
        "struct imported outside repro/wire/ — binary packing belongs to "
        "the codec layer:\n" + "\n".join(offenders)
    )
