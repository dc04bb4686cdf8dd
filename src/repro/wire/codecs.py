"""Spec-driven binary codecs for every protocol message.

Each message class declares its wire layout once, with :func:`wire_message`:
its kind byte and its dataclass fields in declaration order, each paired
with a :class:`~repro.wire.fields.WireType`.  One interpreter,
:class:`WireSpec`, derives the encoder, the decoder and the exact frame size
(``Message.size_bytes()``) from that spec, so ``decode(encode(m)) == m`` and
``m.size_bytes() == encoded_size(m)`` hold for every kind by construction.

Wire layout (see ``docs/wire_format.md``)::

    frame   := uvarint(len(payload)) payload
    payload := kind_byte body
    body    := fields in dataclass order, dot first

Message classes register themselves when they are defined, so this module
never imports the message modules (they import it).  The
:class:`repro.core.base.MBatch` transport envelope registers here as kind 0:
a count-prefixed sequence of complete inner frames, which may nest further
batches.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Tuple

from repro.core.base import MBatch
from repro.wire.fields import DOT, WireType
from repro.wire.primitives import Reader, WireError, uvarint_size, write_uvarint


class WireSpec:
    """One registered kind: its class, kind byte and ``(field, type)`` list."""

    __slots__ = ("cls", "kind", "_writers", "_readers", "_sizers")

    def __init__(
        self, cls: type, kind: int, fields: Tuple[Tuple[str, WireType], ...]
    ) -> None:
        self.cls = cls
        self.kind = kind
        self._writers = tuple((name, wire_type.write) for name, wire_type in fields)
        self._readers = tuple(wire_type.read for _, wire_type in fields)
        self._sizers = tuple((name, wire_type.size) for name, wire_type in fields)

    def write(self, buf: bytearray, message: object) -> None:
        """Append the message body (no kind byte)."""
        for name, write in self._writers:
            write(buf, getattr(message, name))

    def read(self, reader: Reader) -> object:
        """Decode one body into a new instance."""
        return self.cls(*[read(reader) for read in self._readers])

    def size(self, message: object) -> int:
        """Bytes of the full frame: length prefix, kind byte and body."""
        payload = 1
        for name, size in self._sizers:
            payload += size(getattr(message, name))
        return uvarint_size(payload) + payload


#: Message class -> spec; the class keys mirror the protocols' type-keyed
#: ``_dispatch`` tables.
_SPECS: Dict[type, WireSpec] = {}
#: Kind byte -> spec (the decoder's dispatch key).
_KINDS: Dict[int, WireSpec] = {}
#: Message class -> kind byte.
TYPE_TO_KIND: Dict[type, int] = {}


def _register(
    cls: type, kind: int, fields: Tuple[Tuple[str, WireType], ...]
) -> WireSpec:
    if not 0 <= kind <= 0xFF:
        raise ValueError(f"kind byte {kind} out of range")
    if kind in _KINDS or cls in _SPECS:
        raise ValueError(f"duplicate codec registration: {kind} / {cls.__name__}")
    spec = WireSpec(cls, kind, fields)
    _SPECS[cls] = spec
    _KINDS[kind] = spec
    TYPE_TO_KIND[cls] = kind
    return spec


def wire_message(kind: int, **fields: WireType) -> Callable[[type], type]:
    """Class decorator registering a message dataclass's wire spec.

    ``kind`` is the class's kind byte: append-only, never reused or
    renumbered, because it is the on-wire dispatch key.  ``fields`` names
    every dataclass field after the inherited ``dot`` (which is always
    encoded first, as a :data:`~repro.wire.fields.DOT`), in declaration
    order.  A spec that omits, adds or reorders a field is rejected, so a
    field can never be silently dropped from the frame.  The spec is
    stored on the class as ``wire_spec``.
    """
    spec_fields = (("dot", DOT),) + tuple(fields.items())

    def register(cls: type) -> type:
        declared = tuple(field.name for field in dataclasses.fields(cls))
        listed = tuple(name for name, _ in spec_fields)
        if declared != listed:
            raise TypeError(
                f"{cls.__name__}: wire spec fields {listed} differ from the "
                f"dataclass fields {declared}"
            )
        cls.wire_spec = _register(cls, kind, spec_fields)
        return cls

    return register


def registered_types() -> Tuple[type, ...]:
    """Every message class with a codec, in kind-byte order."""
    return tuple(_KINDS[kind].cls for kind in sorted(_KINDS))


def has_codec(message_type: type) -> bool:
    """Whether ``message_type`` has a registered codec."""
    return message_type in _SPECS


# -- public encode/decode -----------------------------------------------------------


def _encode_payload(message: object) -> bytearray:
    spec = _SPECS.get(message.__class__)
    if spec is None:
        raise WireError(f"no codec registered for {message.__class__.__name__}")
    buf = bytearray((spec.kind,))
    spec.write(buf, message)
    return buf


def _decode_payload(reader: Reader) -> object:
    kind = reader.read_byte()
    spec = _KINDS.get(kind)
    if spec is None:
        raise WireError(f"unknown message kind byte {kind}")
    return spec.read(reader)


def _encode_frame_into(buf: bytearray, message: object) -> None:
    payload = _encode_payload(message)
    write_uvarint(buf, len(payload))
    buf += payload


def _decode_frame_from(reader: Reader) -> object:
    length = reader.read_uvarint()
    payload = reader.sub_reader(length)
    message = _decode_payload(payload)
    payload.expect_end("frame")
    return message


def encode(message: object) -> bytes:
    """Encode one message as ``kind_byte + body`` (no length prefix)."""
    return bytes(_encode_payload(message))


def decode(data: bytes) -> object:
    """Decode one ``kind_byte + body`` payload; rejects trailing garbage."""
    reader = Reader(data)
    message = _decode_payload(reader)
    reader.expect_end("payload")
    return message


def encode_frame(message: object) -> bytes:
    """Encode one message as a length-prefixed frame (the stream unit)."""
    buf = bytearray()
    _encode_frame_into(buf, message)
    return bytes(buf)


def decode_frame(data: bytes, offset: int = 0) -> Tuple[object, int]:
    """Decode one frame at ``offset``; return ``(message, next_offset)``."""
    reader = Reader(data, offset)
    message = _decode_frame_from(reader)
    return message, reader.position


def encoded_size(message: object) -> int:
    """Measured wire size of ``message``: the full frame, prefix included."""
    payload = _encode_payload(message)
    return uvarint_size(len(payload)) + len(payload)


# -- the MBatch envelope: uvarint(count) + complete inner frames --------------------


def _write_frames(buf: bytearray, messages: Tuple[object, ...]) -> None:
    write_uvarint(buf, len(messages))
    for inner in messages:
        _encode_frame_into(buf, inner)


def _read_frames(reader: Reader) -> Tuple[object, ...]:
    count = reader.read_uvarint()
    return tuple(_decode_frame_from(reader) for _ in range(count))


def _frames_size(messages: Tuple[object, ...]) -> int:
    return uvarint_size(len(messages)) + sum(map(encoded_size, messages))


_register(
    MBatch, 0, (("messages", WireType(_write_frames, _read_frames, _frames_size)),)
)
