"""Real wire format: spec-driven binary codecs and framed byte transport.

Every protocol message (Tempo's in :mod:`repro.core.messages`, the
baselines' in :mod:`repro.protocols.dep_messages`) declares one wire spec
with :func:`wire_message` — its kind byte and its fields with their
:mod:`~repro.wire.fields` types — from which the encoder, the decoder and
``Message.size_bytes()`` are all derived; the :class:`repro.core.base.MBatch`
transport envelope nests inner frames.  The simulator charges
``size_bytes()`` and can cross-check it against :func:`encoded_size`
(``NetworkOptions.measure_encoded``), the asyncio runtime ships
:func:`encode_frame` frames through its channels and stream transports,
and the drift report checks that the two sizes agree.  See
``docs/wire_format.md``.
"""

from repro.wire.codecs import (
    TYPE_TO_KIND,
    decode,
    decode_frame,
    encode,
    encode_frame,
    encoded_size,
    has_codec,
    registered_types,
    wire_message,
)
from repro.wire.drift import DRIFT_THRESHOLD, drift_rows, drifted_kinds
from repro.wire.primitives import Reader, WireError, read_uvarint_prefix
from repro.wire.samples import sample_messages

__all__ = [
    "DRIFT_THRESHOLD",
    "Reader",
    "TYPE_TO_KIND",
    "WireError",
    "decode",
    "decode_frame",
    "drift_rows",
    "drifted_kinds",
    "encode",
    "encode_frame",
    "encoded_size",
    "has_codec",
    "read_uvarint_prefix",
    "registered_types",
    "sample_messages",
    "wire_message",
]
