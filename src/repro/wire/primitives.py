"""Low-level wire primitives: varints, strings and a bounds-checked reader.

All multi-byte integers use LEB128 *unsigned varints* (the fantoch/protobuf
encoding: seven payload bits per byte, high bit = continuation).  Fields
that may legitimately be negative (ballots carried through recovery,
client identifiers) use the *zigzag* signed variant, which maps small
magnitudes of either sign onto small unsigned varints.

Decoding never trusts its input: every read is bounds-checked and raises
:class:`WireError` on truncation, oversized varints or malformed UTF-8, so
a corrupt frame can never crash the caller with an ``IndexError`` or poison
protocol state with a half-decoded message.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: Hard cap on a single varint's width (10 bytes encode up to 70 bits,
#: enough for any 64-bit value); anything longer is corruption.
_MAX_VARINT_BYTES = 10


class WireError(ValueError):
    """Raised on any malformed, truncated or unencodable wire data."""


# -- encoding -----------------------------------------------------------------


def write_uvarint(buf: bytearray, value: int) -> None:
    """Append ``value`` as an unsigned LEB128 varint."""
    if value < 0:
        raise WireError(f"cannot encode negative value {value} as uvarint")
    while value >= 0x80:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def write_svarint(buf: bytearray, value: int) -> None:
    """Append ``value`` as a zigzag-encoded signed varint."""
    zigzag = (value << 1) ^ (value >> 63) if -(1 << 63) <= value < (1 << 63) else None
    if zigzag is None:
        raise WireError(f"signed value {value} exceeds 64 bits")
    write_uvarint(buf, zigzag & ((1 << 64) - 1))


def write_string(buf: bytearray, value: str) -> None:
    """Append a length-prefixed UTF-8 string."""
    data = value.encode("utf-8")
    write_uvarint(buf, len(data))
    buf += data


def write_optional_string(buf: bytearray, value: Optional[str]) -> None:
    """Append a presence byte followed by the string when present."""
    if value is None:
        buf.append(0)
    else:
        buf.append(1)
        write_string(buf, value)


# -- sizing -------------------------------------------------------------------
#
# Each ``*_size`` returns the bytes the matching ``write_*`` appends.  Sizing
# runs once per simulated message, so it does not re-validate what the
# writer rejects.


def uvarint_size(value: int) -> int:
    """Encoded width of ``value`` as an unsigned varint, in bytes."""
    if value < 0x80:
        return 1
    return (value.bit_length() + 6) // 7


def svarint_size(value: int) -> int:
    """Encoded width of ``value`` as a zigzag signed varint, in bytes."""
    return uvarint_size((value << 1) ^ (value >> 63))


def string_size(value: str) -> int:
    """Encoded width of a length-prefixed UTF-8 string."""
    length = len(value.encode("utf-8"))
    return uvarint_size(length) + length


def optional_string_size(value: Optional[str]) -> int:
    """Encoded width of a presence byte plus the string when present."""
    return 1 if value is None else 1 + string_size(value)


# -- decoding -----------------------------------------------------------------


class Reader:
    """Bounds-checked sequential reader over one immutable byte buffer."""

    __slots__ = ("_data", "_pos", "_end")

    def __init__(self, data: bytes, start: int = 0, end: Optional[int] = None) -> None:
        self._data = data
        self._pos = start
        self._end = len(data) if end is None else end
        if not 0 <= self._pos <= self._end <= len(data):
            raise WireError("reader bounds outside the buffer")

    @property
    def position(self) -> int:
        return self._pos

    def remaining(self) -> int:
        return self._end - self._pos

    def at_end(self) -> bool:
        return self._pos >= self._end

    def expect_end(self, context: str) -> None:
        """Fail unless the reader consumed its window exactly."""
        if self._pos != self._end:
            raise WireError(
                f"{context}: {self._end - self._pos} trailing bytes after decode"
            )

    def read_byte(self) -> int:
        if self._pos >= self._end:
            raise WireError("truncated frame: expected one more byte")
        value = self._data[self._pos]
        self._pos += 1
        return value

    def read_bytes(self, count: int) -> bytes:
        if count < 0:
            raise WireError(f"negative byte count {count}")
        if self._pos + count > self._end:
            raise WireError(
                f"truncated frame: wanted {count} bytes, "
                f"{self._end - self._pos} available"
            )
        value = self._data[self._pos : self._pos + count]
        self._pos += count
        return value

    def skip(self, count: int) -> None:
        if count < 0 or self._pos + count > self._end:
            raise WireError(
                f"truncated frame: wanted {count} bytes, "
                f"{self._end - self._pos} available"
            )
        self._pos += count

    def sub_reader(self, length: int) -> "Reader":
        """Consume ``length`` bytes and return a reader bounded to them."""
        if length < 0 or self._pos + length > self._end:
            raise WireError(
                f"truncated frame: declared {length} bytes, "
                f"{self._end - self._pos} available"
            )
        sub = Reader(self._data, self._pos, self._pos + length)
        self._pos += length
        return sub

    def read_uvarint(self) -> int:
        value = 0
        shift = 0
        for _ in range(_MAX_VARINT_BYTES):
            byte = self.read_byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
        raise WireError("varint longer than 10 bytes")

    def read_svarint(self) -> int:
        zigzag = self.read_uvarint()
        return (zigzag >> 1) ^ -(zigzag & 1)

    def read_string(self) -> str:
        length = self.read_uvarint()
        data = self.read_bytes(length)
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"malformed UTF-8 string: {exc}") from exc

    def read_optional_string(self) -> Optional[str]:
        flag = self.read_byte()
        if flag == 0:
            return None
        if flag != 1:
            raise WireError(f"invalid optional-string flag {flag}")
        return self.read_string()

    def read_bool(self) -> bool:
        flag = self.read_byte()
        if flag > 1:
            raise WireError(f"invalid bool byte {flag}")
        return bool(flag)


def read_uvarint_prefix(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Read one unsigned varint at ``offset``; return ``(value, next_offset)``.

    Convenience for framing layers that need the length prefix before
    constructing a :class:`Reader` over the payload.
    """
    reader = Reader(data, offset)
    value = reader.read_uvarint()
    return value, reader.position
