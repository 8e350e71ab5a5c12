"""Bit-exact wire codec for the pad readout stream.

Frame layout (338 bytes total):

    offset  size  field
    0       2     magic 0xA5 0x5A
    2       1     version (= 1)
    3       1     pad_id
    4       4     seq, unsigned little-endian
    8       8     timestamp_us, unsigned little-endian
    16      320   payload: 256 readings, 10 bits each, packed MSB-first
    336     2     CRC-16/CCITT-FALSE over bytes [0, 336), stored big-endian

The stream decoder resynchronizes on the magic bytes: garbage is skipped
one byte at a time, and a candidate frame that fails CRC costs only its
two magic bytes before the scan resumes.
"""

from __future__ import annotations

import binascii
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, VitacError, check_range
from .frozen import freeze, read_only
from .sensor_model import PAD_SHAPE, PAD_TAXELS, TactileFrame, check_raw_readings

MAGIC = b"\xa5\x5a"
VERSION = 1
READING_BITS = 10
MAX_READING = (1 << READING_BITS) - 1
# magic, version, pad_id, seq, timestamp_us: bytes [0, HEADER_LEN)
_HEADER = struct.Struct("<2sBBIQ")
HEADER_LEN = _HEADER.size
PAYLOAD_LEN = -(-PAD_TAXELS * READING_BITS // 8)  # whole bytes
CRC_OFFSET = HEADER_LEN + PAYLOAD_LEN
FRAME_LEN = CRC_OFFSET + 2


def crc16_ccitt_false(data: bytes) -> int:
    """CRC-16/CCITT-FALSE: polynomial 0x1021, MSB-first, init 0xFFFF, no final xor."""
    return binascii.crc_hqx(data, 0xFFFF)


class FrameDecodeError(VitacError):
    """A candidate frame failed validation."""


class NeedMoreDataError(FrameDecodeError):
    """Fewer than FRAME_LEN bytes to decode."""


class BadMagicError(FrameDecodeError):
    """The candidate does not start with MAGIC."""


class BadVersionError(FrameDecodeError):
    """The frame's version is not VERSION."""


class CrcMismatchError(FrameDecodeError):
    """The stored CRC does not match the frame's bytes."""


@dataclass(frozen=True, eq=False)
class WireFrame:
    """A decoded frame: header fields plus the unpacked 16x16 reading grid."""

    pad_id: int
    seq: int
    timestamp_us: int
    readings: np.ndarray

    def __post_init__(self):
        check_raw_readings(np.asarray(self.readings), MAX_READING)
        freeze(self, "readings", PAD_SHAPE, np.uint16)


def pack_readings(readings: np.ndarray) -> bytes:
    """Pack 256 10-bit readings MSB-first into 320 bytes."""
    flat = np.asarray(readings).reshape(PAD_TAXELS)
    check_raw_readings(flat, MAX_READING)
    flat = flat.astype(np.uint16)
    shifts = np.arange(READING_BITS - 1, -1, -1)
    bits = ((flat[:, None] >> shifts) & 1).astype(np.uint8).ravel()
    return np.packbits(bits).tobytes()


# Reading i fills payload bits [10 i, 10 i + 10), MSB-first. They lie in bytes _BYTE[i] and
# _BYTE[i] + 1 (a reading starts at bit 0, 2, 4 or 6 of a byte), read as a big-endian word
# whose low _SHIFT[i] bits belong to the next reading.
_BIT = np.arange(PAD_TAXELS) * READING_BITS
_BYTE = _BIT // 8
_SHIFT = (16 - READING_BITS - _BIT % 8).astype(np.uint16)


def _unpack(data: np.ndarray, starts) -> np.ndarray:
    """The (n, 16, 16) readings of the n payloads that begin at data[starts] (data: uint8)."""
    at = np.add.outer(starts, _BYTE)
    words = data[at].astype(np.uint16) << 8
    words |= data[at + 1]
    words >>= _SHIFT
    words &= MAX_READING
    return words.reshape(-1, *PAD_SHAPE)


def unpack_readings(payload: bytes) -> np.ndarray:
    if len(payload) != PAYLOAD_LEN:
        raise InvalidInputError(f"payload must be {PAYLOAD_LEN} bytes, got {len(payload)}")
    return _unpack(np.frombuffer(payload, dtype=np.uint8), [0])[0]


def encode_frame(frame: TactileFrame, seq: int) -> bytes:
    """Serialize a raw frame; decode_frame inverts this exactly."""
    if frame.normalized:
        raise InvalidInputError("only raw frames can be encoded")
    check_range("seq", seq, 0, (1 << 32) - 1)
    check_range("pad_id", frame.pad_id, 0, 255)
    check_range("timestamp_us", frame.timestamp_us, 0, (1 << 64) - 1, "us")
    body = _HEADER.pack(MAGIC, VERSION, frame.pad_id, seq, frame.timestamp_us)
    body += pack_readings(frame.readings)
    return body + crc16_ccitt_false(body).to_bytes(2, "big")


def _header(data: memoryview) -> tuple:
    """(pad_id, seq, timestamp_us) of the candidate frame at the start of data, validated."""
    magic, version, pad_id, seq, timestamp_us = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError("candidate does not start with magic bytes")
    stored = int.from_bytes(data[CRC_OFFSET:FRAME_LEN], "big")
    if crc16_ccitt_false(data[:CRC_OFFSET]) != stored:
        raise CrcMismatchError("CRC mismatch")
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version}")
    return pad_id, seq, timestamp_us


def decode_frame(data: bytes) -> WireFrame:
    """Validate and unpack one 338-byte candidate starting at its magic."""
    if len(data) < FRAME_LEN:
        raise NeedMoreDataError(f"need {FRAME_LEN} bytes, got {len(data)}")
    data = bytes(data[:FRAME_LEN])
    return WireFrame(*_header(memoryview(data)), unpack_readings(data[HEADER_LEN:CRC_OFFSET]))


@dataclass
class DecodeDiagnostics:
    """Counters surfaced by the stream decoder; anomalies are never fatal."""

    frames: int = 0
    bytes_skipped: int = 0
    resync_events: int = 0
    crc_mismatches: int = 0
    bad_versions: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class StreamDecoder:
    """Incremental decoder over a possibly noisy byte channel.

    Feed arbitrary chunks in arrival order; complete valid frames are
    emitted in order. The emitted sequence is independent of chunking.
    Owned by one consumer at a time.
    """

    def __init__(self):
        self._buf = bytearray()
        self._garbage = False  # the bytes skipped last were garbage, not a bad candidate's magic
        self.diagnostics = DecodeDiagnostics()

    def feed(self, chunk: bytes) -> list[WireFrame]:
        """The frames completed by chunk. Their readings are read-only rows of one array."""
        buf = self._buf
        buf.extend(chunk)
        starts, headers = [], []  # of each valid frame
        pos = 0
        with memoryview(buf) as view:
            while True:
                start = buf.find(MAGIC, pos)
                if start < 0:
                    # keep a trailing first-magic-byte, it may pair with the next chunk
                    end = len(buf) - (pos < len(buf) and buf[-1] == MAGIC[0])
                    if end > pos:
                        self._skip_garbage(end - pos)
                    pos = end
                    break
                if start > pos:
                    self._skip_garbage(start - pos)
                    pos = start
                if len(buf) - pos < FRAME_LEN:
                    break
                try:
                    headers.append(_header(view[pos : pos + FRAME_LEN]))
                    starts.append(pos)
                    self._garbage = False
                    self.diagnostics.frames += 1
                    pos += FRAME_LEN
                except CrcMismatchError:
                    self.diagnostics.crc_mismatches += 1
                    self._skip(2)
                    pos += 2
                except BadVersionError:
                    self.diagnostics.bad_versions += 1
                    self._skip(2)
                    pos += 2
        frames = []
        if starts:
            payloads = np.add(starts, HEADER_LEN)
            readings = read_only(_unpack(np.frombuffer(buf, np.uint8), payloads), np.uint16)
            frames = [WireFrame(*header, row) for header, row in zip(headers, readings)]
        del buf[:pos]
        return frames

    def _skip(self, n: int) -> None:
        self._garbage = False
        self.diagnostics.bytes_skipped += n
        self.diagnostics.resync_events += 1

    def _skip_garbage(self, n: int) -> None:
        """Skip bytes up to a magic or the buffer's end: a run that a chunk boundary splits is one event."""
        if self._garbage:
            self.diagnostics.bytes_skipped += n
        else:
            self._skip(n)
        self._garbage = True

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)
