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

from .errors import InvalidInputError, VitacError
from .frozen import freeze
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


def crc16_ccitt_false(data: bytes, crc: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE: polynomial 0x1021, MSB-first, no final xor."""
    return binascii.crc_hqx(data, crc)


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


def unpack_readings(payload: bytes) -> np.ndarray:
    if len(payload) != PAYLOAD_LEN:
        raise InvalidInputError(f"payload must be {PAYLOAD_LEN} bytes, got {len(payload)}")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8)).reshape(PAD_TAXELS, READING_BITS)
    weights = (1 << np.arange(READING_BITS - 1, -1, -1)).astype(np.uint16)
    return (bits.astype(np.uint16) * weights).sum(axis=1).astype(np.uint16).reshape(PAD_SHAPE)


def encode_frame(frame: TactileFrame, seq: int) -> bytes:
    """Serialize a raw frame; decode_frame inverts this exactly."""
    if frame.normalized:
        raise InvalidInputError("only raw frames can be encoded")
    if not (0 <= seq < 1 << 32):
        raise InvalidInputError(f"seq {seq} does not fit in u32")
    if not (0 <= frame.pad_id < 256):
        raise InvalidInputError(f"pad_id {frame.pad_id} does not fit in one byte")
    if not (0 <= frame.timestamp_us < 1 << 64):
        raise InvalidInputError("timestamp_us does not fit in u64")
    body = _HEADER.pack(MAGIC, VERSION, frame.pad_id, seq, frame.timestamp_us)
    body += pack_readings(frame.readings)
    return body + crc16_ccitt_false(body).to_bytes(2, "big")


def decode_frame(data: bytes) -> WireFrame:
    """Validate and unpack one 338-byte candidate starting at its magic."""
    if len(data) < FRAME_LEN:
        raise NeedMoreDataError(f"need {FRAME_LEN} bytes, got {len(data)}")
    data = bytes(data[:FRAME_LEN])
    magic, version, pad_id, seq, timestamp_us = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError("candidate does not start with magic bytes")
    stored = int.from_bytes(data[CRC_OFFSET:FRAME_LEN], "big")
    if crc16_ccitt_false(data[:CRC_OFFSET]) != stored:
        raise CrcMismatchError("CRC mismatch")
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version}")
    readings = unpack_readings(data[HEADER_LEN:CRC_OFFSET])
    return WireFrame(pad_id, seq, timestamp_us, readings)


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
        self.diagnostics = DecodeDiagnostics()

    def feed(self, chunk: bytes) -> list[WireFrame]:
        self._buf.extend(chunk)
        frames = []
        while True:
            start = self._buf.find(MAGIC)
            if start < 0:
                # keep a trailing first-magic-byte, it may pair with the next chunk
                keep = 1 if self._buf[-1:] == MAGIC[:1] else 0
                dropped = len(self._buf) - keep
                if dropped:
                    self._skip(dropped)
                del self._buf[:dropped]
                break
            if start > 0:
                self._skip(start)
                del self._buf[:start]
            if len(self._buf) < FRAME_LEN:
                break
            try:
                frames.append(decode_frame(self._buf))
                self.diagnostics.frames += 1
                del self._buf[:FRAME_LEN]
            except CrcMismatchError:
                self.diagnostics.crc_mismatches += 1
                self._skip(2)
                del self._buf[:2]
            except BadVersionError:
                self.diagnostics.bad_versions += 1
                self._skip(2)
                del self._buf[:2]
        return frames

    def _skip(self, n: int) -> None:
        self.diagnostics.bytes_skipped += n
        self.diagnostics.resync_events += 1

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)
