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

`decode` writes each frame as one JSON line, and `sync` reads those lines
back; frame_lines and read_frame_lines below define that line.
"""

from __future__ import annotations

import binascii
import re
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import InvalidInputError, VitacError, check_range
from .frozen import freeze, read_only
from .sensor_model import MAX_PAD_ID, MAX_READING, PAD_SHAPE, PAD_TAXELS, READING_BITS, TactileFrame, check_raw_readings

MAGIC = b"\xa5\x5a"
VERSION = 1
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


@dataclass(frozen=True, eq=False)
class FrameBatch(Sequence):
    """Frames as columns: each frame's (pad_id, seq, timestamp_us) header, and the readings
    of all of them as one read-only (n, 16, 16) uint16 array, range-checked once.

    As a sequence its items are WireFrames, each built when it is read.
    """

    headers: tuple
    readings: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "headers", tuple(self.headers))
        readings = np.asarray(self.readings)
        if readings.shape != (len(self.headers), *PAD_SHAPE):
            raise InvalidInputError(f"readings must be {len(self.headers)} frames of {PAD_SHAPE}, got {readings.shape}")
        if len(readings):
            check_raw_readings(readings, MAX_READING)
        freeze(self, "readings", (-1, *PAD_SHAPE), np.uint16)

    @staticmethod
    def of(frames) -> "FrameBatch":
        """The batch of a sequence of WireFrames."""
        return FrameBatch([(f.pad_id, f.seq, f.timestamp_us) for f in frames],
                          np.array([f.readings for f in frames], np.uint16).reshape(-1, *PAD_SHAPE))

    def __len__(self) -> int:
        return len(self.headers)

    def __getitem__(self, i: int) -> WireFrame:
        return WireFrame(*self.headers[i], self.readings[i])


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


def pack_readings(readings: np.ndarray) -> bytes:
    """Pack 256 10-bit readings MSB-first into 320 bytes, into the words _unpack reads."""
    flat = np.asarray(readings).reshape(PAD_TAXELS)
    check_raw_readings(flat, MAX_READING)
    words = flat.astype(np.uint16) << _SHIFT
    payload = np.zeros(PAYLOAD_LEN, np.uint8)
    np.bitwise_or.at(payload, np.r_[_BYTE, _BYTE + 1], np.r_[words >> 8, words].astype(np.uint8))
    return payload.tobytes()


def encode_frame(frame: TactileFrame, seq: int) -> bytes:
    """Serialize a raw frame; decode_frame inverts this exactly."""
    if frame.normalized:
        raise InvalidInputError("only raw frames can be encoded")
    check_range("seq", seq, 0, (1 << 32) - 1)
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
        return jsonio.fields_to(self)


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

    def feed(self, chunk: bytes) -> FrameBatch:
        """The frames completed by chunk, as one batch."""
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
                        self._skip(end - pos, garbage=True)
                    pos = end
                    break
                if start > pos:
                    self._skip(start - pos, garbage=True)
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
        readings = _unpack(np.frombuffer(buf, np.uint8), np.array(starts, np.intp) + HEADER_LEN)
        del buf[:pos]
        return FrameBatch(headers, readings)

    def _skip(self, n: int, garbage: bool = False) -> None:
        """Count n skipped bytes as a resync event, unless they are garbage that continues a garbage run."""
        self.diagnostics.bytes_skipped += n
        self.diagnostics.resync_events += not (garbage and self._garbage)
        self._garbage = garbage

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)


# ---------------------------------------------------------------- frame lines
# The canonical line of a frame is json.dumps({"pad_id": P, "seq": S, "timestamp_us": T,
# "readings": [[r, ...], ...]}) and "\n". Both directions work on many lines in one numpy
# pass: a reading is at most 4 digits, written from a table and read back from the places of
# the fixed separators around it.

_LINE_HEAD = b'{"pad_id": %d, "seq": %d, "timestamp_us": %d, "readings": [['
# what follows each taxel's reading: in a row, at a row's end, at the end
_SEPS = [b"]]}\n" if i == PAD_TAXELS - 1 else b"], [" if i % PAD_SHAPE[1] == PAD_SHAPE[1] - 1 else b", "
         for i in range(PAD_TAXELS)]
# 8 bytes per reading, NUL-padded: its digits in the first 4 (by reading), the separator in the last 4 (by taxel)
_WORD = np.dtype("<u8")
_DIGIT_WORDS = np.frombuffer(b"".join((b"%d" % v).ljust(8, b"\0") for v in range(MAX_READING + 1)), _WORD)
_SEP_WORDS = np.frombuffer(b"".join(b"\0" * 4 + sep.ljust(4, b"\0") for sep in _SEPS), _WORD)

# A line is read in one pass when its head matches _HEAD (keys in order, no leading zeros),
# deleting its digits leaves _SKELETON, every reading's digits are the canonical digits of a
# value <= MAX_READING, and no other digit is left over; such a line is exactly frame_lines'
# line for its frame.
_NUMBER = rb"(0|[1-9][0-9]{0,19})"  # up to the 20 digits of a u64; a longer one goes through jsonio.loads
_HEAD = re.compile(re.escape(_LINE_HEAD.removesuffix(b"[[")).replace(b"%d", _NUMBER))
_SEP_TEXT = b"".join(_SEPS)
_SKELETON = (_LINE_HEAD % (0, 0, 0)).translate(None, b"0123456789") + _SEP_TEXT
# the index in _SKELETON of the separator after each reading, and the non-digits from "[[" to the end
_AFTER = len(_SKELETON) - len(_SEP_TEXT) + np.cumsum([0] + [len(sep) for sep in _SEPS[:-1]])
_READINGS_SEPS = len(b"[[" + _SEP_TEXT)


def frame_lines(frames) -> bytes:
    """The canonical lines of frames (a FrameBatch, or WireFrames), byte for byte json.dumps
    of each frame's document and "\n"."""
    if not isinstance(frames, FrameBatch):
        frames = FrameBatch.of(frames)
    if not frames:
        return b""
    heads = [_LINE_HEAD % header for header in frames.headers]
    width = -(-max(map(len, heads)) // 8)  # in words
    lines = np.empty((len(heads), width + PAD_TAXELS), _WORD)
    lines[:, :width] = np.frombuffer(b"".join(h.ljust(8 * width, b"\0") for h in heads), _WORD).reshape(-1, width)
    np.bitwise_or(_DIGIT_WORDS[frames.readings.reshape(-1, PAD_TAXELS)], _SEP_WORDS, out=lines[:, width:])
    return lines.tobytes().translate(None, b"\0")


def _canonical_frames(lines: list) -> list:
    """The TactileFrame of each canonical line among lines, None for every other line."""
    out = [None] * len(lines)
    # of each line that holds the skeleton: its index, (pad_id, timestamp_us), and the digits of its readings
    found, heads, digits = [], [], []
    for i, line in enumerate(lines):
        m = _HEAD.match(line)
        if m and line.translate(None, b"0123456789") == _SKELETON:
            found.append(i)
            heads.append((int(m[1]), int(m[3])))
            digits.append(len(line) - m.end() - _READINGS_SEPS)
    if not found:
        return out
    text = np.frombuffer(b"".join([lines[i] for i in found]), np.uint8)
    # every line found holds the skeleton, so the places of its non-digits fall into rows of one length
    seps = np.flatnonzero(text - np.uint8(ord("0")) >= 10).reshape(len(found), -1)  # a non-digit wraps to 10+
    start = seps[:, _AFTER - 1] + 1
    n_digits = seps[:, _AFTER] - start
    del seps
    # the 4 bytes from each reading's start, first byte lowest; shifting out all but its digits
    # leaves them as the low digits of a 4-digit number, which two multiply-adds combine
    words = np.ndarray((len(text) - 3,), np.dtype("<u4"), text, 0, (1,)).take(start)
    words <<= (8 * (4 - np.clip(n_digits, 1, 4))).astype(np.uint32)
    words &= np.uint32(0x0F0F0F0F)
    words = (words * np.uint32(10) + (words >> np.uint32(8))) & np.uint32(0x00FF00FF)
    values = (words * np.uint32(100) + (words >> np.uint32(16))) & np.uint32(0xFFFF)
    canonical = 1 + (values >= 10) + (values >= 100) + (values >= 1000)
    good = np.all((n_digits == canonical) & (values <= MAX_READING), axis=1)
    good &= n_digits.sum(axis=1) == digits  # and no digit sits inside a separator
    readings = read_only(values, np.uint16, (-1, *PAD_SHAPE))
    for i, (pad_id, timestamp_us), row, ok in zip(found, heads, readings, good):
        if ok and pad_id <= MAX_PAD_ID:  # TactileFrame refuses a larger id, which the line's own read reports
            out[i] = TactileFrame(pad_id, timestamp_us, row)
    return out


def _frame_from_doc(doc) -> TactileFrame:
    return TactileFrame(jsonio.number("pad_id", doc["pad_id"], int),
                        jsonio.number("timestamp_us", doc["timestamp_us"], int),
                        jsonio.numbers("readings", doc["readings"]))


def read_frame_lines(path) -> list:
    """The TactileFrames of a JSON-lines file, one per nonblank line, in line order.

    A line may be any JSON object holding pad_id, timestamp_us and readings. Canonical lines
    are read in blocks by numpy; every other line goes through jsonio.loads, with the same
    frames and the same "<file>:<line>" errors as if every line did.
    """
    return jsonio.read_jsonl(path, _frame_from_doc, batch=_canonical_frames)
