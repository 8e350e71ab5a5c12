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
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import TIME_MAX, InvalidInputError, VitacError, check_range
from .frozen import freeze, int_column, owned
from .sensor_model import (
    MAX_PAD_ID,
    MAX_RAW_READING,
    MAX_READING,
    PAD_SHAPE,
    PAD_TAXELS,
    READING_BITS,
    TactileFrame,
    check_raw_readings,
)

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

# A line is read in one pass when deleting its digits leaves _SKELETON, its pad_id and readings
# are the canonical digits of values <= MAX_PAD_ID and <= MAX_READING, its seq and timestamp_us
# are 1 to 20 digits without a leading zero (a u64; a longer number goes through jsonio.loads),
# its timestamp_us fits an int64 (errors.check_time; a larger one is the line-by-line error), and
# no other digit is left over; such a line is exactly frame_lines' line for its frame.
_TEMPLATE = _LINE_HEAD % (0, 0, 0) + b"".join(b"0" + sep for sep in _SEPS)  # every number one digit
_SKELETON = _TEMPLATE.replace(b"0", b"")
# the gap holding each number, gap g lying between non-digits g and g + 1: pad_id and the
# readings, the numbers of at most 4 digits, then seq and timestamp_us
_GAPS = (np.flatnonzero(np.frombuffer(_TEMPLATE, np.uint8) == ord("0")) - np.arange(3 + PAD_TAXELS) - 1)[
    np.r_[0, 3 : 3 + PAD_TAXELS, 1, 2]]
_SHORT = 1 + PAD_TAXELS
# By a gap's size, one more than its digits (a short number's 0 to 4 digits, and 5 for more):
# the shift that keeps only a short number's digits of the 4 bytes from its start, and the least
# value it may have and the span above it, so that value - least, wrapping below least, is at
# most span for a canonical number <= MAX_READING; and whether a long number's count is 1 to 20.
_SHIFT_BY_SIZE = np.array([0, 24, 24, 16, 8, 0, 0], np.uint32)
_LEAST_BY_SIZE = np.array([0, 2**32 - 1, 0, 10, 100, 1000, 2**32 - 1], np.uint32)
_SPAN_BY_SIZE = np.array([0, 0, 9, 89, 899, MAX_READING - 1000, 0], np.uint32)
_LONG_BY_SIZE = (np.arange(23) >= 2) & (np.arange(23) <= 21)
_BACK = np.arange(-20, 0)  # a long number's 20 digit places, from the separator after it
_TENS = 10 ** np.arange(9, -1, -1)  # a 10-digit half of a long number
_ZEROS = ord("0") * int(_TENS.sum())  # what the half's places hold in text that reads 0
_HIGH_HALF_MAX, _LOW_HALF_MAX = divmod(TIME_MAX, 10**10)  # the halves of the largest time


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


@dataclass(frozen=True, eq=False)
class FrameColumns(Sequence):
    """Raw tactile frames as columns: their pad ids, their timestamps as an int64 column, and their
    readings as one read-only (n, 16, 16) uint16 array.

    As a sequence its items are TactileFrames, each built when it is read.
    """

    pad_ids: np.ndarray
    timestamps: np.ndarray
    readings: np.ndarray

    def __post_init__(self):
        pad_ids = freeze(self, "pad_ids", -1, np.int64)
        for pad_id in (pad_ids.min(), pad_ids.max()) if len(pad_ids) else ():
            check_range("pad_id", int(pad_id), 0, MAX_PAD_ID)
        object.__setattr__(self, "timestamps", int_column(self.timestamps))
        check_raw_readings(np.asarray(self.readings), MAX_RAW_READING)
        freeze(self, "readings", (-1, *PAD_SHAPE), np.uint16)
        if not len(pad_ids) == len(self.timestamps) == len(self.readings):
            raise InvalidInputError("frame columns must have one length")

    @staticmethod
    def of(frames) -> "FrameColumns":
        """The columns of a sequence of raw TactileFrames."""
        return FrameColumns([f.pad_id for f in frames], [f.timestamp_us for f in frames],
                            owned(np.array([f.readings for f in frames], np.uint16).reshape(-1, *PAD_SHAPE)))

    @staticmethod
    def concat(chunks) -> "FrameColumns":
        """The frames of chunks, a list of FrameColumns, one after another."""
        if len(chunks) == 1:
            return chunks[0]
        if not chunks:
            return FrameColumns.of([])
        return FrameColumns(*(owned(np.concatenate([getattr(c, name) for c in chunks]))
                              for name in ("pad_ids", "timestamps", "readings")))

    @staticmethod
    def canonical(lines: list) -> tuple:
        """(frames, read): the columns of the canonical lines among lines, and for each line
        whether it is one. All the lines are parsed together by numpy."""
        lengths = np.fromiter(map(len, lines), np.intp, len(lines))
        ends = np.cumsum(lengths)
        text = np.frombuffer(b"".join(lines), np.uint8)
        seps = np.flatnonzero(text - np.uint8(ord("0")) >= 10)  # a non-digit wraps to 10+
        nondigits = text[seps]
        read = np.zeros(len(lines), bool)
        if len(seps) == len(_SKELETON) * len(lines) and nondigits.tobytes() == _SKELETON * len(lines):
            # every line holds the skeleton: one bytes comparison, where the masks below take about
            # 0.2 ms more a 64-line block of the seed-4 capture (about 1.0 against 0.75 ms a block)
            found, at = np.arange(len(lines)), seps.reshape(len(lines), -1)
            ok = at[:, 0] == ends - lengths
        else:
            counts = np.diff(np.searchsorted(seps, ends), prepend=0)
            held = np.repeat(counts == len(_SKELETON), counts)
            if not held.any():
                return FrameColumns.of([]), read
            # the lines found hold as many non-digits as the skeleton, so their places fall into rows of one length
            found, at = np.flatnonzero(counts == len(_SKELETON)), seps[held].reshape(-1, len(_SKELETON))
            ok = at[:, 0] == ends[found] - lengths[found]
            ok &= (nondigits[held].reshape(at.shape) == np.frombuffer(_SKELETON, np.uint8)).all(axis=1)
        before = at[:, _GAPS]  # the non-digit before each number
        size = at[:, _GAPS + 1] - before
        ok &= size.sum(axis=1) == lengths[found] - len(_SKELETON) + len(_GAPS)  # no digit sits elsewhere
        # the 4 bytes from each short number's start, first byte lowest; shifting out all but its
        # digits leaves them as the low digits of a 4-digit number, which two multiply-adds combine
        short = size[:, :_SHORT]
        words = np.ndarray((len(text) - 4,), np.dtype("<u4"), text, 1, (1,)).take(before[:, :_SHORT])
        words <<= _SHIFT_BY_SIZE.take(short, mode="clip")
        words &= 0x0F0F0F0F
        spill = words >> 8
        words *= 10
        words += spill
        words &= 0x00FF00FF
        np.right_shift(words, 16, out=spill)
        words *= 100
        words += spill
        words &= 0xFFFF
        np.subtract(words, _LEAST_BY_SIZE.take(short, mode="clip"), out=spill)
        ok &= (spill <= _SPAN_BY_SIZE.take(short, mode="clip")).all(axis=1) & (words[:, 0] <= MAX_PAD_ID)
        long = size[:, _SHORT:]  # seq and timestamp_us
        leading_zero = (long > 2) & (text[before[:, _SHORT:] + 1] == ord("0"))
        ok &= (_LONG_BY_SIZE.take(long, mode="clip") & ~leading_zero).all(axis=1)
        # the timestamp's digits in 20 places before the separator after it, '0' before them
        places = np.where(_BACK >= 1 - long[:, -1:], text[at[:, _GAPS[-1] + 1, None] + _BACK], ord("0"))
        high, low = places[:, :10] @ _TENS - _ZEROS, places[:, 10:] @ _TENS - _ZEROS
        ok &= (high < _HIGH_HALF_MAX) | ((high == _HIGH_HALF_MAX) & (low <= _LOW_HALF_MAX))  # else not a time
        read[found[ok]] = True
        readings = owned(words[ok, 1:].astype(np.uint16).reshape(-1, *PAD_SHAPE))
        return FrameColumns(words[ok, 0], owned(high[ok] * 10**10 + low[ok]), readings), read

    def __len__(self) -> int:
        return len(self.pad_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return FrameColumns(self.pad_ids[i], self.timestamps[i], self.readings[i])
        return TactileFrame(self.pad_ids.item(i), self.timestamps.item(i), self.readings[i])


def _frame_from_doc(doc) -> TactileFrame:
    return TactileFrame(jsonio.number("pad_id", doc["pad_id"], int),
                        jsonio.number("timestamp_us", doc["timestamp_us"], int),
                        jsonio.numbers("readings", doc["readings"]))


def read_frame_lines(path) -> FrameColumns:
    """The raw TactileFrames of a JSON-lines file, one per nonblank line, in line order, as columns.

    A line may be any JSON object holding pad_id, timestamp_us and readings. Canonical lines
    are read in blocks by numpy; every other line goes through jsonio.loads, with the same
    frames and the same "<file>:<line>" errors as if every line did.
    """
    return jsonio.read_jsonl(path, _frame_from_doc, FrameColumns)
