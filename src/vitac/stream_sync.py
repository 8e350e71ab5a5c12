"""Alignment of timestamped streams into fixed-rate tuples, plus episode files.

Alignment picks, for every tick of the output grid, the nearest sample per
stream within a tolerance; a tick missing any stream is dropped and
reported rather than padded. The episode container is a binary file with a
JSON header and CRC32-protected records, so float payloads round-trip
bit-exact.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import signal
import stat
import struct
import threading
import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import jsonio
from .errors import (
    TIME_MAX,
    ChecksumError,
    EpisodeLoadError,
    EpisodeVersionError,
    InvalidInputError,
    StreamStarvedError,
    TruncatedFileError,
    check_range,
)
from .frame_codec import FrameColumns
from .frozen import int_column, owned
from .kinematics import JointColumns, JointState
from .pointcloud import CloudXYZF, FusedCloud
from .sensor_model import PAD_SHAPE, TactileFrame

JOINTS_STREAM = "joints"
TACTILE_PREFIX = "tactile/"  # tactile/<pad_id>
CAMERA_PREFIX = "camera/"  # camera/<cam_id>

EPISODE_MAGIC = b"VTEP"
EPISODE_VERSION = 1
# magic, version, length of the JSON header that follows
_EPISODE_HEAD = struct.Struct("<4sHI")


def tactile_stream(pad_id: int) -> str:
    return f"{TACTILE_PREFIX}{pad_id}"


def camera_stream(cam_id: int) -> str:
    return f"{CAMERA_PREFIX}{cam_id}"


@dataclass(frozen=True)
class TimedSample:
    stream_id: str
    timestamp_us: int
    payload: object


@dataclass(frozen=True, eq=False)
class SampleColumns(Sequence):
    """A stream's samples as columns: sample i lies at timestamps[i], an int64 column, and holds
    payloads[rows[i]]. payloads is any sequence of payloads, such as the FrameColumns and
    JointColumns that the line readers give, or a list.

    As a sequence its items are TimedSamples, each built when it is read, and a slice or an index
    array gives its samples as columns.
    """

    stream_id: str
    timestamps: np.ndarray
    payloads: Sequence
    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "timestamps", int_column(self.timestamps))

    @staticmethod
    def of(stream_id: str, samples) -> "SampleColumns":
        """The columns of a sequence of TimedSamples."""
        stamps = int_column([s.timestamp_us for s in samples], f"stream {stream_id!r} timestamp_us")
        return SampleColumns(stream_id, stamps, [s.payload for s in samples], np.arange(len(samples)))

    def sorted(self) -> "SampleColumns":
        """The samples in time order, samples of one time in the order they had."""
        return self[np.argsort(self.timestamps, kind="stable")]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, (slice, np.ndarray)):
            return SampleColumns(self.stream_id, owned(self.timestamps[i]), self.payloads, self.rows[i])
        return TimedSample(self.stream_id, self.timestamps.item(i), self.payloads[self.rows.item(i)])


@dataclass(frozen=True)
class SyncedTuple:
    """One output tick: exactly one sample per configured stream."""

    tick_time_us: int
    members: dict

    def _payload(self, sid: str, kind: type):
        payload = self.members[sid].payload
        if not isinstance(payload, kind):
            name = type(payload).__name__
            raise InvalidInputError(f"stream {sid!r} holds a {name}, not a {kind.__name__}")
        return payload

    def _payloads(self, prefix: str, kind: type) -> dict:
        out = {}
        for sid in self.members:
            if sid.startswith(prefix):
                try:
                    key = int(n := sid[len(prefix) :])
                    if key < 0 or str(key) != n:  # only canonical decimal text: no sign, no leading zero
                        raise ValueError
                except ValueError:
                    raise InvalidInputError(f"stream {sid!r}: expected {prefix}<integer>") from None
                out[key] = self._payload(sid, kind)
        return out

    def tactile_frames(self) -> dict:
        """pad_id -> TactileFrame for every tactile member."""
        return self._payloads(TACTILE_PREFIX, TactileFrame)

    def clouds(self) -> dict:
        """cam_id -> CloudXYZF for every camera member."""
        return self._payloads(CAMERA_PREFIX, CloudXYZF)

    def joint_state(self):
        return self._payload(JOINTS_STREAM, JointState) if JOINTS_STREAM in self.members else None


@dataclass(frozen=True)
class DroppedTick:
    tick_time_us: int
    missing: tuple


@dataclass
class DropReport:
    ticks_total: int = 0
    dropped: list = field(default_factory=list, metadata={"key": "dropped_ticks"})
    per_stream: dict = field(default_factory=dict, metadata={"key": "drops_by_stream"})

    def to_metadata(self) -> dict:
        return jsonio.fields_to(
            self, dropped=lambda ticks: [jsonio.fields_to(d, missing=list) for d in ticks], per_stream=dict
        )


def tick_grid(rate_hz: float, start_us: int, end_us: int) -> range:
    """The ticks of the rate_hz grid in [start_us, end_us], in microseconds.

    This is the one place where a rate becomes ticks: they sit on the
    multiples of a period of round(1e6 / rate_hz) whole microseconds. A rate
    whose period rounds to 0 (2 MHz and above) or is not a time has no grid.
    """
    check_range("rate", rate_hz, 0, unit="Hz", ends="(]")
    if not (0.5 < 1e6 / rate_hz <= TIME_MAX):  # the period rounds to 1 us or more, and is a time
        raise InvalidInputError(f"rate {rate_hz} Hz has no tick period in [1, 2**63 - 1] us")
    period_us = round(1e6 / rate_hz)
    return range(-(-start_us // period_us) * period_us, end_us + 1, period_us)


MAX_TICKS = 1 << 16  # see limit_ticks


def limit_ticks(ticks: range) -> range:
    """ticks, unless there are more than MAX_TICKS of them.

    align and the simulator keep something for every tick they walk, the simulator about
    12.5 KB at the least, so the longest run they accept takes about 0.8 GB.
    """
    if ticks.start + MAX_TICKS * ticks.step < ticks.stop:  # written so that len() cannot overflow
        raise InvalidInputError(
            f"the tick grid holds more than {MAX_TICKS} ticks of {ticks.step} us; shorten the span or lower the rate"
        )
    return ticks


DEFAULT_RATE_HZ = 10.0
DEFAULT_TOLERANCE_US = 50_000


def align(streams, rate_hz: float = DEFAULT_RATE_HZ, tolerance_us: int = DEFAULT_TOLERANCE_US):
    """Match samples to a fixed tick grid; returns (tuples, drop_report).

    streams: mapping stream_id -> time-sorted sequence of TimedSample, such as a SampleColumns;
    any other sequence is turned into columns once. Ticks are those of tick_grid over the
    interval where every stream has data, at most MAX_TICKS of them. A tick is emitted only when
    every stream has a sample within the tolerance: the nearest, the earlier on a tie. Otherwise
    the tick lands in the drop report with the offending streams named. tuples is a SyncedColumns.
    """
    check_range("tolerance", tolerance_us, 0, unit="us")
    if not streams:
        raise InvalidInputError("no streams configured")
    columns = {}
    for sid, samples in streams.items():
        samples = samples if isinstance(samples, SampleColumns) else SampleColumns.of(sid, samples)
        ts = samples.timestamps
        if not len(ts):
            raise StreamStarvedError(f"stream {sid!r} has no samples")
        if np.any(ts[1:] < ts[:-1]):
            raise InvalidInputError(f"stream {sid!r} timestamps are not sorted")
        columns[sid] = samples
    window_start = max(c.timestamps.item(0) for c in columns.values())
    window_end = min(c.timestamps.item(-1) for c in columns.values())
    grid = np.array(limit_ticks(tick_grid(rate_hz, window_start, window_end)), np.int64)
    tolerance = np.uint64(min(math.floor(tolerance_us), 2**64 - 1))
    kept, nearest, within = np.ones(len(grid), bool), {}, {}
    for sid, c in columns.items():
        i = np.searchsorted(c.timestamps, grid)  # each tick is at most the stream's last timestamp
        before = np.maximum(i - 1, 0)
        after, earlier = _distance(c.timestamps[i], grid), _distance(c.timestamps[before], grid)
        nearest[sid] = np.where(earlier <= after, before, i)
        within[sid] = np.minimum(earlier, after) <= tolerance
        kept &= within[sid]
    report = DropReport(len(grid), per_stream={sid: int(np.count_nonzero(~ok)) for sid, ok in within.items()})
    for k in np.flatnonzero(~kept).tolist():
        report.dropped.append(DroppedTick(grid.item(k), tuple(sid for sid, ok in within.items() if not ok[k])))
    return SyncedColumns(owned(grid[kept]), {sid: columns[sid][nearest[sid][kept]] for sid in columns}), report


@dataclass(frozen=True, eq=False)
class SyncedColumns(Sequence):
    """Synchronized ticks as columns: tick i is at ticks[i] and holds, of each stream, sample i of
    streams[stream_id], a SampleColumns as long as ticks.

    As a sequence its items are SyncedTuples, each built when it is read.
    """

    ticks: np.ndarray
    streams: dict

    def __post_init__(self):
        object.__setattr__(self, "ticks", int_column(self.ticks, "tick"))

    def __len__(self) -> int:
        return len(self.ticks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SyncedColumns(self.ticks[i], {sid: samples[i] for sid, samples in self.streams.items()})
        return SyncedTuple(self.ticks.item(i), {sid: samples[i] for sid, samples in self.streams.items()})

    @staticmethod
    def of(tuples, sids) -> "SyncedColumns":
        """The columns of a sequence of SyncedTuples that each hold the streams sids."""
        return SyncedColumns([t.tick_time_us for t in tuples],
                             {sid: SampleColumns.of(sid, [t.members[sid] for t in tuples]) for sid in sids})

    @staticmethod
    def concat(parts: list, sids) -> "SyncedColumns":
        """The ticks of parts, one after another: parts are SyncedColumns of the streams sids with list
        payloads, as SyncedColumns.of and _Run.decode give them, and each stream's lists become one."""
        rows, streams = np.arange(sum(map(len, parts))), {}
        for sid in sids:
            samples = [part.streams[sid] for part in parts]
            payloads = list(itertools.chain.from_iterable(s.payloads for s in samples))
            streams[sid] = SampleColumns(sid, _joined([s.timestamps for s in samples]), payloads, rows)
        return SyncedColumns(_joined([part.ticks for part in parts]), streams)


def _joined(columns: list) -> np.ndarray:
    """columns, integer columns, one after another as one read-only column."""
    return owned(np.concatenate(columns)) if columns else np.zeros(0, np.int64)


@dataclass
class Episode:
    """Ordered synchronized tuples plus the configuration that produced them."""

    rate_hz: float
    tolerance_us: int
    streams: list
    tuples: Sequence  # of SyncedTuples: a list, or a SyncedColumns as align and read_episode give
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EpisodeStats:
    duration_s: float
    tuple_count: int = field(metadata={"key": "tuples"})
    expected_ticks: int
    dropped_ticks: int
    drop_rate: float  # dropped_ticks / expected_ticks, 0.0 when no tick is expected
    max_skew_us: int
    drops_by_stream: dict


def episode_stats(episode: Episode) -> EpisodeStats:
    """Duration, drop counts inferred from the tick grid, and max member skew.

    A list of tuples is turned into columns once, as write_episode does. A tick that does not lie
    on the grid after the tick before it, or a metadata drop_report, or its drops_by_stream, that
    is not a JSON object is an InvalidInputError."""
    tuples = _synced_columns(episode, "")
    ticks, period = tuples.ticks, tick_grid(episode.rate_hz, 0, -1).step
    off = ticks % period != 0
    off[1:] |= ticks[1:] <= ticks[:-1]
    if off.any():
        raise InvalidInputError(f"tick {ticks.item(off.argmax())}: each tick must lie on the {period} us grid, "
                                "after the tick before it")
    first, last = (ticks.item(0), ticks.item(-1)) if len(ticks) else (0, 0)
    expected = (last - first) // period + 1 if len(ticks) else 0
    skews = [_distance(samples.timestamps, ticks).max() for samples in tuples.streams.values() if len(ticks)]
    drops = episode.metadata.get("drop_report", {})
    if isinstance(drops, dict):
        drops = drops.get("drops_by_stream", {})
    if not isinstance(drops, dict):
        raise InvalidInputError("metadata drop_report and its drops_by_stream must be JSON objects")
    return EpisodeStats(
        duration_s=(last - first) / 1e6,
        tuple_count=len(ticks),
        expected_ticks=expected,
        dropped_ticks=expected - len(ticks),
        drop_rate=(expected - len(ticks)) / expected if expected else 0.0,
        max_skew_us=int(max(skews, default=0)),
        drops_by_stream=dict(drops),
    )


def _distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| of two int64 columns as uint64, exact for any values: flipping their sign bits maps
    them onto uint64 in order, where max - min cannot wrap."""
    a, b = (column.view(np.uint64) ^ np.uint64(1 << 63) for column in (a, b))
    return np.maximum(a, b) - np.minimum(a, b)


# The record formats. A record is a u32 length, the tuple, then the tuple's CRC32 as a u32.
# A tuple is its tick and member count, then per member: stream id, timestamp, payload.
_U32 = struct.Struct("<I")
_TIME_COUNT = struct.Struct("<qH")  # a tuple's tick and member count; a joint state's head
_MEMBER_TS = struct.Struct("<q")
_STR_LEN = struct.Struct("<H")  # a string is its UTF-8 length, then its bytes
_TAG = struct.Struct("<B")
_I8 = np.dtype("<i8")  # a tick, member timestamp or payload stamp, read and written as a column
_F8 = np.dtype("<f8")
_READING_DTYPES = (np.dtype("<u2"), _F8)  # a tactile payload's raw and normalized readings

# A run of records that share one layout is read and written in blocks (see _Run) of at most
# BLOCK_RECORDS records and BLOCK_BYTES bytes, so a larger record is a block of one.
BLOCK_RECORDS = 64
BLOCK_BYTES = 1 << 18
_PIPE_STEP = 1 << 20  # the most that one read from a pipe asks for


@dataclass(frozen=True)
class _PayloadLayout:
    """One payload tag: the tag byte, the frame name when named, the head, then the body.

    The body is an array whose dtype and shape follow from the head. build makes the value
    type from (head, frame, body), check runs its checks on the body, or on the bodies of many
    records stacked along its first axis, without making it, and split gives the (head, body)
    of a value to encode. stamp is the index in the head of the payload's own timestamp, the
    one head field that differs between the records of a run. columns, when given, is the type
    that holds many such values as columns (a line reader's), and gather(columns, rows) gives
    their heads as one column per field and their bodies stacked, of the leading rows whose
    bodies share a shape.
    """

    cls: type
    head: struct.Struct
    named: bool
    stamp: int | None
    body: Callable
    build: Callable
    check: Callable
    split: Callable
    columns: type | None = None
    gather: Callable | None = None


def _cloud_layout(cls) -> _PayloadLayout:
    return _PayloadLayout(
        cls, _U32, True, None,
        body=lambda head: (_F8, (head[0], cls.WIDTH)),
        build=lambda head, frame, body: cls(body, frame),
        check=lambda head, body: cls.check(body),
        split=lambda cloud: ((len(cloud),), cloud.points),
    )


_PAYLOADS = {
    1: _PayloadLayout(
        TactileFrame, struct.Struct("<HBq"), False, 2,  # pad_id, normalized, timestamp_us
        body=lambda head: (_READING_DTYPES[bool(head[1])], PAD_SHAPE),
        build=lambda head, frame, body: TactileFrame(head[0], head[2], body, normalized=bool(head[1])),
        check=lambda head, body: TactileFrame.check(head[0], body, bool(head[1])),
        split=lambda f: ((f.pad_id, int(f.normalized), f.timestamp_us), f.readings),
        columns=FrameColumns,  # raw frames only, so normalized is 0
        gather=lambda c, rows: ((c.pad_ids[rows], np.zeros(len(rows), np.int64), c.timestamps[rows]), c.readings[rows]),
    ),
    2: _cloud_layout(CloudXYZF),
    3: _PayloadLayout(
        JointState, _TIME_COUNT, False, 0,  # timestamp_us, joint count
        body=lambda head: (_F8, (head[1],)),
        build=lambda head, frame, body: JointState(body, head[0]),
        check=lambda head, body: JointState.check(body),
        split=lambda joints: ((joints.timestamp_us, len(joints.positions)), joints.positions),
        columns=JointColumns,
        gather=lambda c, rows: ((c.timestamps[rows], c.counts(rows)), c.positions(rows)),
    ),
    4: _cloud_layout(FusedCloud),
}


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return _STR_LEN.pack(len(raw)) + raw


_TAGS = {layout.cls: tag for tag, layout in _PAYLOADS.items()}


def _encode_payload(payload) -> bytes:
    tag = _TAGS.get(type(payload))
    if tag is None:
        raise InvalidInputError(f"unsupported payload type {type(payload).__name__}")
    layout = _PAYLOADS[tag]
    head, body = layout.split(payload)
    frame = _pack_str(payload.frame) if layout.named else b""
    body = np.asarray(body, layout.body(head)[0]).tobytes()
    return b"".join((_TAG.pack(tag), frame, layout.head.pack(*head), body))


class _Reader:
    """Bounds-checked cursor over a byte buffer; reading past its end is a TruncatedFileError.

    take returns views of the buffer, not copies; a payload decoded from it copies its arrays,
    since the buffer is writable.
    """

    def __init__(self, buf: bytes, context: str):
        self.buf = memoryview(buf)
        self.pos = 0
        self.context = context

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise TruncatedFileError(f"{self.context}: truncated")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def read_str(self) -> str:
        (n,) = self.unpack(_STR_LEN)
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError:
            raise EpisodeLoadError(f"{self.context}: a stream id or frame name is not UTF-8") from None


def _encode_tuple(tup: SyncedTuple) -> bytes:
    parts = [_TIME_COUNT.pack(tup.tick_time_us, len(tup.members))]
    for sid in sorted(tup.members):
        sample = tup.members[sid]
        parts.append(_pack_str(sid))
        parts.append(_MEMBER_TS.pack(sample.timestamp_us))
        parts.append(_encode_payload(sample.payload))
    return b"".join(parts)


def _decode_tuple(buf: memoryview, context: str, keep=None, run=None) -> SyncedTuple:
    """The record's tuple. The payload of a member whose stream id starts with none of the keep
    prefixes is skipped, which runs every check that building it runs, and the member holds
    None; keep=None builds them all. A _Run given as run notes where each member's fields lie."""
    r = _Reader(buf, context)
    tick, n_members = r.unpack(_TIME_COUNT)
    members = {}
    for _ in range(n_members):
        sid = r.read_str()
        if sid in members:
            raise EpisodeLoadError(f"{r.context}: stream {sid!r} appears twice")
        ts_at = r.pos
        (ts,) = r.unpack(_MEMBER_TS)
        (tag,) = r.unpack(_TAG)
        layout = _PAYLOADS.get(tag)
        if layout is None:
            raise EpisodeLoadError(f"{r.context}: unknown payload tag {tag}")
        frame = r.read_str() if layout.named else None
        head_at = r.pos
        head = r.unpack(layout.head)
        dtype, shape = layout.body(head)
        body = np.frombuffer(r.take(dtype.itemsize * math.prod(shape)), dtype).reshape(shape)
        if run is not None:
            run.member(sid, ts_at, ts, layout, frame, head, head_at)
        payload = None
        try:
            if keep is None or sid.startswith(keep):
                payload = layout.build(head, frame, body)
            else:
                layout.check(head, body)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{r.context}: {exc}") from None
        members[sid] = TimedSample(sid, ts, payload)
    return SyncedTuple(tick, members)


class _Run:
    """The layout that a run of consecutive records shares, as the walker (_decode_tuple) notes it
    in the run's first record: every byte of a record of the run is that record's, except the
    fields that vary. Those are its CRC32, the int64s (the tick, each member's timestamp and each
    payload's stamp) and each payload's body. The records after the first are then read and
    written a block at a time, as one (records, bytes) array whose varying fields are numpy
    columns. Offsets count from the start of a record, its length.
    """

    def __init__(self):
        self.ints = [_U32.size]  # the offsets of the varying int64s, the tick's first
        self.members = []  # (sid, layout, frame, head, index of its timestamp in ints) per member
        self.bodies = []  # (offset, dtype, shape) of each member's body
        self.heads = [0]  # the tick, then each member's timestamp and head fields
        self.vary = [0]  # where the varying int64s lie in heads, in the order of ints

    def member(self, sid: str, ts_at: int, ts: int, layout: _PayloadLayout, frame, head: tuple, head_at: int) -> None:
        """Note a member whose timestamp ts and payload head lie at ts_at and head_at in the tuple."""
        self.members.append((sid, layout, frame, head, len(self.ints)))
        self.vary.append(len(self.heads))
        self.ints.append(_U32.size + ts_at)
        head_at += _U32.size
        if layout.stamp is not None:  # the stamp's offset is the size of the head fields before it
            self.vary.append(len(self.heads) + 1 + layout.stamp)
            self.ints.append(head_at + struct.Struct(layout.head.format[: 1 + layout.stamp]).size)
        self.heads += (ts, *head)
        self.bodies.append((head_at + layout.head.size, *layout.body(head)))

    def seal(self, *record) -> None:
        """Take the pieces of the first record's bytes, once the walker has noted its members."""
        self.size = sum(map(len, record))
        self.most = min(BLOCK_RECORDS, BLOCK_BYTES // self.size)  # 0 for a record past BLOCK_BYTES
        if not self.most:
            return
        self.row = np.frombuffer(b"".join(record), np.uint8)
        self.int_bytes = (np.array(self.ints)[:, None] + np.arange(_I8.itemsize)).ravel()
        varies = np.zeros(self.size, bool)
        varies[self.int_bytes] = varies[-_U32.size :] = True
        for at, dtype, shape in self.bodies:
            varies[at : at + dtype.itemsize * math.prod(shape)] = True
        self.fixed = np.flatnonzero(~varies)
        self.fixed_bytes = self.row[self.fixed]
        self.fixed_heads = np.delete(np.arange(len(self.heads)), self.vary)
        self.fixed_values = np.array(self.heads, np.int64)[self.fixed_heads]

    def _columns(self, rows: np.ndarray):
        """The (records, *shape) view of rows of each member's body."""
        for at, dtype, shape in self.bodies:
            yield rows[:, at : at + dtype.itemsize * math.prod(shape)].view(dtype).reshape(len(rows), *shape)

    def decode(self, rows: np.ndarray, keep):
        """The records of rows, records of the run that hold its fixed bytes, as a SyncedColumns
        with the values and checks of _read_record; None when one fails its CRC32 or a payload
        check. A payload skipped is checked once for all rows and held as None; each payload kept
        is built by layout.build from its row of one read-only copy of the block's body column."""
        crcs = rows[:, -_U32.size :].view("<u4")[:, 0].tolist()
        if any(zlib.crc32(row) != crc for row, crc in zip(rows[:, _U32.size : -_U32.size], crcs)):
            return None
        ints = owned(np.ascontiguousarray(rows[:, self.int_bytes]).view(_I8))
        at_rows, streams = np.arange(len(rows)), {}
        try:
            for (sid, layout, frame, head, at), body in zip(self.members, self._columns(rows)):
                if keep is None or sid.startswith(keep):
                    heads = [head] * len(rows)
                    if layout.stamp is not None:  # the stamp follows the timestamp in ints
                        s = layout.stamp
                        heads = [(*head[:s], stamp, *head[s + 1 :]) for stamp in ints[:, at + 1].tolist()]
                    payloads = [layout.build(h, frame, b) for h, b in zip(heads, owned(body.copy()))]
                else:
                    layout.check(head, body.reshape(-1, *body.shape[2:]))
                    payloads = [None] * len(rows)
                streams[sid] = SampleColumns(sid, ints[:, at], payloads, at_rows)
        except InvalidInputError:
            return None
        return SyncedColumns(ints[:, 0], streams)

    def encode(self, tuples: SyncedColumns) -> np.ndarray:
        """The records of the leading tuples that have the run's layout, as one (records, bytes)
        block of what _write_record writes for each. Every head field fits an int64: the tick and
        the timestamps are times (errors.check_time), the other fields pad ids, flags and counts."""
        k, heads, bodies = len(tuples), [tuples.ticks], []
        for sid, layout, frame, _, _ in self.members:
            head, body = _gather(layout, frame, tuples.streams[sid])
            k = min(k, len(body))
            heads += (tuples.streams[sid].timestamps, *head)
            bodies.append(body)
        if not k:
            return np.empty((0, self.size), np.uint8)
        heads = np.column_stack([np.asarray(column[:k], np.int64) for column in heads])
        same = (heads[:, self.fixed_heads] == self.fixed_values).all(axis=1)
        n = k if same.all() else int(same.argmin())
        block = np.empty((n, self.size), np.uint8)
        if not n:
            return block
        block[:] = self.row
        block[:, self.int_bytes] = np.ascontiguousarray(heads[:n, self.vary], _I8).view(np.uint8)
        for column, body in zip(self._columns(block), bodies):
            column[...] = body[:n]
        crcs = [zlib.crc32(row) for row in block[:, _U32.size : -_U32.size]]
        block[:, -_U32.size :] = np.array(crcs, "<u4").view(np.uint8).reshape(n, -1)
        return block


def _gather(layout: _PayloadLayout, frame, samples: SampleColumns) -> tuple:
    """(heads, bodies) of the payloads of samples as layout.split gives them, heads as one column
    per head field, for the leading samples whose payloads have layout's type and frame name."""
    if layout.columns is not None and isinstance(samples.payloads, layout.columns):
        return layout.gather(samples.payloads, samples.rows)
    heads, bodies = [], []
    for row in samples.rows:
        payload = samples.payloads[row]
        if type(payload) is not layout.cls or (layout.named and payload.frame != frame):
            break
        head, body = layout.split(payload)
        heads.append(head)
        bodies.append(body)
    return list(zip(*heads)), bodies


def _header_fields(header: dict) -> tuple:
    """(rate_hz, tolerance_us, streams, metadata, tuple_count) of an episode header.

    A missing key, a value of the wrong type (the counts take JSON integers, the rate a JSON
    number, streams an array of strings and metadata an object), a rate with no tick grid or a
    negative tuple_count is a KeyError, TypeError, ValueError or OverflowError. The writer runs
    these checks too, so it refuses what the reader refuses.
    """
    rate_hz = jsonio.number("rate_hz", header["rate_hz"])
    tolerance_us = jsonio.number("tolerance_us", header["tolerance_us"], int)
    streams, metadata = header["streams"], jsonio.json_object("metadata", header.get("metadata", {}))
    tuple_count = check_range("tuple_count", jsonio.number("tuple_count", header.get("tuple_count", 0), int), 0)
    tick_grid(rate_hz, 0, -1)
    if not isinstance(streams, list) or not all(isinstance(sid, str) for sid in streams):
        raise TypeError(f"streams must be an array of strings, got {streams!r}")
    return rate_hz, tolerance_us, streams, metadata, tuple_count


@contextlib.contextmanager
def _replacing(path):
    """A binary file that replaces path once the with block ends without an error.

    It is a new file beside the file path names (a symbolic link stays one), made with the mode
    a plain open gives, and an error removes it, so a failed write leaves path as it was. A path
    that exists and is not a regular file, such as /dev/null or a directory, is opened as it is.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            yield fh
        return
    path = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_episode(episode: Episode, path) -> None:
    """episode as a .vtep file at path. A header that read_episode would refuse, a tuple whose
    stream ids are not the episode's streams, or a value that does not fit its field is an
    InvalidInputError whose message starts with path, and path is left as it was."""
    header = {
        "rate_hz": episode.rate_hz,
        "tolerance_us": episode.tolerance_us,
        "streams": episode.streams,
        "metadata": episode.metadata,
        "tuple_count": len(episode.tuples),
    }
    try:
        _header_fields(header)
        header = json.dumps(header, allow_nan=False).encode("utf-8")
    except (TypeError, ValueError, OverflowError) as exc:  # InvalidInputError is a ValueError
        raise InvalidInputError(f"{path}: bad header ({exc})") from None
    tuples = _synced_columns(episode, f"{path}: ")
    try:
        with _replacing(path) as fh:
            fh.write(_EPISODE_HEAD.pack(EPISODE_MAGIC, EPISODE_VERSION, len(header)))
            fh.write(header)
            _write_records(fh, tuples)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


def _synced_columns(episode: Episode, where: str) -> SyncedColumns:
    """episode.tuples as a SyncedColumns, a list turned into columns once. A tuple whose stream ids
    are not the episode's streams, or a tick or member timestamp that is not a time, is an
    InvalidInputError whose message starts with where."""
    streams, tuples = set(episode.streams), episode.tuples
    if isinstance(tuples, SyncedColumns):  # its ticks share one set of stream ids
        if len(tuples):
            _check_streams(tuples.streams, streams, InvalidInputError, f"{where}tick {tuples.ticks.item(0)}")
        return tuples
    for tup in tuples:
        _check_streams(tup.members, streams, InvalidInputError, f"{where}tick {tup.tick_time_us}")
    try:
        return SyncedColumns.of(tuples, sorted(streams))
    except InvalidInputError as exc:
        raise InvalidInputError(f"{where}{exc}") from None


def _check_streams(sids: dict, streams: set, error: type, where: str) -> None:
    """error(where: ...) unless the keys of sids are the stream ids streams."""
    if sids.keys() != streams:
        raise error(f"{where}: stream ids {sorted(sids)} are not the episode's streams {sorted(streams)}")


def _write_record(fh, tup: SyncedTuple) -> bytes:
    """tup as one record on fh: its length, the tuple, then the tuple's CRC32. Returns the record."""
    try:
        payload = _encode_tuple(tup)
    except struct.error as exc:
        raise InvalidInputError(f"tick {tup.tick_time_us}: a value does not fit the episode format ({exc})") from None
    except UnicodeEncodeError as exc:  # a lone surrogate
        raise InvalidInputError(f"tick {tup.tick_time_us}: a stream id or frame name is not UTF-8 ({exc})") from None
    record = b"".join((_U32.pack(len(payload)), payload, _U32.pack(zlib.crc32(payload))))
    fh.write(record)
    return record


def _write_records(fh, tuples: SyncedColumns) -> None:
    """tuples as records on fh, the bytes that _write_record writes for each. The first record
    of a run is written alone, and the rest of the run a block at a time, from columns."""
    i = 0
    while i < len(tuples):
        run, record = _Run(), _write_record(fh, tuples[i])
        _decode_tuple(memoryview(record)[_U32.size : -_U32.size], "", (), run)
        run.seal(record)
        i += 1
        while run.most and i < len(tuples):
            block = run.encode(tuples[i : i + run.most])
            if not len(block):
                break
            fh.write(block)
            i += len(block)


class _FileReader(_Reader):
    """A _Reader over an open file or pipe, whose takes are views of a writable buffer that the
    next take may overwrite. A piece longer than what is left of a file is a TruncatedFileError
    before anything is allocated for it; a file's takes share one buffer. A pipe has no such
    bound, so each take's buffer grows only as bytes arrive, by at most _PIPE_STEP a read."""

    def __init__(self, fh, context: str):
        self.fh = fh
        st = os.fstat(fh.fileno())
        self.left = st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else math.inf
        self.context = context
        self.buf = bytearray()

    def take(self, n: int) -> memoryview:
        if n > self.left:
            raise TruncatedFileError(f"{self.context}: truncated")
        if self.left == math.inf:
            self.buf = bytearray()
            while len(self.buf) < n:
                piece = self.fh.read(min(n - len(self.buf), _PIPE_STEP))
                if not piece:
                    raise TruncatedFileError(f"{self.context}: truncated")
                self.buf += piece
            return memoryview(self.buf)
        if n > len(self.buf):
            self.buf = bytearray(n)
        out = memoryview(self.buf)[:n]
        if self.fh.readinto(out) != n:  # the file shrank while it was read
            raise TruncatedFileError(f"{self.context}: truncated")
        self.left -= n
        return out

    def give_back(self, n: int) -> None:
        """Undo the taking of the last n bytes of a file."""
        self.fh.seek(-n, os.SEEK_CUR)
        self.left += n


def _read_record(r: _Reader, keep=None, run=None) -> SyncedTuple:
    """The tuple of the next record, decoded as _decode_tuple does once its CRC32 matches; a
    _Run given as run is sealed with the record."""
    length = bytes(r.take(_U32.size))
    (n,) = _U32.unpack(length)
    record = r.take(n + _U32.size)  # the tuple, its CRC32
    if zlib.crc32(record[:n]) != _U32.unpack_from(record, n)[0]:
        raise ChecksumError(f"{r.context}: CRC32 mismatch")
    tup = _decode_tuple(record[:n], r.context, keep, run)
    if run is not None:
        run.seal(length, record)
    return tup


def _read_block(r: _FileReader, run: _Run, keep, most: int):
    """Up to most of the records next in the file as a SyncedColumns, read as one block while
    they hold run's fixed bytes: [] when the next record does not, and None, with the block's
    bytes given back, when a record of the block fails its CRC32 or a check."""
    k = min(most, run.most, r.left // run.size)
    if not k:
        return []
    same_length = r.take(_U32.size) == run.row[: _U32.size].tobytes()
    r.give_back(_U32.size)
    if not same_length:  # the run ends before a block of records of another length is read
        return []
    rows = np.frombuffer(r.take(k * run.size), np.uint8).reshape(k, run.size)
    same = (rows[:, run.fixed] == run.fixed_bytes).all(axis=1)
    n = k if same.all() else int(same.argmin())
    tuples = run.decode(rows[:n], keep) if n else []
    r.give_back((k - n if tuples is not None else k) * run.size)
    return tuples


def read_episode(path, keep=None) -> Episode:
    """The episode in the .vtep file at path. A record whose stream ids repeat, or are not
    the header's streams, or a byte after the header's tuple_count records, is an
    EpisodeLoadError.

    keep: a tuple of stream-id prefixes, such as (TACTILE_PREFIX, JOINTS_STREAM), or () for
    none; only the payloads of members whose stream ids start with one of them are built.
    Every other payload is skipped, which runs every check that building it runs, and its
    member holds None with its stream id and timestamp; keep=None builds every payload.
    Records are read a block at a time (see _Run), with the values and errors of a read record
    by record: a block in which a record fails is read again record by record, and so is the
    rest of the file. Memory holds one block plus the payloads built.

    The episode's tuples are a SyncedColumns: a tick column, and per stream a timestamp column
    and one list of its payloads (None for each payload skipped), each payload built once, on
    load. A SyncedTuple is built only when it is read, and only the first record of each run,
    which the walker reads, is built on load.
    """
    with open(path, "rb") as fh:
        if fh.read(len(EPISODE_MAGIC)) != EPISODE_MAGIC:
            raise EpisodeVersionError(f"{path}: bad magic, not an episode file")
        fh.seek(0)
        r = _FileReader(fh, f"{path} header")
        _, version, header_len = _EPISODE_HEAD.unpack(r.take(_EPISODE_HEAD.size))
        if version != EPISODE_VERSION:
            raise EpisodeVersionError(f"{path}: unsupported version {version}")
        try:
            header = jsonio.loads(str(r.take(header_len), "utf-8"))
            rate_hz, tolerance_us, streams, metadata, tuple_count = _header_fields(header)
        except KeyError as exc:
            raise EpisodeLoadError(f"{path}: header lacks {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:  # InvalidInputError is a ValueError
            raise EpisodeLoadError(f"{path}: bad header ({exc})") from None
        parts, count, sids, wanted = [], 0, streams, set(streams)
        run, blocks = None, r.left < math.inf  # a pipe gives nothing back
        while count < tuple_count:
            r.context = f"{path} record {count}"
            if run is not None:
                block = _read_block(r, run, keep, tuple_count - count)
                if block:
                    parts.append(block)
                    count += len(block)
                    continue
                blocks = block is not None
            run = _Run() if blocks else None
            tup = _read_record(r, keep, run)
            _check_streams(tup.members, wanted, EpisodeLoadError, r.context)
            sids = sids if parts else list(tup.members)  # members keep the order of the file's first record
            parts.append(SyncedColumns.of([tup], sids))
            count += 1
        if fh.read(1):
            raise EpisodeLoadError(f"{path}: bytes after the last of its {tuple_count} records")
    return Episode(rate_hz, tolerance_us, streams, SyncedColumns.concat(parts, sids), metadata)


def cpus() -> int:
    """The number of CPUs this process may run on: the one rule for fuse's fork and the tracker's thread."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _received(r: _FileReader, context: str):
    """The next record's tuple, or None when the pipe ends within it or its CRC32 does not match."""
    r.context = context
    try:
        return _read_record(r)
    except (TruncatedFileError, ChecksumError):
        return None


def map_ticks(tick: Callable, tuples: Sequence) -> list:
    """[tick(t) for t in tuples], with the ticks split between this process and one forked worker.

    tick maps a SyncedTuple to a SyncedTuple that write_episode takes and must change nothing
    else, since what the worker changes stays in the worker. This process runs tick 0 before it
    forks, so a process that ends within its first tick has started no worker. Of the ticks
    after it, this process runs the 1st, 3rd, 5th, ... and the worker the 2nd, 4th, 6th, ...,
    which it sends back through a pipe as .vtep records. After each of its own ticks this
    process decodes, and so checks, the worker's next one, so the result is in tick order and
    neither side holds more than about one record. A tick the worker does not deliver whole (it
    raised, crashed or was killed, or its record fails its CRC32) this process runs itself, so
    the result and the first error raised are those of the serial loop. The worker never
    returns from here: it ends in os._exit, and this process kills and reaps it before it
    returns or raises. The loop stays serial without os.fork, on one CPU, with fewer than 3
    ticks, or while another thread runs, since a fork copies only the calling thread.
    """
    if not hasattr(os, "fork") or len(tuples) < 3 or cpus() < 2 or threading.active_count() > 1:
        return [tick(t) for t in tuples]
    out, rest = [tick(tuples[0])], tuples[1:]
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(read_end)
        os.close(write_end)
        return out + [tick(t) for t in rest]
    if pid == 0:  # the worker
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                for tup in rest[1::2]:
                    _write_record(pipe, tick(tup))
                    pipe.flush()
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            r = _FileReader(pipe, "worker")
            for i, tup in enumerate(rest, 1):
                theirs = None if i % 2 else _received(r, f"worker tick {i}")
                out.append(tick(tup) if theirs is None else theirs)
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    return out
