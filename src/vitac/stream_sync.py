"""Alignment of timestamped streams into fixed-rate tuples, plus episode files.

Alignment picks, for every tick of the output grid, the nearest sample per
stream within a tolerance; a tick missing any stream is dropped and
reported rather than padded. The episode container is a binary file with a
JSON header and CRC32-protected records, so float payloads round-trip
bit-exact.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import signal
import stat
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import jsonio
from .errors import (
    ChecksumError,
    EpisodeLoadError,
    EpisodeVersionError,
    InvalidInputError,
    StreamStarvedError,
    TruncatedFileError,
    check_range,
)
from .kinematics import JointState
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
                    key = int(sid[len(prefix) :])
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

    def max_skew_us(self) -> int:
        if not self.members:
            return 0
        return max(abs(s.timestamp_us - self.tick_time_us) for s in self.members.values())


@dataclass(frozen=True)
class DroppedTick:
    tick_time_us: int
    missing: tuple


@dataclass
class DropReport:
    ticks_total: int = 0
    dropped: list = field(default_factory=list)
    per_stream: dict = field(default_factory=dict)

    def to_metadata(self) -> dict:
        return {
            "ticks_total": self.ticks_total,
            "dropped_ticks": [
                {"tick_time_us": d.tick_time_us, "missing": list(d.missing)} for d in self.dropped
            ],
            "drops_by_stream": dict(self.per_stream),
        }


def tick_grid(rate_hz: float, start_us: int, end_us: int) -> range:
    """The ticks of the rate_hz grid in [start_us, end_us], in microseconds.

    This is the one place where a rate becomes ticks: they sit on the
    multiples of a period of round(1e6 / rate_hz) whole microseconds. A rate
    whose period rounds to 0 (2 MHz and above) or overflows has no grid.
    """
    check_range("rate", rate_hz, 0, unit="Hz", ends="(]")
    if not (0.5 < 1e6 / rate_hz < np.inf):  # round() gives 0 for the one and fails on the other
        raise InvalidInputError(f"rate {rate_hz} Hz has no finite tick period of 1 us or more")
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

    streams: mapping stream_id -> time-sorted sequence of TimedSample.
    Ticks are those of tick_grid over the interval where every stream has
    data, at most MAX_TICKS of them. A tick is emitted only when every
    stream has a sample within the tolerance; otherwise the tick lands in
    the drop report with the offending streams named.
    """
    check_range("tolerance", tolerance_us, 0, unit="us")
    if not streams:
        raise InvalidInputError("no streams configured")
    times = {}
    for sid, samples in streams.items():
        ts = [s.timestamp_us for s in samples]
        if not ts:
            raise StreamStarvedError(f"stream {sid!r} has no samples")
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise InvalidInputError(f"stream {sid!r} timestamps are not sorted")
        times[sid] = ts
    window_start = max(ts[0] for ts in times.values())
    window_end = min(ts[-1] for ts in times.values())
    tuples = []
    report = DropReport(per_stream={sid: 0 for sid in streams})
    for tick in limit_ticks(tick_grid(rate_hz, window_start, window_end)):
        members = {}
        missing = []
        for sid, samples in streams.items():
            idx = _nearest_index(times[sid], tick)
            sample = samples[idx]
            if abs(sample.timestamp_us - tick) <= tolerance_us:
                members[sid] = sample
            else:
                missing.append(sid)
        report.ticks_total += 1
        if missing:
            report.dropped.append(DroppedTick(tick, tuple(missing)))
            for sid in missing:
                report.per_stream[sid] += 1
        else:
            tuples.append(SyncedTuple(tick, members))
    return tuples, report


def _nearest_index(sorted_ts, t: int) -> int:
    """The index of the timestamp nearest t, the earlier on a tie; t is at most sorted_ts[-1]."""
    i = bisect.bisect_left(sorted_ts, t)
    if i == 0:
        return 0
    return i - 1 if t - sorted_ts[i - 1] <= sorted_ts[i] - t else i


@dataclass
class Episode:
    """Ordered synchronized tuples plus the configuration that produced them."""

    rate_hz: float
    tolerance_us: int
    streams: list
    tuples: list
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EpisodeStats:
    duration_s: float
    tuple_count: int
    expected_ticks: int
    dropped_ticks: int
    max_skew_us: int
    drops_by_stream: dict

    @property
    def drop_rate(self) -> float:
        return self.dropped_ticks / self.expected_ticks if self.expected_ticks else 0.0


def episode_stats(episode: Episode) -> EpisodeStats:
    """Duration, drop counts inferred from the tick grid, and max member skew."""
    tuples = episode.tuples
    first, last = (tuples[0].tick_time_us, tuples[-1].tick_time_us) if tuples else (0, -1)
    grid = tick_grid(episode.rate_hz, first, last)
    expected = max(0, -(-(grid.stop - grid.start) // grid.step))  # len(grid) overflows past 2**63 ticks
    max_skew = max((t.max_skew_us() for t in tuples), default=0)
    drops_meta = episode.metadata.get("drop_report", {})
    return EpisodeStats(
        duration_s=(last - first) / 1e6 if tuples else 0.0,
        tuple_count=len(tuples),
        expected_ticks=expected,
        dropped_ticks=expected - len(tuples),
        max_skew_us=int(max_skew),
        drops_by_stream=dict(drops_meta.get("drops_by_stream", {})),
    )


# The record formats. A record is a u32 length, the tuple, then the tuple's CRC32 as a u32.
# A tuple is its tick and member count, then per member: stream id, timestamp, payload.
_U32 = struct.Struct("<I")
_TIME_COUNT = struct.Struct("<qH")  # a tuple's tick and member count; a joint state's head
_MEMBER_TS = struct.Struct("<q")
_STR_LEN = struct.Struct("<H")  # a string is its UTF-8 length, then its bytes
_TAG = struct.Struct("<B")
_F8 = np.dtype("<f8")
_READING_DTYPES = (np.dtype("<u2"), _F8)  # a tactile payload's raw and normalized readings


@dataclass(frozen=True)
class _PayloadLayout:
    """One payload tag: the tag byte, the frame name when named, the head, then the body.

    The body is an array whose dtype and shape follow from the head. build makes the value
    type from (head, frame, body), check runs its checks on the body without making it, and
    split gives the (head, body) of a value to encode.
    """

    cls: type
    head: struct.Struct
    named: bool
    body: Callable
    build: Callable
    check: Callable
    split: Callable


def _cloud_layout(cls) -> _PayloadLayout:
    return _PayloadLayout(
        cls, _U32, True,
        body=lambda head: (_F8, (head[0], cls.WIDTH)),
        build=lambda head, frame, body: cls(body, frame),
        check=lambda head, body: cls.check(body),
        split=lambda cloud: ((len(cloud),), cloud.points),
    )


_PAYLOADS = {
    1: _PayloadLayout(
        TactileFrame, struct.Struct("<HBq"), False,  # pad_id, normalized, timestamp_us
        body=lambda head: (_READING_DTYPES[bool(head[1])], PAD_SHAPE),
        build=lambda head, frame, body: TactileFrame(head[0], head[2], body, normalized=bool(head[1])),
        check=lambda head, body: TactileFrame.check(body, bool(head[1])),
        split=lambda f: ((f.pad_id, int(f.normalized), f.timestamp_us), f.readings),
    ),
    2: _cloud_layout(CloudXYZF),
    3: _PayloadLayout(
        JointState, _TIME_COUNT, False,  # timestamp_us, joint count
        body=lambda head: (_F8, (head[1],)),
        build=lambda head, frame, body: JointState(body, head[0]),
        check=lambda head, body: JointState.check(body),
        split=lambda joints: ((joints.timestamp_us, len(joints.positions)), joints.positions),
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


def _read_payload(r: _Reader, build: bool):
    """The next payload; when not build, skip it: run every check that building runs, return None."""
    (tag,) = r.unpack(_TAG)
    layout = _PAYLOADS.get(tag)
    if layout is None:
        raise EpisodeLoadError(f"{r.context}: unknown payload tag {tag}")
    frame = r.read_str() if layout.named else None
    head = r.unpack(layout.head)
    dtype, shape = layout.body(head)
    body = np.frombuffer(r.take(dtype.itemsize * math.prod(shape)), dtype).reshape(shape)
    try:
        if build:
            return layout.build(head, frame, body)
        layout.check(head, body)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{r.context}: {exc}") from None
    return None


def _encode_tuple(tup: SyncedTuple) -> bytes:
    parts = [_TIME_COUNT.pack(tup.tick_time_us, len(tup.members))]
    for sid in sorted(tup.members):
        sample = tup.members[sid]
        parts.append(_pack_str(sid))
        parts.append(_MEMBER_TS.pack(sample.timestamp_us))
        parts.append(_encode_payload(sample.payload))
    return b"".join(parts)


def _decode_tuple(buf: memoryview, context: str, keep=None) -> SyncedTuple:
    """The record's tuple. The payload of a member whose stream id starts with none of the keep
    prefixes is skipped, and so checked, and the member holds None; keep=None builds them all."""
    r = _Reader(buf, context)
    tick, n_members = r.unpack(_TIME_COUNT)
    members = {}
    for _ in range(n_members):
        sid = r.read_str()
        (ts,) = r.unpack(_MEMBER_TS)
        members[sid] = TimedSample(sid, ts, _read_payload(r, keep is None or sid.startswith(keep)))
    return SyncedTuple(tick, members)


def _header_fields(header: dict) -> tuple:
    """(rate_hz, tolerance_us, streams, metadata, tuple_count) of an episode header.

    A missing key, a value of the wrong type, a rate with no tick grid (such as "inf", a
    string), a negative tuple_count or a stream id that is not a string is a KeyError,
    TypeError, ValueError or OverflowError. The writer runs these checks too, so it refuses
    what the reader refuses.
    """
    rate_hz, tolerance_us = float(header["rate_hz"]), int(header["tolerance_us"])
    streams, metadata = list(header["streams"]), dict(header.get("metadata", {}))
    tuple_count = check_range("tuple_count", int(header.get("tuple_count", 0)), 0)
    tick_grid(rate_hz, 0, -1)
    if not all(isinstance(sid, str) for sid in streams):
        raise TypeError("stream ids must be strings")
    return rate_hz, tolerance_us, streams, metadata, tuple_count


def write_episode(episode: Episode, path) -> None:
    """episode as a .vtep file at path; a header that read_episode would refuse is an
    InvalidInputError, and nothing is written."""
    header = {
        "rate_hz": episode.rate_hz,
        "tolerance_us": episode.tolerance_us,
        "streams": list(episode.streams),
        "metadata": episode.metadata,
        "tuple_count": len(episode.tuples),
    }
    try:
        _header_fields(header)
        header = json.dumps(header, allow_nan=False).encode("utf-8")
    except (TypeError, ValueError, OverflowError) as exc:  # InvalidInputError is a ValueError
        raise InvalidInputError(f"{path}: bad header ({exc})") from None
    with open(path, "wb") as fh:
        fh.write(_EPISODE_HEAD.pack(EPISODE_MAGIC, EPISODE_VERSION, len(header)))
        fh.write(header)
        for tup in episode.tuples:
            _write_record(fh, tup)


def _write_record(fh, tup: SyncedTuple) -> None:
    """tup as one record on fh: its length, the tuple, then the tuple's CRC32."""
    try:
        payload = _encode_tuple(tup)
    except struct.error as exc:
        raise InvalidInputError(f"tick {tup.tick_time_us}: a value does not fit the episode format ({exc})") from None
    fh.write(_U32.pack(len(payload)))
    fh.write(payload)
    fh.write(_U32.pack(zlib.crc32(payload)))


class _FileReader(_Reader):
    """A _Reader over an open file or pipe, whose takes are views of one reused, writable buffer
    that the next take overwrites. A piece longer than what is left of a file is a
    TruncatedFileError before anything is allocated for it; a pipe has no such bound."""

    def __init__(self, fh, context: str):
        self.fh = fh
        st = os.fstat(fh.fileno())
        self.left = st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else math.inf
        self.context = context
        self.buf = bytearray()

    def take(self, n: int) -> memoryview:
        if n > self.left:
            raise TruncatedFileError(f"{self.context}: truncated")
        if n > len(self.buf):
            self.buf = bytearray(n)
        out = memoryview(self.buf)[:n]
        if self.fh.readinto(out) != n:  # the file shrank while it was read
            raise TruncatedFileError(f"{self.context}: truncated")
        self.left -= n
        return out


def _read_record(r: _Reader, keep=None) -> SyncedTuple:
    """The tuple of the next record, decoded as _decode_tuple does once its CRC32 matches."""
    (n,) = r.unpack(_U32)
    record = r.take(n + _U32.size)  # the tuple, its CRC32
    if zlib.crc32(record[:n]) != _U32.unpack_from(record, n)[0]:
        raise ChecksumError(f"{r.context}: CRC32 mismatch")
    return _decode_tuple(record[:n], r.context, keep)


def read_episode(path, keep=None) -> Episode:
    """The episode in the .vtep file at path.

    keep: a tuple of stream-id prefixes, such as (TACTILE_PREFIX, JOINTS_STREAM), or () for
    none; only the payloads of members whose stream ids start with one of them are built.
    Every other payload is skipped, which runs every check that building it runs, and its
    member holds None with its stream id and timestamp; keep=None builds every payload. The
    records pass through one reused, writable buffer, so the payloads built are copies and
    memory holds one record plus them.
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
        tuples = []
        for i in range(tuple_count):
            r.context = f"{path} record {i}"
            tuples.append(_read_record(r, keep))
    return Episode(rate_hz, tolerance_us, streams, tuples, metadata)


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


def map_ticks(tick: Callable, tuples: list) -> list:
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
