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
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import (
    ChecksumError,
    EpisodeLoadError,
    EpisodeVersionError,
    InvalidInputError,
    StreamStarvedError,
    TruncatedFileError,
)
from .kinematics import JointState
from .pointcloud import CloudXYZF, FusedCloud
from .sensor_model import PAD_SHAPE, PAD_TAXELS, TactileFrame

JOINTS_STREAM = "joints"
TACTILE_PREFIX = "tactile/"  # tactile/<pad_id>

EPISODE_MAGIC = b"VTEP"
EPISODE_VERSION = 1
# magic, version, length of the JSON header that follows
_EPISODE_HEAD = struct.Struct("<4sHI")
_READING_DTYPES = (np.dtype("<u2"), np.dtype("<f8"))  # a tactile payload's raw and normalized readings


def tactile_stream(pad_id: int) -> str:
    return f"{TACTILE_PREFIX}{pad_id}"


def camera_stream(cam_id: int) -> str:
    return f"camera/{cam_id}"


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
        return self._payloads("camera/", CloudXYZF)

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
    if not (0 < rate_hz < np.inf):  # written so that NaN fails it
        raise InvalidInputError(f"rate must be positive and finite, got {rate_hz}")
    if not (0.5 < 1e6 / rate_hz < np.inf):  # round() gives 0 for the one and fails on the other
        raise InvalidInputError(f"rate {rate_hz} Hz has no finite tick period of 1 us or more")
    period_us = round(1e6 / rate_hz)
    return range(-(-start_us // period_us) * period_us, end_us + 1, period_us)


def align(streams, rate_hz: float = 10.0, tolerance_us: int = 50_000):
    """Match samples to a fixed tick grid; returns (tuples, drop_report).

    streams: mapping stream_id -> time-sorted sequence of TimedSample.
    Ticks are those of tick_grid over the interval where every stream has
    data. A tick is emitted only when every stream has a sample within the
    tolerance; otherwise the tick lands in the drop report with the
    offending streams named.
    """
    if tolerance_us < 0:
        raise InvalidInputError("tolerance must be nonnegative")
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
    for tick in tick_grid(rate_hz, window_start, window_end):
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
    i = bisect.bisect_left(sorted_ts, t)
    if i == 0:
        return 0
    if i == len(sorted_ts):
        return i - 1
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
    expected = len(tick_grid(episode.rate_hz, first, last))
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


_TAG_TACTILE = 1
_TAG_CLOUD = 2
_TAG_JOINTS = 3
_TAG_FUSED = 4


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _encode_payload(payload) -> bytes:
    if isinstance(payload, TactileFrame):
        head = struct.pack("<BHBq", _TAG_TACTILE, payload.pad_id, int(payload.normalized), payload.timestamp_us)
        return head + payload.readings.astype(_READING_DTYPES[bool(payload.normalized)]).tobytes()
    if isinstance(payload, (CloudXYZF, FusedCloud)):
        tag = _TAG_CLOUD if isinstance(payload, CloudXYZF) else _TAG_FUSED
        return (
            struct.pack("<B", tag)
            + _pack_str(payload.frame)
            + struct.pack("<I", len(payload))
            + payload.points.astype("<f8").tobytes()
        )
    if isinstance(payload, JointState):
        return (
            struct.pack("<BqH", _TAG_JOINTS, payload.timestamp_us, len(payload.positions))
            + payload.positions.astype("<f8").tobytes()
        )
    raise InvalidInputError(f"unsupported payload type {type(payload).__name__}")


class _Reader:
    """Bounds-checked cursor over a byte buffer; reading past its end is a TruncatedFileError.

    take returns views of the buffer, not copies; a payload decoded from a read-only
    buffer keeps it alive, and one decoded from a writable buffer copies its arrays.
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

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def read_str(self) -> str:
        (n,) = self.unpack("<H")
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError:
            raise EpisodeLoadError(f"{self.context}: a stream id or frame name is not UTF-8") from None


def _decode_payload(r: _Reader):
    (tag,) = r.unpack("<B")
    if tag == _TAG_TACTILE:
        pad_id, normalized, ts = r.unpack("<HBq")
        dtype = _READING_DTYPES[bool(normalized)]
        readings = np.frombuffer(r.take(PAD_TAXELS * dtype.itemsize), dtype=dtype).reshape(PAD_SHAPE)
        return TactileFrame(pad_id, ts, readings, normalized=bool(normalized))
    if tag in (_TAG_CLOUD, _TAG_FUSED):
        frame = r.read_str()
        (n,) = r.unpack("<I")
        width = 4 if tag == _TAG_CLOUD else 6
        pts = np.frombuffer(r.take(n * width * 8), dtype="<f8").reshape(n, width)
        cls = CloudXYZF if tag == _TAG_CLOUD else FusedCloud
        return cls(pts, frame)
    if tag == _TAG_JOINTS:
        ts, n = r.unpack("<qH")
        positions = np.frombuffer(r.take(n * 8), dtype="<f8")
        return JointState(positions, ts)
    raise EpisodeLoadError(f"{r.context}: unknown payload tag {tag}")


def _encode_tuple(tup: SyncedTuple) -> bytes:
    parts = [struct.pack("<qH", tup.tick_time_us, len(tup.members))]
    for sid in sorted(tup.members):
        sample = tup.members[sid]
        parts.append(_pack_str(sid))
        parts.append(struct.pack("<q", sample.timestamp_us))
        parts.append(_encode_payload(sample.payload))
    return b"".join(parts)


def _decode_tuple(buf: memoryview, context: str, keep=None) -> SyncedTuple:
    """The record's tuple; a member whose stream id starts with none of the keep prefixes is
    decoded, and so checked, but dropped. keep=None keeps every member."""
    r = _Reader(buf, context)
    view, read_only = r.buf, r.buf.toreadonly()  # a dropped member's arrays are not copied
    tick, n_members = r.unpack("<qH")
    members = {}
    for _ in range(n_members):
        sid = r.read_str()
        (ts,) = r.unpack("<q")
        kept = keep is None or sid.startswith(keep)
        r.buf = view if kept else read_only
        payload = _decode_payload(r)
        if kept:
            members[sid] = TimedSample(sid, ts, payload)
    return SyncedTuple(tick, members)


def write_episode(episode: Episode, path) -> None:
    header = json.dumps(
        {
            "rate_hz": episode.rate_hz,
            "tolerance_us": episode.tolerance_us,
            "streams": list(episode.streams),
            "metadata": episode.metadata,
            "tuple_count": len(episode.tuples),
        }
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_EPISODE_HEAD.pack(EPISODE_MAGIC, EPISODE_VERSION, len(header)))
        fh.write(header)
        for tup in episode.tuples:
            try:
                payload = _encode_tuple(tup)
            except struct.error as exc:
                raise InvalidInputError(
                    f"tick {tup.tick_time_us}: a value does not fit the episode format ({exc})"
                ) from None
            fh.write(struct.pack("<I", len(payload)))
            fh.write(payload)
            fh.write(struct.pack("<I", zlib.crc32(payload)))


class _FileReader(_Reader):
    """A _Reader over an open file. A piece longer than what is left of the file is a
    TruncatedFileError before anything is allocated for it."""

    def __init__(self, fh, context: str):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size - fh.tell()
        self.context = context
        self.buf = bytearray()

    def take(self, n: int, fresh: bool = False) -> memoryview:
        """The next n bytes: a view of a new bytes object when fresh, else of one reused,
        writable buffer that the next take overwrites."""
        if n > self.left:
            raise TruncatedFileError(f"{self.context}: truncated")
        if fresh:
            out = memoryview(self.fh.read(n))
            got = len(out)
        else:
            if n > len(self.buf):
                self.buf = bytearray(n)
            out = memoryview(self.buf)[:n]
            got = self.fh.readinto(out)
        if got != n:  # the file shrank while it was read
            raise TruncatedFileError(f"{self.context}: truncated")
        self.left -= n
        return out


def read_episode(path, keep=None) -> Episode:
    """The episode in the .vtep file at path, read one record at a time.

    keep: a tuple of stream-id prefixes, such as (TACTILE_PREFIX, JOINTS_STREAM); only the
    members and streams whose ids start with one of them are kept, but every member is
    decoded and checked. None keeps them all, as read-only views of each record's bytes.
    Otherwise records pass through one reused, writable buffer, so the members kept are
    copies and memory holds one record plus them.
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
            rate_hz, tolerance_us = float(header["rate_hz"]), int(header["tolerance_us"])
            streams, metadata = list(header["streams"]), dict(header.get("metadata", {}))
            tuple_count = int(header.get("tuple_count", 0))
            tick_grid(rate_hz, 0, -1)  # refuses a rate with no tick grid, such as "inf" (a string)
            if not all(isinstance(sid, str) for sid in streams):
                raise TypeError("stream ids must be strings")
        except KeyError as exc:
            raise EpisodeLoadError(f"{path}: header lacks {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:  # InvalidInputError is a ValueError
            raise EpisodeLoadError(f"{path}: bad header ({exc})") from None
        if tuple_count < 0:
            raise EpisodeLoadError(f"{path}: header tuple_count must be nonnegative, got {tuple_count}")
        tuples = []
        for i in range(tuple_count):
            r.context = f"{path} record {i}"
            (n,) = r.unpack("<I")
            record = r.take(n + 4, fresh=keep is None)  # the tuple's bytes, then their CRC32
            if zlib.crc32(record[:n]) != struct.unpack_from("<I", record, n)[0]:
                raise ChecksumError(f"{r.context}: CRC32 mismatch")
            tuples.append(_decode_tuple(record[:n], r.context, keep))
    if keep is not None:
        streams = [sid for sid in streams if sid.startswith(keep)]
    return Episode(rate_hz, tolerance_us, streams, tuples, metadata)
