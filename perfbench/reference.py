"""Reference code the checks rely on, written without importing vitac.

The frame writer, the episode reader and the quaternion math follow the
file formats described in the project README. A fault in the program
therefore cannot hide in the code that checks it.
"""

from __future__ import annotations

import binascii
import json
import struct
import zlib

import numpy as np

FRAME_MAGIC = b"\xa5\x5a"
FRAME_VERSION = 1
FRAME_LEN = 338
READING_BITS = 10
R_MAX = 1023

EPISODE_MAGIC = b"VTEP"


def encode_frames(pad_ids, seqs, timestamps_us, readings) -> list[bytes]:
    """Wire frames for N readings grids: 10-bit MSB-first payload, CRC-16/CCITT-FALSE."""
    r = np.asarray(readings, dtype=np.uint16).reshape(-1, 256)
    shifts = np.arange(READING_BITS - 1, -1, -1, dtype=np.uint16)
    bits = ((r[:, :, None] >> shifts) & 1).astype(np.uint8).reshape(len(r), -1)
    payloads = np.packbits(bits, axis=1)
    frames = []
    for pad, seq, ts, payload in zip(pad_ids, seqs, timestamps_us, payloads):
        body = (
            FRAME_MAGIC
            + bytes([FRAME_VERSION, int(pad)])
            + struct.pack("<IQ", int(seq), int(ts))
            + payload.tobytes()
        )
        frames.append(body + binascii.crc_hqx(body, 0xFFFF).to_bytes(2, "big"))
    return frames


class _Cursor:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ValueError("record ends early")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self) -> str:
        (n,) = self.unpack("<H")
        return self.take(n).decode("utf-8")


def _payload(c: _Cursor):
    (tag,) = c.unpack("<B")
    if tag == 1:
        pad_id, normalized, _ = c.unpack("<HBq")
        dtype, size = ("<f8", 8) if normalized else ("<u2", 2)
        return ("tactile", pad_id, np.frombuffer(c.take(256 * size), dtype=dtype).reshape(16, 16))
    if tag in (2, 4):
        c.text()  # frame label
        (n,) = c.unpack("<I")
        width = 4 if tag == 2 else 6
        return ("cloud" if tag == 2 else "fused", np.frombuffer(c.take(n * width * 8), "<f8").reshape(n, width))
    if tag == 3:
        _, n = c.unpack("<qH")
        return ("joints", np.frombuffer(c.take(n * 8), "<f8"))
    raise ValueError(f"unknown payload tag {tag}")


def iter_episode(path):
    """Yield (tick_us, {stream_id: (timestamp_us, payload)}) one record at a time."""
    with open(path, "rb") as fh:
        head = fh.read(10)
        if head[:4] != EPISODE_MAGIC or struct.unpack_from("<H", head, 4)[0] != 1:
            raise ValueError(f"{path}: not a version-1 episode file")
        (n,) = struct.unpack_from("<I", head, 6)
        header = json.loads(fh.read(n))
        for _ in range(int(header["tuple_count"])):
            (size,) = struct.unpack("<I", fh.read(4))
            record = fh.read(size)
            (crc,) = struct.unpack("<I", fh.read(4))
            if len(record) != size or zlib.crc32(record) != crc:
                raise ValueError(f"{path}: damaged record")
            c = _Cursor(record)
            tick, n_members = c.unpack("<qH")
            members = {}
            for _ in range(n_members):
                sid = c.text()
                (ts,) = c.unpack("<q")
                members[sid] = (ts, _payload(c))
            yield tick, members
        if fh.read(1):
            raise ValueError(f"{path}: bytes after the last record")


def geodesic_deg(q1, q2) -> float:
    """Rotation angle between two scalar-first unit quaternions, in degrees."""
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    q1 = q1 / np.sqrt(np.dot(q1, q1))
    q2 = q2 / np.sqrt(np.dot(q2, q2))
    return float(np.degrees(2.0 * np.arccos(min(1.0, abs(float(np.dot(q1, q2)))))))


def quat_about_z(angle_deg: float) -> list[float]:
    half = np.radians(angle_deg) / 2.0
    return [float(np.cos(half)), 0.0, 0.0, float(np.sin(half))]


def fps_greedy_violation(xyz: np.ndarray, picks: np.ndarray) -> int | None:
    """First position i >= 1 whose pick is not the farthest point, or None.

    The farthest point maximizes the minimum squared distance to the points
    already picked; ties go to the lowest index.
    """
    xyz = np.asarray(xyz, dtype=np.float64)
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    dmin = np.full(len(xyz), np.inf)
    for i in range(1, len(picks)):
        p = xyz[picks[i - 1]]
        dx, dy, dz = x - p[0], y - p[1], z - p[2]
        np.minimum(dmin, dx * dx + dy * dy + dz * dz, out=dmin)
        dmin[picks[i - 1]] = -1.0  # picked points stay excluded: min(-1, d) == -1
        if int(np.argmax(dmin)) != int(picks[i]):
            return i
    return None
