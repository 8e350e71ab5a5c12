import numpy as np
import pytest

from vitac.errors import InvalidInputError
from vitac.frame_codec import (
    CRC_OFFSET,
    FRAME_LEN,
    HEADER_LEN,
    PAYLOAD_LEN,
    BadMagicError,
    BadVersionError,
    CrcMismatchError,
    FrameBatch,
    FrameDecodeError,
    NeedMoreDataError,
    StreamDecoder,
    WireFrame,
    crc16_ccitt_false,
    decode_frame,
    encode_frame,
    frame_lines,
    pack_readings,
    unpack_readings,
)
from vitac.sensor_model import TactileFrame


def random_frame(rng, pad_id=None):
    return TactileFrame(
        pad_id=int(rng.integers(0, 256)) if pad_id is None else pad_id,
        timestamp_us=int(rng.integers(0, 2**63)),
        readings=rng.integers(0, 1024, size=(16, 16)),
    )


def _crc16_bitwise(data: bytes) -> int:
    # reference: polynomial 0x1021 shifted in one bit at a time, MSB-first, from 0xFFFF
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
    return crc


def test_crc_check_value():
    # CRC-16/CCITT-FALSE reference check value
    assert crc16_ccitt_false(b"123456789") == 0x29B1
    assert _crc16_bitwise(b"123456789") == 0x29B1


def test_crc_matches_bitwise_reference():
    rng = np.random.default_rng(10)
    for _ in range(300):
        data = rng.integers(0, 256, size=int(rng.integers(0, 400)), dtype=np.uint8).tobytes()
        assert crc16_ccitt_false(data) == _crc16_bitwise(data)


def _packed_reference(readings) -> bytes:
    """The payload of readings built bit by bit, independently of the codec's packing."""
    bits = "".join(format(int(r), "010b") for r in np.ravel(readings))
    return np.packbits([int(b) for b in bits]).tobytes()


def test_encode_frame_known_answer():
    # expected bytes built field by field, independently of the codec's packing
    readings = (np.arange(256).reshape(16, 16) * 37) % 1024
    payload = _packed_reference(readings)
    body = (
        b"\xa5\x5a"
        + (1).to_bytes(1, "little")
        + (0x7E).to_bytes(1, "little")
        + (0xA1B2C3D4).to_bytes(4, "little")
        + (0x0102030405060708).to_bytes(8, "little")
        + payload
    )
    expected = body + _crc16_bitwise(body).to_bytes(2, "big")
    assert len(expected) == FRAME_LEN
    frame = TactileFrame(0x7E, 0x0102030405060708, readings)
    assert encode_frame(frame, seq=0xA1B2C3D4) == expected
    wire = decode_frame(expected)
    assert (wire.pad_id, wire.seq, wire.timestamp_us) == (0x7E, 0xA1B2C3D4, 0x0102030405060708)
    assert np.array_equal(wire.readings, readings)


def test_payload_size():
    assert PAYLOAD_LEN == -(-256 * 10 // 8) == 320
    assert FRAME_LEN == 338
    assert (HEADER_LEN, CRC_OFFSET) == (16, 336)


def test_all_zero_frame():
    frame = TactileFrame(0, 0, np.zeros((16, 16), dtype=int))
    data = encode_frame(frame, seq=0)
    assert len(data) == 338
    assert data[16:336] == bytes(320)


def test_all_ones_payload():
    frame = TactileFrame(0, 0, np.full((16, 16), 1023))
    data = encode_frame(frame, seq=0)
    assert data[16:336] == b"\xff" * 320


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(100):
        readings = rng.integers(0, 1024, size=(16, 16))
        assert np.array_equal(unpack_readings(pack_readings(readings)), readings)


def test_pack_unpack_every_value_at_every_taxel():
    # frame v holds (v + i) % 1024 at taxel i, so the 1024 frames put every value at every taxel
    for readings in (np.arange(1024)[:, None] + np.arange(256)) % 1024:
        packed = pack_readings(readings.reshape(16, 16))
        assert packed == _packed_reference(readings)
        assert np.array_equal(unpack_readings(packed).ravel(), readings)


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(200):
        frame = random_frame(rng)
        seq = int(rng.integers(0, 2**32))
        wire = decode_frame(encode_frame(frame, seq))
        assert wire.pad_id == frame.pad_id
        assert wire.seq == seq
        assert wire.timestamp_us == frame.timestamp_us
        assert np.array_equal(wire.readings, frame.readings)


def test_encode_rejects_out_of_range():
    high = np.zeros((16, 16), dtype=int)
    high[0, 0] = 1024
    with pytest.raises(InvalidInputError):
        encode_frame(TactileFrame(0, 0, high), seq=0)
    frame = TactileFrame(0, 0, np.zeros((16, 16), dtype=int))
    with pytest.raises(InvalidInputError):
        encode_frame(frame, seq=2**32)
    with pytest.raises(InvalidInputError, match="only raw frames can be encoded"):
        encode_frame(TactileFrame(0, 0, np.zeros((16, 16)), normalized=True), seq=0)


@pytest.mark.parametrize(
    "value", [65541, 70000, -1, 1.7, 1024, np.uint16(1024), np.nan], ids=repr
)
def test_readings_outside_10_bits_are_rejected(value):
    with pytest.raises(InvalidInputError, match="raw readings must be"):
        WireFrame(0, 0, 0, np.full(256, value))
    with pytest.raises(InvalidInputError, match="raw readings must be"):
        pack_readings(np.full(256, value))


def test_decode_flipped_byte_is_crc_mismatch():
    rng = np.random.default_rng(2)
    data = bytearray(encode_frame(random_frame(rng), seq=7))
    for pos in (16, 100, 335):
        bad = bytearray(data)
        bad[pos] ^= 0x40
        with pytest.raises(CrcMismatchError):
            decode_frame(bytes(bad))


def test_decode_bad_version():
    rng = np.random.default_rng(3)
    data = bytearray(encode_frame(random_frame(rng), seq=1))
    data[2] = 2
    # patch the CRC so only the version check can fail
    crc = crc16_ccitt_false(bytes(data[:336]))
    data[336:338] = crc.to_bytes(2, "big")
    with pytest.raises(BadVersionError):
        decode_frame(bytes(data))


def test_stream_decoder_skips_bad_version_frame():
    zeros = np.zeros((16, 16), dtype=int)
    bad = bytearray(encode_frame(TactileFrame(0, 1, zeros), seq=1))
    bad[2] = 2
    bad[CRC_OFFSET:] = crc16_ccitt_false(bytes(bad[:CRC_OFFSET])).to_bytes(2, "big")
    good = [encode_frame(TactileFrame(0, seq, zeros), seq) for seq in (0, 2)]
    stream = good[0] + bytes(bad) + good[1]
    dec = StreamDecoder()
    assert [w.seq for w in dec.feed(stream)] == [0, 2]
    assert dec.diagnostics.bad_versions == 1
    assert dec.diagnostics.bytes_skipped == FRAME_LEN


def test_decode_short_input():
    with pytest.raises(NeedMoreDataError):
        decode_frame(b"\xa5\x5a\x01")


def test_decode_bad_magic_and_unpack_wrong_payload_length():
    data = bytearray(encode_frame(TactileFrame(0, 0, np.zeros((16, 16), dtype=int)), seq=0))
    data[0] = 0x5A
    with pytest.raises(BadMagicError):
        decode_frame(bytes(data))
    with pytest.raises(InvalidInputError, match=f"payload must be {PAYLOAD_LEN} bytes, got {PAYLOAD_LEN - 1}"):
        unpack_readings(bytes(PAYLOAD_LEN - 1))


def _stream_of(frames_and_seqs):
    return b"".join(encode_frame(f, s) for f, s in frames_and_seqs)


def test_stream_decoder_chunked():
    rng = np.random.default_rng(4)
    frames = [(random_frame(rng), i) for i in range(10)]
    stream = _stream_of(frames)
    dec = StreamDecoder()
    out = []
    for i in range(0, len(stream), 7):
        out.extend(dec.feed(stream[i : i + 7]))
        assert dec.pending_bytes <= 2 * FRAME_LEN
    assert [w.seq for w in out] == list(range(10))
    assert dec.diagnostics.frames == 10
    assert dec.diagnostics.bytes_skipped == 0


def _resealed(frame: bytes, version: int) -> bytes:
    data = bytearray(frame)
    data[2] = version
    data[CRC_OFFSET:] = crc16_ccitt_false(bytes(data[:CRC_OFFSET])).to_bytes(2, "big")
    return bytes(data)


def test_stream_decoder_chunking_invariance():
    rng = np.random.default_rng(5)
    frames = [(random_frame(rng), i) for i in range(20)]
    wire = [encode_frame(f, s) for f, s in frames]
    corrupt = bytearray(wire[3])
    corrupt[HEADER_LEN + 7] ^= 0x10  # a payload bit: the CRC fails
    wire[3], wire[11] = bytes(corrupt), _resealed(wire[11], 2)
    junk = {0: b"junk", 8: b"\xa5noise\xa5", 12: b"\xa5", 19: b"\x00" * 30}
    stream = b"".join(junk.get(i, b"") + w for i, w in enumerate(wire)) + b"\xa5"
    sent = [(f, s) for f, s in frames if s not in (3, 11)]
    expected = None
    chunkings = [[len(stream)], [1] * len(stream)]
    for _ in range(30):
        cuts = np.sort(rng.integers(0, len(stream) + 1, size=rng.integers(1, 40)))
        chunkings.append(np.diff(np.concatenate([[0], cuts, [len(stream)]])).tolist())
    for sizes in chunkings:
        dec = StreamDecoder()
        out, at = [], 0
        for n in sizes:
            out.extend(dec.feed(stream[at : at + n]))
            at += n
        assert [(w.pad_id, w.seq, w.timestamp_us) for w in out] == [(f.pad_id, s, f.timestamp_us) for f, s in sent]
        for w, (f, _) in zip(out, sent):
            assert w.readings.dtype == np.uint16 and not w.readings.flags.writeable
            assert np.array_equal(w.readings, f.readings)
        if expected is None:
            expected = dec.diagnostics.to_dict()
            garbage = sum(map(len, junk.values())) + 2 * (FRAME_LEN - 2)  # each bad frame's body
            assert expected == {"frames": 18, "bytes_skipped": garbage + 4, "resync_events": 7,
                                "crc_mismatches": 1, "bad_versions": 1}
        assert dec.diagnostics.to_dict() == expected
        assert dec.pending_bytes == 1  # the trailing first magic byte


def test_stream_decoder_prepended_garbage():
    rng = np.random.default_rng(6)
    frames = [(random_frame(rng), i) for i in range(3)]
    garbage = b"\x01\x02\x03\x04\x05"
    dec = StreamDecoder()
    out = dec.feed(garbage + _stream_of(frames))
    assert [w.seq for w in out] == [0, 1, 2]
    assert dec.diagnostics.bytes_skipped == 5


def test_stream_decoder_corruption_recovery():
    rng = np.random.default_rng(7)
    frames = [(random_frame(rng), i) for i in range(10)]
    stream = bytearray(_stream_of(frames))
    pos = 3 * FRAME_LEN + int(rng.integers(0, FRAME_LEN))  # inside frame 3
    stream[pos] ^= 0xFF
    dec = StreamDecoder()
    out = dec.feed(bytes(stream))
    seqs = [w.seq for w in out]
    assert len(seqs) >= 9
    assert set(range(10)) - set(seqs) <= {3}


def test_stream_decoder_corruption_fuzz():
    # fuzz oracle: any single corrupted byte costs at most the frame it hits
    rng = np.random.default_rng(8)
    frames = [(random_frame(rng), i) for i in range(10)]
    clean = _stream_of(frames)
    for _ in range(300):
        stream = bytearray(clean)
        pos = int(rng.integers(0, len(stream)))
        flip = int(rng.integers(1, 256))
        stream[pos] ^= flip
        dec = StreamDecoder()
        out = dec.feed(bytes(stream))
        assert len(out) >= 9, f"lost too many frames corrupting byte {pos}"


def test_stream_decoder_burst_resync():
    rng = np.random.default_rng(9)
    frames = [(random_frame(rng), i) for i in range(6)]
    stream = _stream_of(frames[:3]) + bytes(rng.integers(0, 256, size=200, dtype=np.uint8)) + _stream_of(frames[3:])
    dec = StreamDecoder()
    out = dec.feed(stream)
    seqs = [w.seq for w in out]
    # every intact frame after the burst is recovered
    assert seqs[:3] == [0, 1, 2]
    assert seqs[-3:] == [3, 4, 5]


def _wire_fields(w) -> tuple:
    return w.pad_id, w.seq, w.timestamp_us, w.readings.dtype.str, w.readings.flags.writeable, w.readings.tobytes()


def test_each_batch_item_is_decode_frame_of_its_bytes():
    # over random chunkings of a stream with junk and flipped bytes, the batches' items are the
    # WireFrames that decode_frame gives for the frames that survive, and every batch is read-only
    rng = np.random.default_rng(12)
    frames = [(random_frame(rng), i) for i in range(24)]
    stream, offsets = bytearray(), []
    for f, seq in frames:
        stream += rng.integers(0, 0xA5, int(rng.integers(0, 9)), dtype=np.uint8).tobytes()  # junk, no magic
        offsets.append(len(stream))
        stream += encode_frame(f, seq)
    for _ in range(25):
        data = bytearray(stream)
        for at in rng.integers(0, len(data), int(rng.integers(0, 5))):
            data[at] ^= int(rng.integers(1, 256))
        want = []
        for at in offsets:
            try:
                want.append(decode_frame(bytes(data[at : at + FRAME_LEN])))
            except FrameDecodeError:
                pass
        cuts = np.sort(rng.integers(0, len(data) + 1, int(rng.integers(1, 30)))).tolist()
        dec, got = StreamDecoder(), []
        for lo, hi in zip([0, *cuts], [*cuts, len(data)]):
            batch = dec.feed(bytes(data[lo:hi]))
            assert isinstance(batch, FrameBatch)
            assert batch.readings.shape == (len(batch), 16, 16) and batch.readings.dtype == np.uint16
            assert not batch.readings.flags.writeable
            assert all(isinstance(w, WireFrame) for w in batch)
            got.extend(batch)
        assert [_wire_fields(w) for w in got] == [_wire_fields(w) for w in want]
        assert dec.diagnostics.frames == len(want)


def test_frame_batch_is_a_sequence_of_wire_frames():
    rng = np.random.default_rng(13)
    frames = [WireFrame(i, 10 + i, 1000 * i, rng.integers(0, 1024, (16, 16))) for i in range(5)]
    batch = FrameBatch.of(frames)
    assert len(batch) == 5 and [w.seq for w in batch] == [10, 11, 12, 13, 14]
    assert _wire_fields(batch[-1]) == _wire_fields(frames[-1])
    assert frame_lines(batch) == frame_lines(frames) == frame_lines(frames[:2]) + frame_lines(frames[2:])
    empty = StreamDecoder().feed(b"")
    assert len(empty) == 0 and empty.readings.shape == (0, 16, 16) and frame_lines(empty) == b""
    with pytest.raises(InvalidInputError, match="raw readings must be integers in \\[0, 1023\\]"):
        FrameBatch([(0, 0, 0)], np.full((1, 16, 16), 1024))
    with pytest.raises(InvalidInputError, match=r"readings must be 2 frames of \(16, 16\), got \(1, 16, 16\)"):
        FrameBatch([(0, 0, 0)] * 2, np.zeros((1, 16, 16)))
