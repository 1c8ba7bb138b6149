import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentwire.wire import (
    ACK_BAD_CRC,
    ACK_BAD_MAGIC,
    ACK_BAD_VERSION,
    ACK_SHAPE_MISMATCH,
    ACK_TRUNCATED,
    BadCrcError,
    BadMagicError,
    BadVersionError,
    FrameScanner,
    FrameShapeError,
    LatentRecord,
    MAX_FRAME_BYTES,
    OversizeRecordError,
    TruncatedFrameError,
    UNLABELED,
    WireDecodeError,
    decode_record,
    encode_record,
    record_from_tensor,
)

HEADER_LEN = 10
CRC_LEN = 4


def make_record(device=1, record=2, label=3, shape=(2, 2), seed=0):
    payload = np.random.default_rng(seed).random(int(np.prod(shape))).astype("<f4")
    return LatentRecord(device, record, label, shape, payload)


# --- layout -------------------------------------------------------------------

def test_single_element_body_is_24_bytes():
    rec = LatentRecord(0, 0, 0, (1,), np.zeros(1, "<f4"))
    frame = encode_record(rec)
    magic, version, flags, length = struct.unpack_from("<4sBBI", frame, 0)
    assert magic == b"LTNT" and version == 1 and flags == 0
    assert length == 24  # 4+8+2+1+4+1+4
    assert len(frame) == HEADER_LEN + 24 + CRC_LEN


def test_body_layout_is_little_endian():
    rec = LatentRecord(0x01020304, 0x1122334455667788, 0x0A0B, (1,),
                       np.zeros(1, "<f4"))
    body = encode_record(rec)[HEADER_LEN:-CRC_LEN]
    assert body[0:4] == bytes([0x04, 0x03, 0x02, 0x01])
    assert body[4:12] == bytes([0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11])
    assert body[12:14] == bytes([0x0B, 0x0A])
    assert body[14] == 1  # ndim
    assert body[15:19] == bytes([1, 0, 0, 0])
    assert body[19] == 0  # dtype f32
    crc = encode_record(rec)[-CRC_LEN:]
    assert crc == struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def test_roundtrip_examples():
    for shape in [(1,), (16, 16), (4, 4, 3), (2, 3, 4, 5)]:
        rec = make_record(shape=shape, seed=len(shape))
        assert decode_record(encode_record(rec)) == rec


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 64 - 1),
       st.integers(0, 2 ** 16 - 1),
       st.lists(st.integers(1, 6), min_size=1, max_size=4),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=200, deadline=None)
def test_roundtrip_random_records(device, record, label, shape, seed):
    payload = np.random.default_rng(seed).standard_normal(int(np.prod(shape)))
    rec = LatentRecord(device, record, label, tuple(shape), payload.astype("<f4"))
    assert decode_record(encode_record(rec)) == rec


def test_unlabeled_sentinel():
    rec = record_from_tensor(1, 0, None, np.zeros((2, 2), np.float32))
    assert rec.label == UNLABELED
    assert decode_record(encode_record(rec)).label == UNLABELED


def test_payload_must_match_shape():
    with pytest.raises(ValueError):
        LatentRecord(0, 0, 0, (16, 16), np.zeros(100, "<f4"))
    with pytest.raises(ValueError):
        LatentRecord(0, 0, 0, (1, 2, 3, 4, 5), np.zeros(120, "<f4"))


def test_oversize_fields_rejected():
    rec = make_record()
    rec.device_id = 2 ** 32
    with pytest.raises(OversizeRecordError):
        encode_record(rec)


def test_body_above_frame_bound_rejected():
    # a CR=1 32x32x3 sample, the largest frame the pipeline builds, encodes
    assert len(encode_record(make_record(shape=(32, 32, 3)))) == 12_330
    payload_max = (MAX_FRAME_BYTES - 24) // 4  # fields before the payload: 24 bytes
    encode_record(make_record(shape=(payload_max, 1)))
    with pytest.raises(OversizeRecordError):
        encode_record(make_record(shape=(payload_max + 1, 1)))


# --- decode errors --------------------------------------------------------------

def test_empty_input_truncated():
    with pytest.raises(TruncatedFrameError):
        decode_record(b"")


def test_bad_magic():
    frame = bytearray(encode_record(make_record()))
    frame[0] = ord("X")
    with pytest.raises(BadMagicError):
        decode_record(bytes(frame))


def test_bad_version():
    frame = bytearray(encode_record(make_record()))
    frame[4] = 2
    with pytest.raises(BadVersionError):
        decode_record(bytes(frame))


def test_nonzero_flags_rejected():
    frame = bytearray(encode_record(make_record()))
    frame[5] = 1
    with pytest.raises(BadVersionError):
        decode_record(bytes(frame))


def test_bad_crc():
    frame = bytearray(encode_record(make_record()))
    frame[-1] ^= 0xFF
    with pytest.raises(BadCrcError):
        decode_record(bytes(frame))


def test_shape_payload_mismatch():
    # valid CRC over a body whose dims disagree with the payload length
    body = bytearray()
    body += struct.pack("<IQHB", 1, 1, 0, 2)
    body += struct.pack("<2I", 16, 16)
    body.append(0)
    body += np.zeros(100, "<f4").tobytes()
    frame = struct.pack("<4sBBI", b"LTNT", 1, 0, len(body)) + bytes(body)
    frame += struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
    with pytest.raises(FrameShapeError):
        decode_record(frame)


def test_unknown_dtype_rejected():
    rec = make_record(shape=(2,))
    frame = bytearray(encode_record(rec))
    dtype_pos = HEADER_LEN + 15 + 4  # fixed fields + one dim
    frame[dtype_pos] = 9
    body = bytes(frame[HEADER_LEN:-CRC_LEN])
    frame[-CRC_LEN:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    with pytest.raises(FrameShapeError):
        decode_record(bytes(frame))


def test_truncated_body():
    frame = encode_record(make_record())
    with pytest.raises(TruncatedFrameError):
        decode_record(frame[: len(frame) - 5])


def test_single_byte_corruption_always_rejected():
    frame = bytearray(encode_record(make_record(shape=(2, 2))))
    for pos in range(len(frame)):
        for delta in (0x01, 0x80, 0xFF):
            corrupt = bytearray(frame)
            corrupt[pos] ^= delta
            with pytest.raises(WireDecodeError):
                decode_record(bytes(corrupt))
            if HEADER_LEN <= pos < len(frame) - CRC_LEN:
                with pytest.raises(BadCrcError):
                    decode_record(bytes(corrupt))


def test_decode_never_raises_other_exceptions():
    rng = np.random.default_rng(0)
    base = encode_record(make_record(shape=(3, 3)))
    for i in range(20_000):
        if i % 3 == 0:
            buf = bytes(rng.integers(0, 256, rng.integers(0, 80), dtype=np.uint8))
        else:
            buf = bytearray(base)
            for _ in range(rng.integers(1, 6)):
                buf[rng.integers(0, len(buf))] = rng.integers(0, 256)
            buf = bytes(buf)
        try:
            decode_record(buf)
        except WireDecodeError:
            pass


# --- framing / scanning -----------------------------------------------------------

def test_concatenated_frames_decode_sequentially():
    recs = [make_record(record=i, seed=i) for i in range(4)]
    blob = b"".join(encode_record(r) for r in recs)
    scanner = FrameScanner()
    events = scanner.feed(blob)
    assert all(e.ok for e in events)
    assert [e.record for e in events] == recs
    assert scanner.pending == 0


def test_scanner_reassembles_split_chunks():
    recs = [make_record(record=i, seed=i) for i in range(5)]
    blob = b"".join(encode_record(r) for r in recs)
    out = []
    scanner = FrameScanner()
    for i in range(0, len(blob), 7):
        out += [e.record for e in scanner.feed(blob[i:i + 7]) if e.ok]
    assert out == recs


def test_scanner_skips_garbage_prefix():
    rec = make_record()
    blob = b"\x00garbage\xff\xfe" + encode_record(rec)
    events = FrameScanner().feed(blob)
    assert [e.record for e in events if e.ok] == [rec]


def test_scanner_resyncs_after_corrupt_frame():
    good = make_record(record=10)
    bad = bytearray(encode_record(make_record(record=11)))
    bad[-1] ^= 0xFF  # break the CRC
    events = FrameScanner().feed(bytes(bad) + encode_record(good))
    oks = [e.record for e in events if e.ok]
    errs = [e.error for e in events if not e.ok]
    assert oks == [good]
    assert any(isinstance(e, BadCrcError) for e in errs)


def test_scanner_holds_partial_tail():
    frame = encode_record(make_record())
    scanner = FrameScanner()
    assert scanner.feed(frame[:11]) == []
    assert scanner.pending > 0
    events = scanner.feed(frame[11:])
    assert len(events) == 1 and events[0].ok


def test_scanner_resyncs_past_header_declaring_oversize_body():
    # 50 MiB is no frame a device can encode; waiting for it would stall the
    # five good frames behind it
    stall = struct.pack("<4sBBI", b"LTNT", 1, 0, 50 * 1024 * 1024)
    recs = [make_record(record=i, shape=(8, 8, 3), seed=i) for i in range(5)]
    frames = [encode_record(r) for r in recs]
    assert [len(f) for f in frames] == [810] * 5
    scanner = FrameScanner()
    events = scanner.feed(stall + b"".join(frames))
    assert [e.record for e in events if e.ok] == recs
    assert len(events) == 5
    assert scanner.pending == 0


def test_error_ack_codes():
    assert BadMagicError.ack == ACK_BAD_MAGIC == 0x01
    assert BadVersionError.ack == ACK_BAD_VERSION == 0x02
    assert BadCrcError.ack == ACK_BAD_CRC == 0x03
    assert TruncatedFrameError.ack == ACK_TRUNCATED == 0x04
    assert FrameShapeError.ack == ACK_SHAPE_MISMATCH == 0x05
