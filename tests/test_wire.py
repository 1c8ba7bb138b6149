import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentwire.errors import LatentWireError
from latentwire.wire import (
    ACK_BAD_CRC,
    ACK_BAD_VERSION,
    ACK_SHAPE_MISMATCH,
    ACK_TRUNCATED,
    FrameScanner,
    LatentRecord,
    MAX_FRAME_BYTES,
    UNLABELED,
    WireDecodeError,
    decode_record,
    encode_record,
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
    rec = LatentRecord(1, 0, UNLABELED, (2, 2), np.zeros(4, np.float32))
    assert UNLABELED == 0xFFFF
    assert decode_record(encode_record(rec)) == rec


def test_payload_must_match_shape():
    with pytest.raises(ValueError):
        LatentRecord(0, 0, 0, (16, 16), np.zeros(100, "<f4"))
    with pytest.raises(ValueError):
        LatentRecord(0, 0, 0, (1, 2, 3, 4, 5), np.zeros(120, "<f4"))


def test_oversize_fields_rejected():
    for name, value, field in (("device_id", 2 ** 32, "device id"),
                               ("record_id", 2 ** 64, "record id"),
                               ("label", 2 ** 16, "label")):
        rec = make_record()
        setattr(rec, name, value)
        with pytest.raises(LatentWireError, match=f"^{field} {value} exceeds"):
            encode_record(rec)


def test_body_above_frame_bound_rejected():
    # a CR=1 32x32x3 sample, the largest frame the pipeline builds, encodes
    assert len(encode_record(make_record(shape=(32, 32, 3)))) == 12_330
    payload_max = (MAX_FRAME_BYTES - 24) // 4  # fields before the payload: 24 bytes
    encode_record(make_record(shape=(payload_max, 1)))
    with pytest.raises(LatentWireError,
                       match=r"^body of \d+ bytes exceeds MAX_FRAME_BYTES \(1048576\)$"):
        encode_record(make_record(shape=(payload_max + 1, 1)))


# the latent shapes of a 32x32x3 input at CR 1, 4, 8 and 16
PINNED_SHAPES = ((32, 32, 3), (16, 16, 3), (8, 8, 6), (8, 8, 3))
# sha256 of the frames of pinned_records(); any change to the wire bytes moves it
PINNED_FRAMES_SHA256 = "a1edb5b74c72bd06dcadb6c7be1dfff14d15d0d54e2e61af9782289a452ff449"


def pinned_records():
    recs = []
    for k, shape in enumerate(PINNED_SHAPES):
        n = int(np.prod(shape))
        payload = ((np.arange(n) % 251 - 125) / 8).astype("<f4")
        recs.append(LatentRecord(k, 1000 + k, k, shape, payload))
    small = np.array([-0.0, 1.5, np.inf, -2.25], "<f4")
    recs.append(LatentRecord(0xFFFFFFFF, 2 ** 64 - 1, 0xFFFE, (2, 2), small))
    recs.append(LatentRecord(7, 8, UNLABELED, (4,), small))
    return recs


def test_frame_bytes_are_pinned():
    h = hashlib.sha256()
    for rec in pinned_records():
        frame = encode_record(rec)
        assert decode_record(frame) == rec
        h.update(frame)
    assert h.hexdigest() == PINNED_FRAMES_SHA256


# --- decode errors --------------------------------------------------------------

def refusal(buf):
    """The ack code of the WireDecodeError that decode_record(buf) raises."""
    with pytest.raises(WireDecodeError) as info:
        decode_record(buf)
    return info.value.ack


def test_empty_input_truncated():
    assert refusal(b"") == ACK_TRUNCATED


def test_bad_magic():
    # decode_record runs a hub's scanner, which decodes only at a magic
    frame = bytearray(encode_record(make_record()))
    frame[0] = ord("X")
    good = make_record(record=9, seed=9)
    assert decode_record(bytes(frame) + encode_record(good)) == good
    assert refusal(bytes(frame)) == ACK_TRUNCATED


def test_bad_version():
    frame = bytearray(encode_record(make_record()))
    frame[4] = 2
    assert refusal(bytes(frame)) == ACK_BAD_VERSION


def test_nonzero_flags_rejected():
    frame = bytearray(encode_record(make_record()))
    frame[5] = 1
    assert refusal(bytes(frame)) == ACK_BAD_VERSION


def test_bad_crc():
    frame = bytearray(encode_record(make_record()))
    frame[-1] ^= 0xFF
    assert refusal(bytes(frame)) == ACK_BAD_CRC


def frame_around(body):
    """A frame with a valid header and CRC around any body bytes."""
    header = struct.pack("<4sBBI", b"LTNT", 1, 0, len(body))
    return header + body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def shaped_body(dims, payload_bytes, ndim=None):
    """Fixed fields, `ndim` (default len(dims)) and `dims`, the f32 tag and
    `payload_bytes` zero bytes."""
    ndim = len(dims) if ndim is None else ndim
    return (struct.pack("<IQHB", 1, 1, 0, ndim) + struct.pack(f"<{len(dims)}I", *dims)
            + b"\x00" + bytes(payload_bytes))


# CRC-valid bodies whose shape no record can hold
BAD_SHAPE_BODIES = {
    "short-fixed-fields": struct.pack("<IQ", 1, 1),  # 12 of the 15 fixed bytes
    "ndim-0": shaped_body((), 4),
    "ndim-5": shaped_body((1, 1, 1, 1, 1), 4),
    "zero-dim": shaped_body((0, 2), 0),
    "ragged-payload": shaped_body((2, 2), 15),
    "empty-payload": shaped_body((2, 2), 0),
    "dims-overflow-u32": shaped_body((65536, 65536), 4),
    "dims-past-body-end": shaped_body((2,), 0, ndim=2),
}


def test_shape_payload_mismatch():
    # valid CRC over a body whose dims disagree with the payload length
    assert refusal(frame_around(shaped_body((16, 16), 400))) == ACK_SHAPE_MISMATCH


@pytest.mark.parametrize("body", BAD_SHAPE_BODIES.values(), ids=BAD_SHAPE_BODIES.keys())
def test_bad_shape_bodies_raise_frame_shape_error(body):
    assert refusal(frame_around(body)) == ACK_SHAPE_MISMATCH


def test_unknown_dtype_rejected():
    rec = make_record(shape=(2,))
    frame = bytearray(encode_record(rec))
    dtype_pos = HEADER_LEN + 15 + 4  # fixed fields + one dim
    frame[dtype_pos] = 9
    body = bytes(frame[HEADER_LEN:-CRC_LEN])
    frame[-CRC_LEN:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    assert refusal(bytes(frame)) == ACK_SHAPE_MISMATCH


def test_truncated_body():
    frame = encode_record(make_record())
    assert refusal(frame[: len(frame) - 5]) == ACK_TRUNCATED


def test_single_byte_corruption_always_rejected():
    frame = bytearray(encode_record(make_record(shape=(2, 2))))
    for pos in range(len(frame)):
        for delta in (0x01, 0x80, 0xFF):
            corrupt = bytearray(frame)
            corrupt[pos] ^= delta
            ack = refusal(bytes(corrupt))
            if HEADER_LEN <= pos < len(frame) - CRC_LEN:
                assert ack == ACK_BAD_CRC


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
    assert scanner.feed(blob) == recs
    assert scanner.pending == 0


def test_scanner_reassembles_split_chunks():
    recs = [make_record(record=i, seed=i) for i in range(5)]
    blob = b"".join(encode_record(r) for r in recs)
    out = []
    scanner = FrameScanner()
    for i in range(0, len(blob), 7):
        out += scanner.feed(blob[i:i + 7])
    assert out == recs


def test_scanner_skips_garbage_prefix():
    rec = make_record()
    blob = b"\x00garbage\xff\xfe" + encode_record(rec)
    assert FrameScanner().feed(blob) == [rec]


def test_scanner_resyncs_after_corrupt_frame():
    good = make_record(record=10)
    bad = bytearray(encode_record(make_record(record=11)))
    bad[-1] ^= 0xFF  # break the CRC
    items = FrameScanner().feed(bytes(bad) + encode_record(good))
    assert isinstance(items[0], WireDecodeError) and items[0].ack == ACK_BAD_CRC
    assert [i for i in items if isinstance(i, LatentRecord)] == [good]
    assert all(isinstance(i, WireDecodeError) for i in items[:-1])


def test_scanner_holds_partial_tail():
    frame = encode_record(make_record())
    scanner = FrameScanner()
    assert scanner.feed(frame[:11]) == []
    assert scanner.pending > 0
    assert scanner.feed(frame[11:]) == [decode_record(frame)]


def test_scanner_resyncs_past_header_declaring_oversize_body():
    # 50 MiB is no frame a device can encode; waiting for it would stall the
    # five good frames behind it
    stall = struct.pack("<4sBBI", b"LTNT", 1, 0, 50 * 1024 * 1024)
    recs = [make_record(record=i, shape=(8, 8, 3), seed=i) for i in range(5)]
    frames = [encode_record(r) for r in recs]
    assert [len(f) for f in frames] == [810] * 5
    scanner = FrameScanner()
    assert scanner.feed(stall + b"".join(frames)) == recs
    assert scanner.pending == 0


def test_error_ack_codes():
    # one damaged frame per refusal code: a hub's scanner yields the error,
    # decode_record raises the same code
    frame = encode_record(make_record())
    version = bytearray(frame)
    version[4] = 2
    body_flip = bytearray(frame)
    body_flip[HEADER_LEN + 3] ^= 0x01
    bad_ndim = frame_around(shaped_body((2, 2), 16, ndim=5))
    for damaged, code in ((version, 0x02), (body_flip, 0x03), (bad_ndim, 0x05)):
        (item,) = FrameScanner().feed(bytes(damaged))
        assert isinstance(item, WireDecodeError) and item.ack == code
        assert refusal(bytes(damaged)) == code
    # a cut frame: a scanner waits for the rest, so only decode_record draws 0x04
    assert FrameScanner().feed(frame[:-1]) == []
    assert refusal(frame[:-1]) == 0x04
    assert (ACK_BAD_VERSION, ACK_BAD_CRC, ACK_TRUNCATED, ACK_SHAPE_MISMATCH) == (2, 3, 4, 5)
