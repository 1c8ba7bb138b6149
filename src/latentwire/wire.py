"""LTNT wire format.

Frame layout, all little-endian:

    magic    4 bytes  b"LTNT"
    version  u8       1
    flags    u8       must be 0 in version 1
    length   u32      body byte count
    body     length bytes
    crc      u32      CRC-32 (IEEE) of body

Body layout:

    device_id u32 | record_id u64 | label u16 | ndim u8 | dims ndim*u32
    | dtype u8 (0 = f32) | payload 4*prod(dims) bytes of f32, row-major

Decoding never raises anything but :class:`WireDecodeError` subtypes, each
mapped to a 1-byte ack code.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import LatentWireError

MAGIC = b"LTNT"
VERSION = 1
MAX_DIMS = 4
DTYPE_F32 = 0
UNLABELED = 0xFFFF

ACK_ACCEPTED = 0x00
ACK_BAD_MAGIC = 0x01
ACK_BAD_VERSION = 0x02
ACK_BAD_CRC = 0x03
ACK_TRUNCATED = 0x04
ACK_SHAPE_MISMATCH = 0x05
ACK_DUPLICATE = 0x06

_HEADER = struct.Struct("<4sBBI")
_BODY_FIXED = struct.Struct("<IQHB")
_CRC = struct.Struct("<I")

# the one bound on a frame's body: encode_record refuses a larger record and
# FrameScanner resyncs past a header that declares one instead of waiting for
# it. The largest frame the pipeline builds (CR=1 32x32x3) is 12,330 bytes.
MAX_FRAME_BYTES = 1024 * 1024


class WireDecodeError(LatentWireError):
    ack = None


class BadMagicError(WireDecodeError):
    ack = ACK_BAD_MAGIC


class BadVersionError(WireDecodeError):
    ack = ACK_BAD_VERSION


class BadCrcError(WireDecodeError):
    ack = ACK_BAD_CRC


class TruncatedFrameError(WireDecodeError):
    ack = ACK_TRUNCATED


class FrameShapeError(WireDecodeError):
    ack = ACK_SHAPE_MISMATCH


class OversizeRecordError(LatentWireError):
    pass


@dataclass(eq=False)
class LatentRecord:
    """One encoded sample; the only thing that crosses the wire."""

    device_id: int
    record_id: int
    label: int
    shape: tuple
    payload: np.ndarray  # flat float32, row-major

    def __post_init__(self):
        self.shape = tuple(int(d) for d in self.shape)
        self.payload = np.ascontiguousarray(self.payload, dtype="<f4").reshape(-1)
        if not 1 <= len(self.shape) <= MAX_DIMS:
            raise ValueError(f"shape must have 1..{MAX_DIMS} dims, got {self.shape}")
        if any(d < 1 for d in self.shape):
            raise ValueError(f"dims must be positive, got {self.shape}")
        n = 1
        for d in self.shape:
            n *= d
        if self.payload.size != n:
            raise ValueError(f"payload has {self.payload.size} elements, shape needs {n}")

    @property
    def tensor(self):
        return self.payload.reshape(self.shape)

    def __eq__(self, other):
        return (isinstance(other, LatentRecord)
                and self.device_id == other.device_id
                and self.record_id == other.record_id
                and self.label == other.label
                and self.shape == other.shape
                and self.payload.tobytes() == other.payload.tobytes())


def encode_record(rec: LatentRecord) -> bytes:
    """Serialize a record as one LTNT frame."""
    if not 0 <= rec.device_id <= 0xFFFFFFFF:
        raise OversizeRecordError(f"device id {rec.device_id} exceeds u32")
    if not 0 <= rec.record_id <= 0xFFFFFFFFFFFFFFFF:
        raise OversizeRecordError(f"record id {rec.record_id} exceeds u64")
    if not 0 <= rec.label <= 0xFFFF:
        raise OversizeRecordError(f"label {rec.label} exceeds u16")
    body = bytearray()
    body += _BODY_FIXED.pack(rec.device_id, rec.record_id, rec.label, len(rec.shape))
    body += struct.pack(f"<{len(rec.shape)}I", *rec.shape)
    body.append(DTYPE_F32)
    body += rec.payload.tobytes()
    if len(body) > MAX_FRAME_BYTES:
        raise OversizeRecordError(
            f"body of {len(body)} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})")
    frame = _HEADER.pack(MAGIC, VERSION, 0, len(body)) + bytes(body)
    return frame + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


def _parse_body(body: bytes) -> LatentRecord:
    """Read the body's byte layout; LatentRecord checks the shape it holds."""
    if len(body) < _BODY_FIXED.size:
        raise FrameShapeError(f"body of {len(body)} bytes too short for fixed fields")
    device_id, record_id, label, ndim = _BODY_FIXED.unpack_from(body, 0)
    if not 1 <= ndim <= MAX_DIMS:
        raise FrameShapeError(f"ndim {ndim} outside 1..{MAX_DIMS}")
    off = _BODY_FIXED.size
    if len(body) < off + 4 * ndim + 1:
        raise FrameShapeError("body too short for declared dims")
    dims = struct.unpack_from(f"<{ndim}I", body, off)
    off += 4 * ndim
    dtype = body[off]
    off += 1
    if dtype != DTYPE_F32:
        raise FrameShapeError(f"unknown dtype tag {dtype}")
    try:
        payload = np.frombuffer(body, dtype="<f4", offset=off).copy()
        return LatentRecord(device_id, record_id, label, dims, payload)
    except ValueError as exc:  # a ragged payload, or one that misfits dims
        raise FrameShapeError(f"shape {dims}: {exc}") from exc


def decode_frame_at(buf):
    """Decode the frame at the start of `buf`; returns (record, end offset)."""
    if len(buf) < _HEADER.size:
        raise TruncatedFrameError("incomplete header")
    magic, version, flags, length = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {bytes(magic)!r}")
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version}")
    if flags != 0:
        raise BadVersionError(f"unknown flags 0x{flags:02x}")
    body_start = _HEADER.size
    end = body_start + length + _CRC.size
    if len(buf) < end:
        raise TruncatedFrameError(f"frame needs {end} bytes")
    body = bytes(buf[body_start:body_start + length])
    (crc,) = _CRC.unpack_from(buf, body_start + length)
    if crc != zlib.crc32(body) & 0xFFFFFFFF:
        raise BadCrcError("body checksum mismatch")
    return _parse_body(body), end


def decode_record(buf) -> LatentRecord:
    """Decode the frame at the start of `buf` (trailing bytes ignored)."""
    record, _ = decode_frame_at(buf)
    return record


@dataclass
class FrameScanner:
    """Incremental frame splitter with resynchronization by magic scan.

    Feed arbitrary chunks; each feed returns, in stream order, a
    LatentRecord per complete frame and a WireDecodeError per frame that
    fails to decode. Bytes before a magic are discarded silently, and so is
    a magic whose header declares a body above MAX_FRAME_BYTES. After a
    failure or a discarded magic the scan resumes one byte past the magic.
    """

    _buf: bytearray = field(default_factory=bytearray)

    def feed(self, chunk: bytes):
        self._buf += chunk
        items = []
        while True:
            start = self._buf.find(MAGIC)
            if start < 0:
                # keep a potential magic prefix at the tail
                keep = min(len(MAGIC) - 1, len(self._buf))
                del self._buf[: len(self._buf) - keep]
                return items
            if start:
                del self._buf[:start]
            if len(self._buf) >= _HEADER.size:
                _, _, _, length = _HEADER.unpack_from(self._buf, 0)
                if length > MAX_FRAME_BYTES:
                    del self._buf[:1]
                    continue
            try:
                record, end = decode_frame_at(self._buf)
            except TruncatedFrameError:
                return items  # wait for more bytes
            except WireDecodeError as err:
                items.append(err)
                del self._buf[:1]
                continue
            items.append(record)
            del self._buf[:end]

    @property
    def pending(self):
        return len(self._buf)
