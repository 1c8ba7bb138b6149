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

The hub answers each frame attempt with one ack byte. Decoding raises
nothing but :class:`WireDecodeError`, whose ``ack`` is the code it draws:

    0x00  ACCEPTED        a new record, or an identical re-send of a held one
    0x01  reserved        was bad magic: a FrameScanner decodes only at a
                          magic it has found, so nothing draws it
    0x02  BAD_VERSION     version byte not 1, or flags byte not 0
    0x03  BAD_CRC         body checksum mismatch
    0x04  TRUNCATED       only from decode_record, on a buffer with no whole
                          frame: a scanner waits for the rest of a frame
                          whose header is sound
    0x05  SHAPE_MISMATCH  a CRC-valid body that no record can hold
    0x06  DUPLICATE       another record under a held (device id, record id)
                          key; Hub.ingest decides it, not the decoder
"""

from __future__ import annotations

import math
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
ACK_BAD_VERSION = 0x02
ACK_BAD_CRC = 0x03
ACK_TRUNCATED = 0x04
ACK_SHAPE_MISMATCH = 0x05
ACK_DUPLICATE = 0x06

_HEADER = struct.Struct("<4sBBI")
_BODY_FIXED = struct.Struct("<IQHB")
_CRC = struct.Struct("<I")
_F4 = np.dtype("<f4")
# by ndim: the dims and dtype tag after the fixed body fields, and all of a
# frame before its payload (header, fixed fields, dims and tag)
_DIMS = {n: struct.Struct(f"<{n}IB") for n in range(1, MAX_DIMS + 1)}
_FRAME_HEAD = {n: struct.Struct(_HEADER.format + _BODY_FIXED.format[1:] + d.format[1:])
               for n, d in _DIMS.items()}

# the one bound on a frame's body: encode_record refuses a larger record and
# FrameScanner resyncs past a header that declares one instead of waiting for
# it. The largest frame the pipeline builds (CR=1 32x32x3) is 12,330 bytes.
MAX_FRAME_BYTES = 1024 * 1024


class WireDecodeError(LatentWireError):
    """A frame the hub refuses; ``ack`` is the ACK_* code it answers with."""

    def __init__(self, ack, message):
        super().__init__(message)
        self.ack = ack


@dataclass(eq=False)
class LatentRecord:
    """One encoded sample; the only thing that crosses the wire."""

    device_id: int
    record_id: int
    label: int
    shape: tuple
    payload: np.ndarray  # flat float32, row-major

    def __post_init__(self):
        shape = self.shape = tuple(map(int, self.shape))
        p = self.payload
        if not (isinstance(p, np.ndarray) and p.dtype == _F4 and p.ndim == 1
                and p.flags.c_contiguous):
            self.payload = np.ascontiguousarray(p, dtype=_F4).reshape(-1)
        if not 1 <= len(shape) <= MAX_DIMS:
            raise ValueError(f"shape must have 1..{MAX_DIMS} dims, got {shape}")
        if min(shape) < 1:
            raise ValueError(f"dims must be positive, got {shape}")
        n = math.prod(shape)
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
    """Serialize a record as one LTNT frame. A field too wide for its frame
    field or a body over MAX_FRAME_BYTES raises LatentWireError."""
    if not 0 <= rec.device_id <= 0xFFFFFFFF:
        raise LatentWireError(f"device id {rec.device_id} exceeds u32")
    if not 0 <= rec.record_id <= 0xFFFFFFFFFFFFFFFF:
        raise LatentWireError(f"record id {rec.record_id} exceeds u64")
    if not 0 <= rec.label <= 0xFFFF:
        raise LatentWireError(f"label {rec.label} exceeds u16")
    ndim = len(rec.shape)
    head = _FRAME_HEAD[ndim]
    payload = rec.payload  # contiguous <f4, which LatentRecord ensures
    length = head.size - _HEADER.size + payload.nbytes
    if length > MAX_FRAME_BYTES:
        raise LatentWireError(
            f"body of {length} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})")
    head_bytes = head.pack(MAGIC, VERSION, 0, length, rec.device_id, rec.record_id,
                           rec.label, ndim, *rec.shape, DTYPE_F32)
    crc = zlib.crc32(payload, zlib.crc32(head_bytes[_HEADER.size:]))
    return b"".join((head_bytes, payload, _CRC.pack(crc)))  # the payload's one copy


def _parse_body(buf, off, end) -> LatentRecord:
    """Read the body in buf[off:end]; LatentRecord checks the shape it holds.

    Binds no view of `buf` to a name: a raised error's traceback keeps this
    frame's locals alive, and a live view stops a scanner's buffer from
    resizing."""
    if end - off < _BODY_FIXED.size:
        raise WireDecodeError(ACK_SHAPE_MISMATCH,
                              f"body of {end - off} bytes too short for fixed fields")
    device_id, record_id, label, ndim = _BODY_FIXED.unpack_from(buf, off)
    if not 1 <= ndim <= MAX_DIMS:
        raise WireDecodeError(ACK_SHAPE_MISMATCH, f"ndim {ndim} outside 1..{MAX_DIMS}")
    off += _BODY_FIXED.size
    dims_tag = _DIMS[ndim]
    if end - off < dims_tag.size:
        raise WireDecodeError(ACK_SHAPE_MISMATCH, "body too short for declared dims")
    *dims, dtype = dims_tag.unpack_from(buf, off)
    off += dims_tag.size
    if dtype != DTYPE_F32:
        raise WireDecodeError(ACK_SHAPE_MISMATCH, f"unknown dtype tag {dtype}")
    count, ragged = divmod(end - off, _F4.itemsize)
    if ragged:
        raise WireDecodeError(ACK_SHAPE_MISMATCH,
                              f"payload of {end - off} bytes is not whole f32s")
    try:
        return LatentRecord(device_id, record_id, label, dims,
                            np.frombuffer(buf, _F4, count, off).copy())
    except ValueError as exc:  # a payload that misfits dims
        raise WireDecodeError(ACK_SHAPE_MISMATCH, f"shape {tuple(dims)}: {exc}") from exc


def decode_frame_at(buf, start, end):
    """Decode the whole frame in buf[start:end], whose header FrameScanner
    has read: check the CRC, then parse the body. The payload is copied
    once, out of `buf` into the record."""
    body = start + _HEADER.size
    crc_at = end - _CRC.size
    (crc,) = _CRC.unpack_from(buf, crc_at)
    if crc != zlib.crc32(memoryview(buf)[body:crc_at]):
        raise WireDecodeError(ACK_BAD_CRC, "body checksum mismatch")
    return _parse_body(buf, body, crc_at)


@dataclass
class FrameScanner:
    """Incremental frame splitter with resynchronization by magic scan.

    Feed arbitrary chunks; each feed returns, in stream order, a
    LatentRecord per complete frame and a WireDecodeError per frame that
    fails to decode. Bytes before a magic are discarded silently, and so is
    a magic whose header declares a body above MAX_FRAME_BYTES. After a
    failure or a discarded magic the scan resumes one byte past the magic.

    The scan unpacks each frame's header once and owns what it says. A
    frame whose header is sound is decoded once all of it is buffered, so a
    frame split across chunks is neither retried nor refused as truncated;
    one whose version or flags are wrong is refused at once. What stays
    buffered after a feed is at most one incomplete frame, or a possible
    magic prefix. A known limit: a forged sound header stalls every frame
    behind it until its declared body, up to MAX_FRAME_BYTES, has arrived.
    """

    _buf: bytearray = field(default_factory=bytearray)

    def feed(self, chunk):
        buf = self._buf
        buf += chunk
        size = len(buf)
        items = []
        pos = 0
        while True:
            start = buf.find(MAGIC, pos)
            if start < 0:
                # keep a potential magic prefix at the tail
                pos = max(pos, size - (len(MAGIC) - 1))
                break
            if size - start < _HEADER.size:
                pos = start  # wait for the rest of the header
                break
            _, version, flags, length = _HEADER.unpack_from(buf, start)
            end = start + _HEADER.size + length + _CRC.size
            pos = start + 1  # where the scan resumes past a refused magic
            if length > MAX_FRAME_BYTES:
                continue
            if version != VERSION or flags != 0:
                items.append(WireDecodeError(
                    ACK_BAD_VERSION, f"unsupported version {version}, flags 0x{flags:02x}"))
                continue
            if size < end:
                pos = start  # wait for the rest of the frame
                break
            try:
                items.append(decode_frame_at(buf, start, end))
                pos = end
            except WireDecodeError as err:
                items.append(err)
        del buf[:pos]
        return items

    @property
    def pending(self):
        return len(self._buf)


def decode_record(buf) -> LatentRecord:
    """Decode the first frame in `buf` as a hub would, through a fresh
    FrameScanner: bytes before a magic are skipped, and so is trailing data.
    Raises the scanner's first error, or a WireDecodeError with
    ACK_TRUNCATED when `buf` holds no whole frame."""
    items = FrameScanner().feed(buf)
    if not items:
        raise WireDecodeError(ACK_TRUNCATED, f"no whole frame in {len(buf)} bytes")
    if isinstance(items[0], WireDecodeError):
        raise items[0]
    return items[0]
