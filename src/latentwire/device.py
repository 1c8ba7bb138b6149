"""Simulated edge devices: local shards, per-device autoencoders, and latent
export through a sink (in-process hub or wire client).

Only latents leave a device. At CR=1 the autoencoder has no layers, so a
latent is the image itself as f32. For CR > 1 the decoder never leaves the
device's fit: train_autoencoder returns only the encoder, so the decoder's
arrays die inside the fit. That keeps the ready-made inverse away from the
hub; it does not make the latents impossible to invert.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import LatentWireError, SinkFailure, TooManyDevicesError
from .hub import ingest_chunk
from .train import TrainConfig, train_autoencoder
from .wire import ACK_ACCEPTED, UNLABELED, FrameScanner, LatentRecord, encode_record
from .zoo import build_autoencoder


def partition_dataset(data, n_devices, rng):
    """Disjoint covering shards: a shuffled split whose sizes differ by at
    most 1."""
    if n_devices < 1 or n_devices > len(data):
        raise TooManyDevicesError(
            f"cannot split {len(data)} samples across {n_devices} devices")
    order = rng.permutation(len(data))
    return [data.subset(chunk) for chunk in np.array_split(order, n_devices)]


class DeviceNode:
    """One edge device: a local shard and, after fit, a device-unique
    encoder Network. Its records carry the encoder's latents; the decoder
    trained beside it never outlives the fit."""

    def __init__(self, device_id, train_data, test_data):
        self.device_id = int(device_id)
        self.data = {"train": train_data, "test": test_data}
        self._encoder = None
        self._next_record_id = 0

    def fit_autoencoder(self, cr, cfg: TrainConfig):
        """Build and train this device's autoencoder on its local shard only.

        The effective seed mixes the config seed with the device id, so
        devices never share weights. Refitting replaces the weights; record
        ids keep counting.
        """
        local = self.data["train"]
        pair = build_autoencoder(local.sample_shape, cr)
        seed = int(np.random.SeedSequence([cfg.seed, self.device_id]).generate_state(1)[0])
        self._encoder, history = train_autoencoder(
            pair, local.images, replace(cfg, seed=seed))
        return history

    def _require_fit(self):
        if self._encoder is None:
            raise LatentWireError(f"device {self.device_id} is not fitted")

    def _record(self, latent, label):
        """The next record id's LatentRecord; a None label is UNLABELED."""
        rec = LatentRecord(self.device_id, self._next_record_id,
                           UNLABELED if label is None else int(label), latent.shape, latent)
        self._next_record_id += 1
        return rec

    def encode(self, sample, label=None) -> LatentRecord:
        """Run the encoder in inference mode on one sample and wrap the result;
        with no label the record is UNLABELED."""
        self._require_fit()
        batch = np.asarray(sample, dtype=np.float32)[None]
        return self._record(self._encoder.forward(batch)[0], label)

    def export_latents(self, split, sink) -> int:
        """Encode every sample of a split in batches and push the records in
        dataset order; returns the emitted count. A sink failure aborts the
        export and reports how many records made it out."""
        self._require_fit()
        data = self.data[split]
        latents = self._encoder.infer(np.asarray(data.images, dtype=np.float32))
        emitted = 0
        for latent, label in zip(latents, data.labels):
            rec = self._record(latent, int(label))
            try:
                sink.push(rec)
            except Exception as exc:
                raise SinkFailure(
                    f"sink failed after {emitted} records: {exc}",
                    emitted=emitted) from exc
            emitted += 1
        return emitted


def make_devices(train, test, n_devices, mode, rng):
    """Shuffle each split into `n_devices` shards with partition_dataset and
    wrap shard i of both splits in DeviceNode i. `mode` must be "iid"."""
    # mode has one value; it stays only because perfbench/workloads.py
    # passes it, and that file changes only with the benchmark
    if mode != "iid":
        raise ValueError(f"unknown partition mode {mode!r}")
    train_shards = partition_dataset(train, n_devices, rng)
    test_shards = partition_dataset(test, n_devices, rng)
    return [DeviceNode(i, tr, te)
            for i, (tr, te) in enumerate(zip(train_shards, test_shards))]


def _require_accepted(ack):
    """Raise SinkFailure unless `ack`, the ack codes one push drew, is the
    one code ACK_ACCEPTED."""
    if len(ack) != 1:
        raise SinkFailure("connection closed before ack")
    if ack[0] != ACK_ACCEPTED:
        raise SinkFailure(f"hub rejected record with ack 0x{ack[0]:02x}")


@dataclass
class HubSink:
    """In-process sink: hands each record's frame to the hub through
    ingest_chunk, the TCP server's own step, so scanning, decoding and the
    ack run on the same path as over a socket. Its pushes are one stream,
    read by one scanner."""

    hub: object
    split: str
    _scanner: FrameScanner = field(default_factory=FrameScanner, init=False, repr=False)

    def push(self, record):
        _require_accepted(ingest_chunk(self.hub, self._scanner, encode_record(record),
                                       self.split))


class WireClientSink:
    """TCP sink: one frame out, one ack byte back."""

    def __init__(self, host, port, timeout=10.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)

    def push(self, record):
        self._sock.sendall(encode_record(record))
        _require_accepted(self._sock.recv(1))

    def close(self):
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
