"""Simulated edge devices: local shards, per-device autoencoders, and latent
export through a sink (in-process hub or wire client).

Only latents leave a device. Its decoder never does: a hub holding the
decoders could rebuild the images from the latents.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    NotFittedError,
    SinkFailure,
    TooManyDevicesError,
)
from .train import TrainConfig, train_autoencoder
from .wire import (
    ACK_ACCEPTED,
    LatentRecord,
    decode_record,
    encode_record,
    record_from_tensor,
)
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
    encoder and decoder."""

    def __init__(self, device_id, train_data, test_data=None):
        self.device_id = int(device_id)
        self.data = {"train": train_data, "test": test_data}
        self._trained = None
        self._next_record_id = 0

    def fit_autoencoder(self, cr, cfg: TrainConfig):
        """Build and train this device's autoencoder on its local shard only.

        The effective seed mixes the config seed with the device id, so
        devices never share weights. Refitting replaces the weights; record
        ids keep counting.
        """
        local = self.data["train"]
        if local is None or len(local) == 0:
            raise NotFittedError(f"device {self.device_id} has no local data")
        pair = build_autoencoder(local.sample_shape, cr)
        seed = int(np.random.SeedSequence([cfg.seed, self.device_id]).generate_state(1)[0])
        trained, history = train_autoencoder(pair, local.images, replace(cfg, seed=seed))
        self._trained = trained
        return history

    def _require_fit(self):
        if self._trained is None:
            raise NotFittedError(f"device {self.device_id} is not fitted")

    def encoder_network(self):
        self._require_fit()
        return self._trained.encoder

    def decoder_network(self):
        """The local decoder, e.g. for saving on the device; never sent."""
        self._require_fit()
        return self._trained.decoder

    def _record(self, latent, label):
        rec = record_from_tensor(self.device_id, self._next_record_id, label, latent)
        self._next_record_id += 1
        return rec

    def encode(self, sample, label=None) -> LatentRecord:
        """Run the encoder in inference mode on one sample and wrap the result."""
        self._require_fit()
        batch = np.asarray(sample, dtype=np.float32)[None]
        return self._record(self._trained.encoder.forward(batch)[0], label)

    def export_latents(self, split, sink) -> int:
        """Encode every sample of a split in batches and push the records in
        dataset order; returns the emitted count. A sink failure aborts the
        export and reports how many records made it out."""
        self._require_fit()
        data = self.data[split]
        if data is None:
            raise ValueError(f"device {self.device_id} holds no {split!r} split")
        latents = self._trained.encoder.infer(np.asarray(data.images, dtype=np.float32))
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


@dataclass
class HubSink:
    """In-process sink: round-trips each record through the wire codec
    before handing it to the hub, so encode, decode and their range checks
    run even without a socket."""

    hub: object
    split: str

    def push(self, record):
        ack = self.hub.ingest(decode_record(encode_record(record)), self.split)
        if ack != ACK_ACCEPTED:
            raise SinkFailure(f"hub rejected record with ack 0x{ack:02x}")


class WireClientSink:
    """TCP sink: one frame out, one ack byte back."""

    def __init__(self, host, port, timeout=10.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)

    def push(self, record):
        self._sock.sendall(encode_record(record))
        ack = self._sock.recv(1)
        if len(ack) != 1:
            raise SinkFailure("connection closed before ack")
        if ack[0] != ACK_ACCEPTED:
            raise SinkFailure(f"server rejected record with ack 0x{ack[0]:02x}")

    def close(self):
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
