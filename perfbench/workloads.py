"""The benchmark's workloads: grid, serve and wire.

A workload has a set-up, a pass (the unit of timed work, repeated for the
run's length) and a check over the passes it ran. Every call into the
program goes through a ``latentwire`` module namespace, so the traced run's
wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import latentwire as lw
import latentwire.hub
import latentwire.wire
from latentwire.errors import SinkFailure

# Accuracies of the pinned grid (synthetic data seed 0, experiment seed 0),
# recorded with numpy 2.4 / OpenBLAS 0.3.31 on one BLAS thread. They are
# identical across runs and across 1 and 2 BLAS threads.
GRID_REFERENCE = {1.0: 1.0, 4.0: 0.70, 8.0: 0.86, 16.0: 0.77}
# Allowed distance from the reference per cell: two of the 100 test samples.
# Kernels that reorder float sums may flip a borderline prediction; a larger
# move is a change of behaviour.
GRID_ACC_TOL = 0.02


@dataclass
class PassResult:
    job_s: float  # timed work of the pass
    attempted: int
    failed: int
    steps: list  # the pass's timed steps, the same ones in the same order every pass
    data: dict = field(default_factory=dict)


def timed_chunks(chunks, times):
    """Yield `chunks`, appending to `times` how long the consumer spent on
    each one before it asked for the next."""
    last = perf_counter()
    for chunk in chunks:
        yield chunk
        now = perf_counter()
        times.append(now - last)
        last = now


def percentile_ms(samples, q):
    return float(np.percentile(samples, q)) * 1e3


# --- grid ---------------------------------------------------------------------


@dataclass
class GridWorkload:
    """The paper's experiment as users run it: one `run_experiment` call on
    a pinned synthetic config. The seed only permutes the order of the
    cells, which are independent, so every seed must reproduce the
    recorded accuracies."""

    spec: lw.SyntheticSpec = field(default_factory=lw.SyntheticSpec)
    ae_epochs: int = 3
    clf_epochs: int = 5
    reference: dict | None = field(default_factory=lambda: dict(GRID_REFERENCE))
    setup_repeats: int = 25
    name = "grid"
    ratios = (1, 4, 8, 16)
    warmup = 0
    traced_passes = 1

    @property
    def image_shape(self):
        return tuple(self.spec.image_size)

    def setup(self, seed):
        # run_experiment generates its data itself, so the set-up has no
        # state to hand over; it times the generation run_experiment pays
        lw.gen_synthetic(self.spec, seed=0)
        order = np.random.default_rng(seed).permutation(len(self.ratios))
        return lw.ExperimentConfig(
            synthetic=self.spec, ratios=tuple(self.ratios[i] for i in order),
            family="A", n_devices=4, partition="iid",
            ae=lw.TrainConfig(epochs=self.ae_epochs),
            clf=lw.TrainConfig(epochs=self.clf_epochs), seeds=(0,), jobs=1)

    def run_pass(self, cfg):
        start = perf_counter()
        report = lw.run_experiment(cfg)
        job_s = perf_counter() - start
        failed = sum(1 for row in report.rows if row.failed)
        return PassResult(job_s, len(report.rows), failed, [job_s], {"rows": report.rows})

    def check(self, passes):
        errors = []
        for p in passes:
            rows = p.data["rows"]
            errors += [f"cell cr={r.cr:g} failed: {r.error}" for r in rows if r.failed]
            acc = {r.cr: r.accuracy for r in rows if not r.failed}
            if self.reference is None:
                continue
            for cr, ref in self.reference.items():
                got = acc.get(float(cr))
                if got is None or abs(got - ref) > GRID_ACC_TOL + 1e-9:
                    errors.append(f"cr={cr:g} accuracy {got} vs reference {ref}")
        return errors

    def detail(self, passes):
        rows = [r for r in passes[-1].data["rows"] if not r.failed]
        out = {"grid_s": (statistics.median(p.job_s for p in passes), "s", len(passes)),
               "acc_mean": (statistics.fmean(r.accuracy for r in rows), "fraction", len(rows))}
        norms = [r.acc_norm for r in rows if r.cr > 1 and r.acc_norm is not None]
        if norms:
            out["acc_norm_min"] = (min(norms), "ratio", len(norms))
        for r in sorted(rows, key=lambda r: r.cr):
            out[f"acc.cr{r.cr:g}"] = (r.accuracy, "fraction", 1)
        return out


# --- serve --------------------------------------------------------------------


@dataclass
class ServeState:
    devices: list
    classifier: object
    requests: list  # (device, test index), in seeded order
    num_classes: int


@dataclass
class ServeWorkload:
    """Inference only. Set-up fits the CR=4 device autoencoders and the hub
    classifier; a pass serves every test sample as a closed-loop request
    (encode -> push -> predict, one caller), then bulk-exports the test
    split into a fresh hub and evaluates it."""

    spec: lw.SyntheticSpec = field(default_factory=lw.SyntheticSpec)
    clf_epochs: int = 2
    setup_repeats: int = 3
    warmup: int = 2
    traced_passes: int = 20
    name = "serve"
    cr = 4
    n_devices = 4
    ae_epochs = 1

    @property
    def image_shape(self):
        return tuple(self.spec.image_size)

    def setup(self, seed):
        train, test = lw.gen_synthetic(self.spec, seed=seed)
        rng = np.random.default_rng(seed)
        devices = lw.make_devices(train, test, self.n_devices, "iid", rng)
        hub = lw.Hub()
        for dev in devices:
            dev.fit_autoencoder(self.cr, lw.TrainConfig(epochs=self.ae_epochs, seed=seed))
            dev.export_latents("train", lw.HubSink(hub, "train"))
        hub.train_classifier("A", lw.TrainConfig(epochs=self.clf_epochs, seed=seed),
                             num_classes=train.num_classes)
        requests = [(dev, i) for dev in devices for i in range(len(dev.data["test"]))]
        order = rng.permutation(len(requests))
        return ServeState(devices, hub.classifier, [requests[i] for i in order],
                          train.num_classes)

    def _hub(self, st):
        hub = lw.Hub()
        hub.classifier = st.classifier
        return hub

    def run_pass(self, st):
        hub = self._hub(st)
        sink = lw.HubSink(hub, "test")
        latencies, hits, failed = [], 0, 0
        start = perf_counter()
        for dev, i in st.requests:
            test = dev.data["test"]
            t0 = perf_counter()
            rec = dev.encode(test.images[i], int(test.labels[i]))
            try:
                sink.push(rec)
                hits += hub.predict(rec) == rec.label
            except SinkFailure:
                failed += 1
            latencies.append(perf_counter() - t0)
        req_s = perf_counter() - start
        stored = len(hub.records("test"))

        bulk = self._hub(st)
        exported, bulk_steps = 0, []
        for dev in st.devices:
            t0 = perf_counter()
            try:
                exported += dev.export_latents("test", lw.HubSink(bulk, "test"))
            except SinkFailure as exc:
                exported += exc.emitted
            bulk_steps.append(perf_counter() - t0)
        t0 = perf_counter()
        acc_eval, _ = bulk.evaluate("test", num_classes=st.num_classes)
        bulk_steps.append(perf_counter() - t0)
        bulk_s = sum(bulk_steps)

        n = len(st.requests)
        failed += n - exported
        return PassResult(req_s + bulk_s, 2 * n, failed, latencies + bulk_steps, {
            "latencies": latencies, "bulk_s": bulk_s, "n": n, "stored": stored,
            "acc_req": hits / n, "acc_eval": acc_eval})

    def check(self, passes):
        errors = []
        first = passes[0].data
        for k, p in enumerate(passes):
            d = p.data
            if p.failed:
                errors.append(f"pass {k}: {p.failed} pushes not accepted")
            if d["stored"] != d["n"]:
                errors.append(f"pass {k}: hub stored {d['stored']} of {d['n']} requests")
            # single-sample and batched forwards may round differently:
            # at most one test sample may change its predicted class
            if abs(d["acc_req"] - d["acc_eval"]) > 1.0 / d["n"] + 1e-9:
                errors.append(f"pass {k}: per-sample accuracy {d['acc_req']} vs "
                              f"Hub.evaluate {d['acc_eval']}")
            if (d["acc_req"], d["acc_eval"]) != (first["acc_req"], first["acc_eval"]):
                errors.append(f"pass {k}: accuracy differs from pass 0")
        return errors

    def detail(self, passes):
        lat = [x for p in passes for x in p.data["latencies"]]
        n = passes[0].data["n"]
        bulk = statistics.median(p.data["bulk_s"] for p in passes)
        return {"req_p50_ms": (percentile_ms(lat, 50), "ms", len(lat)),
                "req_p99_ms": (percentile_ms(lat, 99), "ms", len(lat)),
                "bulk_samples_per_s": (n / bulk, "samples/s", len(passes)),
                "acc_per_sample": (passes[0].data["acc_req"], "fraction", n),
                "acc_evaluate": (passes[0].data["acc_eval"], "fraction", n)}


# --- wire ---------------------------------------------------------------------

# damage kinds in the hostile stream, and the ack each one draws (None: the
# scanner skips the bytes without a frame attempt)
DAMAGE_ACK = {
    "crc": lw.wire.ACK_BAD_CRC,
    "version": lw.wire.ACK_BAD_VERSION,
    "truncated": lw.wire.ACK_BAD_CRC,  # its declared body runs into the next frame
    "magic": None,
    "garbage": None,
    "oversize": None,  # length field beyond the scanner's limit
}
INTACT_PER_BLOCK = 18  # with one of each damage kind: 25% of slots damaged
TRUNCATED_BYTES = 16  # cut from the end of a truncated frame
GARBAGE_BYTES = 128  # length of a garbage run


@dataclass
class WireState:
    tcp_records: list
    chunks: list  # hostile stream, cut into fixed-size chunks
    stream_bytes: int
    intact: list  # records of the stream's intact frames, in order
    expected_acks: bytes


def _clean_frame(rng, shape, device_id, record_id):
    """A random record whose frame holds the magic only at its start."""
    while True:
        payload = rng.standard_normal(math.prod(shape)).astype("<f4")
        rec = lw.LatentRecord(device_id, record_id, int(rng.integers(0, 10)), shape, payload)
        frame = lw.encode_record(rec)
        if frame.find(lw.wire.MAGIC, 1) < 0:
            return rec, frame


def _garbage(rng):
    raw = rng.integers(0, 255, GARBAGE_BYTES, dtype=np.uint8)
    raw[raw >= ord("L")] += 1  # no magic can start inside a garbage run
    return raw.tobytes()


def _damaged(kind, frame):
    b = bytearray(frame)
    if kind == "crc":
        b[-1] ^= 0xFF
    elif kind == "version":
        b[4] = lw.wire.VERSION + 1
    elif kind == "truncated":
        del b[len(b) - TRUNCATED_BYTES:]
    elif kind == "magic":
        b[3:4] = b"X"
    elif kind == "oversize":
        b[6:10] = (0xFFFFFFF0).to_bytes(4, "little")
    return bytes(b)


def build_hostile_stream(rng, shapes, blocks, record_id0):
    """Intact frames mixed with damaged ones in seeded order, ending with an
    intact frame. Frames alternate between `shapes` and damage cuts or adds
    fixed lengths, so every seed's stream has the same length and seeds
    differ in content only. Returns (stream, intact records, expected ack
    bytes)."""
    magic = lw.wire.MAGIC
    while True:
        parts, intact, acks, starts = [], [], bytearray(), []
        offset, rid = 0, record_id0
        slots = []
        for _ in range(blocks):
            block = ["intact"] * INTACT_PER_BLOCK + list(DAMAGE_ACK)
            slots += [block[i] for i in rng.permutation(len(block))]
        slots.append("intact")
        for kind in slots:
            if kind == "garbage":
                part = _garbage(rng)
            else:
                shape = shapes[(rid - record_id0) % len(shapes)]
                rec, frame = _clean_frame(rng, shape, rid % 4, rid)
                rid += 1
                part = frame if kind == "intact" else _damaged(kind, frame)
                if kind == "intact":
                    intact.append(rec)
                if kind != "magic":
                    starts.append(offset)
            ack = lw.wire.ACK_ACCEPTED if kind == "intact" else DAMAGE_ACK[kind]
            if ack is not None:
                acks.append(ack)
            parts.append(part)
            offset += len(part)
        stream = b"".join(parts)
        found, pos = [], stream.find(magic)
        while pos >= 0:
            found.append(pos)
            pos = stream.find(magic, pos + 1)
        if found == starts:  # no magic formed across a part boundary
            return stream, intact, bytes(acks)


@dataclass
class WireWorkload:
    """No model compute. A pass pushes pre-encoded CR=4 and CR=1 records
    through one WireClientSink to a loopback HubServer over a fresh Hub,
    each push waiting for its ack, then feeds serve_stream a hostile byte
    stream of CR=4 and CR=16 frames in fixed-size chunks. The small frames
    keep per-frame scan and ingest cost, not byte copying, in front."""

    image_shape: tuple = (32, 32, 3)
    tcp_frames: int = 2000
    stream_blocks: int = 80
    setup_repeats: int = 15
    warmup: int = 1
    traced_passes: int = 10
    name = "wire"
    chunk_bytes = 4096

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [tuple(self.image_shape),
                  lw.build_autoencoder(self.image_shape, 4).latent_shape]
        tcp = []
        for rid, k in enumerate(rng.permutation(self.tcp_frames) % 2):
            shape = shapes[k]
            payload = rng.standard_normal(math.prod(shape)).astype("<f4")
            tcp.append(lw.LatentRecord(rid % 4, rid, int(rng.integers(0, 10)), shape, payload))
        small = [shapes[1], lw.build_autoencoder(self.image_shape, 16).latent_shape]
        stream, intact, acks = build_hostile_stream(
            rng, small, self.stream_blocks, self.tcp_frames)
        chunks = [stream[i:i + self.chunk_bytes]
                  for i in range(0, len(stream), self.chunk_bytes)]
        return WireState(tcp, chunks, len(stream), intact, acks)

    def run_pass(self, st):
        hub = lw.Hub()
        latencies, failed = [], 0
        with lw.HubServer(hub, split="train") as server:
            host, port = server.address[:2]
            with lw.WireClientSink(host, port) as sink:
                start = perf_counter()
                for rec in st.tcp_records:
                    t0 = perf_counter()
                    try:
                        sink.push(rec)
                    except (SinkFailure, OSError):
                        failed += 1
                    latencies.append(perf_counter() - t0)
                tcp_s = perf_counter() - start
        tcp_stored = hub.records("train") == st.tcp_records

        scan_hub = lw.Hub()
        acks, chunk_times = bytearray(), []
        start = perf_counter()
        accepted, _ = lw.hub.serve_stream(scan_hub, timed_chunks(st.chunks, chunk_times),
                                          "train", ack_writer=acks.extend)
        scan_s = perf_counter() - start
        expected = st.expected_acks
        ack_misses = sum(a != e for a, e in zip(acks, expected)) + abs(len(acks) - len(expected))
        return PassResult(tcp_s + scan_s, len(st.tcp_records) + len(expected),
                          failed + ack_misses, latencies + chunk_times, {
                              "latencies": latencies, "tcp_s": tcp_s, "scan_s": scan_s,
                              "tcp_failed": failed, "tcp_stored": tcp_stored,
                              "ack_misses": ack_misses, "accepted": accepted,
                              "intact": len(st.intact), "stream_bytes": st.stream_bytes,
                              "scan_stored": scan_hub.records("train") == st.intact})

    def check(self, passes):
        errors = []
        for k, p in enumerate(passes):
            d = p.data
            if d["tcp_failed"]:
                errors.append(f"pass {k}: {d['tcp_failed']} TCP pushes not accepted")
            if not d["tcp_stored"]:
                errors.append(f"pass {k}: server hub store differs from the pushed records")
            if d["ack_misses"]:
                errors.append(f"pass {k}: {d['ack_misses']} stream acks differ from expected")
            if d["accepted"] != d["intact"]:
                errors.append(f"pass {k}: {d['accepted']} stream frames accepted, "
                              f"{d['intact']} intact")
            if not d["scan_stored"]:
                errors.append(f"pass {k}: stream hub store differs from the intact frames")
        return errors

    def detail(self, passes):
        lat = [x for p in passes for x in p.data["latencies"]]
        tcp = statistics.median(p.data["tcp_s"] for p in passes)
        scan = statistics.median(p.data["scan_s"] for p in passes)
        return {"ack_p50_ms": (percentile_ms(lat, 50), "ms", len(lat)),
                "ack_p99_ms": (percentile_ms(lat, 99), "ms", len(lat)),
                "ingest_frames_per_s": (len(passes[0].data["latencies"]) / tcp,
                                        "frames/s", len(passes)),
                "scan_mb_per_s": (passes[0].data["stream_bytes"] / 1e6 / scan,
                                  "MB/s", len(passes))}


WORKLOADS = {"grid": GridWorkload, "serve": ServeWorkload, "wire": WireWorkload}
