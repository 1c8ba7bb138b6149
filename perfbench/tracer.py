"""Span tracer for the benchmark's traced runs.

Wrappers are installed from here, on every name a caller looks up: a
function imported by name into several ``latentwire`` modules is replaced in
each of them, and a method is replaced on its class. ``installed()`` puts
them in place and always takes them out again, so nothing leaks into an
untraced run.

Each call becomes a span ``[id, parent_id, name, start, end, child_s,
thread, detail]``. Spans stay in memory; ``write_spans`` writes them out
when the run ends. A span's self time is its duration minus the time of
its direct children, which on one thread are nested inside it.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

ACK_NAMES = {
    0x00: "accepted",
    0x01: "bad_magic",
    0x02: "bad_version",
    0x03: "bad_crc",
    0x04: "truncated",
    0x05: "shape_mismatch",
    0x06: "duplicate",
}

LAYER_OPS = ("conv2d", "maxpool2d", "upsample2d", "dense", "activation")
REPORTED_CRS = (1, 4, 8, 16)

ID, PARENT, NAME, START, END, CHILD_S, THREAD, DETAIL = range(8)


def _shape(a):
    return tuple(getattr(a, "shape", ()))


# --- hooks: (tracer, args, kwargs, result) -> None, run after a call returns


def _conv_fwd_flops(tr, args, kwargs, result):
    y, w = result[0], args[1]
    k, _, c, _ = w.shape
    tr.add("ops.conv2d.fwd_flop", 2 * y.size * k * k * c)


def _backward_flops(tr, args, kwargs, result):
    # dW and dx of a conv each cost one forward's multiply-adds
    pgrads = result[1]
    if args[0].kind == "conv2d" and pgrads and "w" in pgrads:
        k, _, c, _ = pgrads["w"].shape
        tr.add("ops.conv2d.bwd_flop", 4 * args[1].size * k * k * c)


def _count_ack(tr, args, kwargs, result):
    tr.add(f"hub.ingest.ack.{ACK_NAMES.get(result, 'other')}")


def _count_decode(tr, args, kwargs, result):
    tr.add("wire.decode_frame_at.ok")


def _frame_bytes(tr, args, kwargs, result):
    with tr.lock:
        tr.frame_bytes[args[0].payload.size].append(len(result))


def _exported(tr, args, kwargs, result):
    tr.add("device.export_latents.samples", int(result))


def _eval_batch(tr, args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    with tr.lock:
        tr.counters["train.evaluate.max_batch"] = max(
            tr.counters["train.evaluate.max_batch"], len(data))


def _ops_detail(args, kwargs):
    return [_shape(a) for a in args[:2]]


def _backward_name(args, kwargs):
    return f"ops.{args[0].kind}.bwd"


def _run_cell_name(args, kwargs):
    cr = args[4] if len(args) > 4 else kwargs["cr"]
    return f"experiment.run_cell.cr{float(cr):g}"


# (home module, attribute, span name or name function, detail fn, after hook)
FUNCTIONS = [
    *[("latentwire.ops", op, f"ops.{op}.fwd", _ops_detail,
       _conv_fwd_flops if op == "conv2d" else None)
      for op in LAYER_OPS + ("dropout", "flatten")],
    ("latentwire.ops", "backward", _backward_name, None, _backward_flops),
    ("latentwire.losses", "mse_loss", "losses.mse_loss", None, None),
    ("latentwire.losses", "cross_entropy_loss", "losses.cross_entropy_loss", None, None),
    ("latentwire.optim", "optimizer_step", "optim.optimizer_step", None, None),
    ("latentwire.train", "train_autoencoder", "train.train_autoencoder", None, None),
    ("latentwire.train", "train_classifier", "train.train_classifier", None, None),
    ("latentwire.train", "evaluate", "train.evaluate", None, _eval_batch),
    ("latentwire.wire", "encode_record", "wire.encode_record", None, _frame_bytes),
    ("latentwire.wire", "decode_record", "wire.decode_record", None, None),
    ("latentwire.wire", "decode_frame_at", "wire.decode_frame_at", None, _count_decode),
    ("latentwire.data", "gen_synthetic", "data.gen_synthetic", None, None),
    ("latentwire.experiment", "run_cell", _run_cell_name, None, None),
]

# (home module, class, method, span name, after hook)
METHODS = [
    ("latentwire.network", "Network", "forward", "network.forward", None),
    ("latentwire.network", "Network", "backward", "network.backward", None),
    ("latentwire.device", "DeviceNode", "fit_autoencoder", "device.fit_autoencoder", None),
    ("latentwire.device", "DeviceNode", "export_latents", "device.export_latents", _exported),
    ("latentwire.device", "DeviceNode", "encode", "device.encode", None),
    ("latentwire.device", "HubSink", "push", "device.HubSink.push", None),
    ("latentwire.device", "WireClientSink", "push", "device.WireClientSink.push", None),
    ("latentwire.hub", "Hub", "ingest", "hub.ingest", _count_ack),
    ("latentwire.hub", "Hub", "assemble", "hub.assemble", None),
    ("latentwire.hub", "Hub", "train_classifier", "hub.train_classifier", None),
    ("latentwire.hub", "Hub", "evaluate", "hub.evaluate", None),
    ("latentwire.hub", "Hub", "predict", "hub.predict", None),
    ("latentwire.wire", "FrameScanner", "feed", "wire.FrameScanner.feed", None),
]


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans = []  # closed spans, in end order
        self.counters = Counter()
        self.frame_bytes = defaultdict(list)  # payload elements -> frame sizes
        self.missing = []  # targets that the package no longer has
        self.lock = threading.Lock()  # hooks run on server threads too
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []  # (owner, attribute, original)

    def add(self, key, n=1):
        with self.lock:
            self.counters[key] += n

    # --- spans

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, detail=None, after=None):
        """Wrap `fn` so each call records a span named `name` (a string or a
        function of the call's arguments)."""
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [next(self._ids), stack[-1][ID] if stack else 0,
                    name(args, kwargs) if callable(name) else name,
                    0.0, 0.0, 0.0, threading.get_ident(),
                    detail(args, kwargs) if detail else None]
            stack.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][CHILD_S] += span[END] - span[START]
                self.spans.append(span)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    # --- installation

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "latentwire" or n.startswith("latentwire."))]
        for home, attr, name, detail, after in FUNCTIONS:
            original = getattr(importlib.import_module(home), attr, None)
            if original is None:
                self.missing.append(f"{home}.{attr}")
                continue
            wrapper = self.wrap(original, name, detail, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for home, cls_name, attr, name, after in METHODS:
            cls = getattr(importlib.import_module(home), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                self.missing.append(f"{home}.{cls_name}.{attr}")
                continue
            self._patch(cls, attr, self.wrap(original, name, after=after))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --- summaries

    def totals(self):
        """name -> [total_s, calls, self_s]"""
        out = defaultdict(lambda: [0.0, 0, 0.0])
        for span in self.spans:
            row = out[span[NAME]]
            dur = span[END] - span[START]
            row[0] += dur
            row[1] += 1
            row[2] += dur - span[CHILD_S]
        return out

    def count_under(self, name, ancestor):
        """Spans called `name` with an `ancestor`-named span above them."""
        by_id = {s[ID]: s for s in self.spans}
        hits = 0
        for span in self.spans:
            if span[NAME] != name:
                continue
            parent = by_id.get(span[PARENT])
            while parent is not None:
                if parent[NAME] == ancestor:
                    hits += 1
                    break
                parent = by_id.get(parent[PARENT])
        return hits

    def coverage(self, windows):
        """Share of the (start, end) windows that top-level spans on the
        calling thread cover."""
        thread = threading.get_ident()
        top = sorted((s[START], s[END]) for s in self.spans
                     if s[PARENT] == 0 and s[THREAD] == thread)
        total = covered = 0.0
        for start, end in windows:
            intervals = [(lo, hi) for lo, hi in top if lo >= start and hi <= end]
            reach = start
            for lo, hi in intervals:
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total += end - start
        return covered / total if total > 0 else 0.0

    def write_spans(self, path):
        """Gzipped JSON lines: a header naming the fields, then one array per
        span in start order, with self time in place of the child total."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["id", "parent", "name", "start", "end", "self_s",
                                 "thread", "detail"]) + "\n")
            for s in sorted(self.spans, key=lambda s: s[START]):
                fh.write(json.dumps([s[ID], s[PARENT], s[NAME], s[START], s[END],
                                     s[END] - s[START] - s[CHILD_S], s[THREAD],
                                     s[DETAIL]]) + "\n")


def layer_metrics(tr, input_elems, static_frame_bytes, overhead_s, overhead_share,
                  coverage):
    """Every per-layer metric of a traced run, as name -> (value, unit)."""
    tot = tr.totals()
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    for op in LAYER_OPS:
        for phase in ("fwd", "bwd"):
            s, calls, _ = tot.get(f"ops.{op}.{phase}", (0.0, 0, 0.0))
            put(f"ops.{op}.{phase}_s", s, "s")
            put(f"ops.{op}.{phase}_calls", calls, "count")
    put("ops.conv2d.fwd_gflop", tr.counters["ops.conv2d.fwd_flop"] / 1e9, "GFLOP")
    put("ops.conv2d.bwd_gflop", tr.counters["ops.conv2d.bwd_flop"] / 1e9, "GFLOP")

    for fn in ("forward", "backward"):
        _, calls, self_s = tot.get(f"network.{fn}", (0.0, 0, 0.0))
        put(f"network.{fn}.self_s", self_s, "s")
        put(f"network.{fn}.calls", calls, "count")

    for fn in ("fit_autoencoder", "export_latents", "encode"):
        put(f"device.{fn}.s", tot.get(f"device.{fn}", (0.0,))[0], "s")
    put("device.encode.calls", tot.get("device.encode", (0.0, 0))[1], "count")
    for sink in ("HubSink", "WireClientSink"):
        put(f"device.{sink}.push.s", tot.get(f"device.{sink}.push", (0.0,))[0], "s")
    exported = tr.counters["device.export_latents.samples"]
    forwards = tr.count_under("network.forward", "device.export_latents")
    put("device.export_latents.forwards_per_sample",
        forwards / exported if exported else 0.0, "ratio")

    for fn in ("encode_record", "decode_record"):
        s, calls, _ = tot.get(f"wire.{fn}", (0.0, 0, 0.0))
        put(f"wire.{fn}.s", s, "s")
        put(f"wire.{fn}.calls", calls, "count")
    put("wire.FrameScanner.feed.s", tot.get("wire.FrameScanner.feed", (0.0,))[0], "s")
    accepted = tr.counters["hub.ingest.ack.accepted"]
    put("wire.decodes_per_frame",
        tr.counters["wire.decode_frame_at.ok"] / accepted if accepted else 0.0, "ratio")
    for cr in REPORTED_CRS:
        seen = tr.frame_bytes.get(input_elems // cr)
        value = sum(seen) / len(seen) if seen else static_frame_bytes[cr]
        put(f"wire.frame_bytes_per_sample.cr{cr}", value, "bytes")

    for fn in ("ingest", "assemble", "train_classifier", "evaluate", "predict"):
        s, calls, _ = tot.get(f"hub.{fn}", (0.0, 0, 0.0))
        put(f"hub.{fn}.s", s, "s")
        put(f"hub.{fn}.calls", calls, "count")
    for code in ACK_NAMES.values():
        put(f"hub.ingest.ack.{code}", tr.counters[f"hub.ingest.ack.{code}"], "count")

    for name in ("train.train_autoencoder", "train.train_classifier", "train.evaluate",
                 "optim.optimizer_step", "losses.mse_loss", "losses.cross_entropy_loss"):
        put(f"{name}.s", tot.get(name, (0.0,))[0], "s")
    put("train.evaluate.max_batch", tr.counters["train.evaluate.max_batch"], "count")

    cell_self = 0.0
    for cr in REPORTED_CRS:
        s, _, self_s = tot.get(f"experiment.run_cell.cr{cr:g}", (0.0, 0, 0.0))
        put(f"experiment.run_cell.cr{cr}.s", s, "s")
        cell_self += self_s
    put("experiment.run_cell.self_s", cell_self, "s")
    put("data.gen_synthetic.s", tot.get("data.gen_synthetic", (0.0,))[0], "s")

    put("trace.overhead_s", overhead_s, "s")
    put("trace.overhead_share", overhead_share, "ratio")
    put("trace.coverage", coverage, "ratio")
    return m
