"""Span recorder for the traced run.

``install`` replaces the public entry points of each teeguard module with
timing wrappers, in this process only, and returns a function that puts the
originals back.  Each span records its name, request id (the utterance
index, or the analysis/training index), the thread that ran it, start and
end in ``perf_counter_ns``, its busy time (CPU time of its thread, which
leaves out waits for the interpreter lock and the network), its self time
(busy time minus nested spans on the same thread) and an optional value
(bytes moved, ack status, ...).  Spans stay
in memory; ``write_spans`` dumps them when the run ends.
"""

from __future__ import annotations

import gzip
import json
import statistics
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns, thread_time_ns

import teeguard.audio
import teeguard.driver
import teeguard.pipeline
import teeguard.pta
import teeguard.relay
import teeguard.sense
import teeguard.sense.training
import teeguard.tcbtrace
import teeguard.tee

# name, unit, better, end-to-end metric it should move, workload where it should move it
LAYER_METRICS = [
    ("audio.capture_us", "us", "lower", "utt_per_s, cpu_us_per_utt", "long-utterance"),
    ("audio.encode_us", "us", "lower", "utt_per_s, cpu_us_per_utt", "long-utterance"),
    ("driver.ingest_us", "us", "lower", "utt_per_s", "long-utterance"),
    ("driver.block_parse_us", "us", "lower", "utt_per_s", "long-utterance"),
    ("driver.ring_hwm_frames", "frames", "lower", "utt_per_s", "long-utterance"),
    ("driver.overruns", "count", "lower", "utt_per_s", "long-utterance"),
    ("tee.mem_read_us", "us", "lower", "cpu_us_per_utt", "long-utterance"),
    ("tee.mem_write_us", "us", "lower", "cpu_us_per_utt", "long-utterance"),
    ("tee.mem_bytes_per_utt", "bytes", "lower", "cpu_us_per_utt", "long-utterance"),
    ("pta.invoke_us", "us", "lower", "lat_p50_us", "long-utterance"),
    ("pta.block_bytes", "bytes", "lower", "lat_p50_us", "long-utterance"),
    ("pta.errors", "count", "lower", "lat_p50_us", "long-utterance"),
    ("sense.train_s", "s", "lower", "setup_s", "trained-hybrid"),
    ("sense.train_epoch_ms", "ms", "lower", "setup_s", "trained-hybrid"),
    ("sense.transcribe_us", "us", "lower", "lat_p50_us, utt_per_s", "trained-hybrid"),
    ("sense.classify_us", "us", "lower", "lat_p50_us, utt_per_s", "trained-hybrid"),
    ("relay.filter_us", "us", "lower", "lat_p50_us, lat_p99_us", "chatty-tcp"),
    ("relay.send_us", "us", "lower", "lat_p50_us, lat_p99_us, switches_per_fwd", "chatty-tcp"),
    ("relay.frames", "count", "lower", "switches_per_fwd", "chatty-tcp"),
    ("relay.dropped", "count", "lower", "switches_per_fwd", "chatty-tcp"),
    ("relay.masked", "count", "lower", "switches_per_fwd", "chatty-tcp"),
    ("cloud.exchange_us", "us", "lower", "lat_p99_us", "chatty-tcp"),
    ("cloud.exchange_wall_us", "us", "lower", "lat_p50_us, lat_p99_us", "chatty-tcp"),
    ("cloud.received", "count", "higher", "lat_p99_us", "chatty-tcp"),
    ("cloud.naks", "count", "lower", "lat_p99_us", "chatty-tcp"),
    ("pipeline.ring_wait_us", "us", "lower", "utt_per_s", "chatty-tcp"),
    ("pipeline.overhead_us_per_utt", "us", "lower", "utt_per_s", "chatty-tcp"),
    ("tcbtrace.parse_ms", "ms", "lower", "events_per_s", "tcb-trace"),
    ("tcbtrace.graph_ms", "ms", "lower", "events_per_s", "tcb-trace"),
    ("tcbtrace.minimal_set_ms", "ms", "lower", "events_per_s", "tcb-trace"),
    ("tcbtrace.report_ms", "ms", "lower", "events_per_s", "tcb-trace"),
    ("trace.overhead_ratio", "ratio", "higher", "all throughput metrics", "every workload"),
]


class Tracer:
    """Entry spans (capture, ingest, PTA read) begin a new request on their
    thread, and later spans on that thread inherit its id.  Each pipeline
    stage thread sees utterances in FIFO order, so a per-name counter is the
    utterance index."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.windows: list[tuple[int, int, int]] = []  # (start_ns, end_ns, utterances)
        self.repeat = 0
        self._counters: dict[str, int] = defaultdict(int)
        self._local = threading.local()

    def begin_repeat(self) -> None:
        self.repeat += 1
        self._counters.clear()

    def set_request(self, rid) -> None:
        self._local.rid = rid

    def call(self, name: str, fn, args, kwargs, value=None, entry: bool = False):
        """Run ``fn`` inside a span; on success ``value(result, args)`` fills
        the span's value."""
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        if entry:
            local.rid = (self.repeat, self._counters[name])
            self._counters[name] += 1
        rid = getattr(local, "rid", None)
        stack.append(0)
        start, cpu_start = perf_counter_ns(), thread_time_ns()
        result, ok = None, False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            busy = thread_time_ns() - cpu_start
            end = perf_counter_ns()
            nested = stack.pop()
            if stack:
                stack[-1] += busy
            self.spans.append((
                name, rid, threading.current_thread().name, start, end, busy,
                busy - nested, value(result, args) if ok and value is not None else None,
            ))


def _wrap(tracer: Tracer, name: str, fn, value=None, entry=None):
    def wrapper(*args, **kwargs):
        is_entry = entry(args) if callable(entry) else bool(entry)
        return tracer.call(name, fn, args, kwargs, value, is_entry)

    return wrapper


def _ack_status(raw, _args):
    return int.from_bytes(raw[8:12], "little") if len(raw) == 12 else -1


def _ingest_value(_accepted, args):
    driver = args[0]
    return driver.occupancy(), driver.overrun_count


def _invoke_value(resp, args):
    out = resp.params[1]
    written = out.b if resp.status == 0 and args[1].cmd_id == teeguard.pta.CMD_READ_AUDIO else 0
    return (written, int(resp.status != 0))


def install(tracer: Tracer):
    """Wrap the public entry points; returns a function that restores them."""
    pl, tr = teeguard.pipeline, teeguard.tcbtrace
    block_parse = teeguard.driver.EncodedBlock.__dict__["from_bytes"].__func__
    build_classifier = pl.build_classifier

    def traced_build_classifier(config):
        vocab, verdict = build_classifier(config)
        return vocab, _wrap(tracer, "sense.classify", verdict)

    patches = [
        (teeguard.audio.MicrophoneSource, "capture",
         _wrap(tracer, "audio.capture", teeguard.audio.MicrophoneSource.capture, entry=True)),
        (pl, "encode_frames", _wrap(tracer, "audio.encode", pl.encode_frames)),
        (teeguard.driver.SecureAudioDriver, "ingest",
         _wrap(tracer, "driver.ingest", teeguard.driver.SecureAudioDriver.ingest,
               value=_ingest_value, entry=True)),
        (teeguard.driver.EncodedBlock, "from_bytes",
         classmethod(_wrap(tracer, "driver.block_parse", block_parse))),
        (teeguard.tee.Memory, "read",
         _wrap(tracer, "tee.mem_read", teeguard.tee.Memory.read, value=lambda _r, a: a[3])),
        (teeguard.tee.Memory, "write",
         _wrap(tracer, "tee.mem_write", teeguard.tee.Memory.write, value=lambda _r, a: len(a[3]))),
        (teeguard.pta.PtaBridge, "invoke",
         _wrap(tracer, "pta.invoke", teeguard.pta.PtaBridge.invoke, value=_invoke_value,
               entry=lambda a: a[1].cmd_id == teeguard.pta.CMD_READ_AUDIO)),
        (pl, "transcribe", _wrap(tracer, "sense.transcribe", pl.transcribe)),
        (pl, "build_classifier", traced_build_classifier),
        (pl, "apply_policy",
         _wrap(tracer, "relay.filter", pl.apply_policy, value=lambda d, _a: d.action)),
        (teeguard.relay.SecureChannel, "send",
         _wrap(tracer, "relay.send", teeguard.relay.SecureChannel.send)),
        (teeguard.relay.TcpTransport, "exchange",
         _wrap(tracer, "cloud.exchange", teeguard.relay.TcpTransport.exchange, value=_ack_status)),
        (teeguard.relay.RecordingTransport, "exchange",
         _wrap(tracer, "cloud.exchange", teeguard.relay.RecordingTransport.exchange,
               value=_ack_status)),
        (teeguard.sense, "train", _wrap(tracer, "sense.train", teeguard.sense.train)),
        (teeguard.sense.training, "loss_and_gradients",
         _wrap(tracer, "sense.train_epoch", teeguard.sense.training.loss_and_gradients)),
        (tr, "parse_trace", _wrap(tracer, "tcbtrace.parse", tr.parse_trace)),
        (tr, "build_task_graphs", _wrap(tracer, "tcbtrace.graph", tr.build_task_graphs)),
        (tr, "minimal_set", _wrap(tracer, "tcbtrace.minimal_set", tr.minimal_set)),
        (tr, "emit_report", _wrap(tracer, "tcbtrace.report", tr.emit_report)),
        (tr, "render_report", _wrap(tracer, "tcbtrace.report", tr.render_report)),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    for owner, attr, replacement in patches:
        setattr(owner, attr, replacement)

    def restore() -> None:
        for owner, attr, original in originals:
            setattr(owner, attr, original)

    return restore


def layer_metrics(tracer: Tracer, analyses: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.

    Pipeline layers run on three threads that take turns holding the
    interpreter lock, so their times are busy time in microseconds per
    utterance; ``cloud.exchange_wall_us`` adds the wall time of the round
    trip.  Training and tcbtrace run alone on the main thread and report wall
    time.  A layer the workload never reached reads 0.
    """
    utterances = sum(n for _, _, n in tracer.windows)
    busy = defaultdict(int)
    wall = defaultdict(int)
    count = defaultdict(int)
    values = defaultdict(list)
    for name, _rid, _thread, start, end, span_busy, _self, value in tracer.spans:
        busy[name] += span_busy
        wall[name] += end - start
        count[name] += 1
        if value is not None:
            values[name].append(value)

    def per_utt_us(ns: int) -> float:
        return ns / utterances / 1e3 if utterances else 0.0

    def per_analysis_ms(name: str) -> float:
        return wall[name] / analyses / 1e6 if analyses else 0.0

    # Overruns are cumulative per driver; a repeat's last ingest holds its total.
    overruns = {}
    ingest_end = {}
    read_start = {}
    for name, rid, _thread, start, end, *_rest, value in tracer.spans:
        if name == "driver.ingest":
            overruns[rid[0]] = value[1]
            ingest_end[rid] = end
        elif name == "pta.invoke" and rid is not None and rid not in read_start:
            read_start[rid] = start
    waits = [read_start[rid] - done for rid, done in ingest_end.items() if rid in read_start]
    # Wall time of the runs not covered by any layer's own work.
    uncovered = sum(w_end - w_start for w_start, w_end, _ in tracer.windows)
    for _name, _rid, _thread, start, end, _busy, self_busy, _value in tracer.spans:
        if any(w_start <= start and end <= w_end for w_start, w_end, _ in tracer.windows):
            uncovered -= self_busy

    blocks = [written for written, _ in values["pta.invoke"] if written]
    trainings = [
        (end - start) / 1e9 for name, _, _, start, end, *_ in tracer.spans if name == "sense.train"
    ]
    epochs = count["sense.train_epoch"]
    acks = values["cloud.exchange"]
    tee_bytes = sum(values["tee.mem_read"]) + sum(values["tee.mem_write"])
    return {
        "audio.capture_us": per_utt_us(busy["audio.capture"]),
        "audio.encode_us": per_utt_us(busy["audio.encode"]),
        "driver.ingest_us": per_utt_us(busy["driver.ingest"]),
        "driver.block_parse_us": per_utt_us(busy["driver.block_parse"]),
        "driver.ring_hwm_frames": max((occ for occ, _ in values["driver.ingest"]), default=0),
        "driver.overruns": sum(overruns.values()),
        "tee.mem_read_us": per_utt_us(busy["tee.mem_read"]),
        "tee.mem_write_us": per_utt_us(busy["tee.mem_write"]),
        "tee.mem_bytes_per_utt": tee_bytes / utterances if utterances else 0.0,
        "pta.invoke_us": per_utt_us(busy["pta.invoke"]),
        "pta.block_bytes": statistics.fmean(blocks) if blocks else 0.0,
        "pta.errors": sum(err for _, err in values["pta.invoke"]),
        "sense.train_s": statistics.median(trainings) if trainings else 0.0,
        "sense.train_epoch_ms": wall["sense.train_epoch"] / epochs / 1e6 if epochs else 0.0,
        "sense.transcribe_us": per_utt_us(busy["sense.transcribe"]),
        "sense.classify_us": per_utt_us(busy["sense.classify"]),
        "relay.filter_us": per_utt_us(busy["relay.filter"]),
        "relay.send_us": per_utt_us(busy["relay.send"]),
        "relay.frames": count["relay.send"],
        "relay.dropped": values["relay.filter"].count("drop"),
        "relay.masked": values["relay.filter"].count("mask"),
        "cloud.exchange_us": per_utt_us(busy["cloud.exchange"]),
        "cloud.exchange_wall_us": per_utt_us(wall["cloud.exchange"]),
        "cloud.received": sum(1 for status in acks if status == 0),
        "cloud.naks": sum(1 for status in acks if status != 0),
        "pipeline.ring_wait_us": statistics.fmean(waits) / 1e3 if waits else 0.0,
        "pipeline.overhead_us_per_utt": per_utt_us(uncovered),
        "tcbtrace.parse_ms": per_analysis_ms("tcbtrace.parse"),
        "tcbtrace.graph_ms": per_analysis_ms("tcbtrace.graph"),
        "tcbtrace.minimal_set_ms": per_analysis_ms("tcbtrace.minimal_set"),
        "tcbtrace.report_ms": per_analysis_ms("tcbtrace.report"),
    }


def write_spans(tracer: Tracer, path: Path) -> None:
    fields = ("name", "rid", "thread", "start_ns", "end_ns", "busy_ns", "self_ns", "value")
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for span in tracer.spans:
            out.write(json.dumps(dict(zip(fields, span))) + "\n")
