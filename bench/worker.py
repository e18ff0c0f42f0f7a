"""Run one benchmark workload in this process and write its result as JSON.

``run.py`` starts this script in a fresh process with the checkout's
``src/`` on ``PYTHONPATH``::

    python bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --result PATH

Exit status 0 means every check passed, 1 means the result was written
but a correctness check failed; anything else means no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import teeguard.sense
import teeguard.tcbtrace
from teeguard.audio import GeneratorConfig, make_labeled_corpus
from teeguard.pipeline import ClassifierConfig, PipelineConfig, PipelineError, run_pipeline
from teeguard.relay import FilterAction, FilterPolicy, RecordingTransport
from teeguard.sense import TrainConfig, model_to_bytes, save_corpus, save_model

import gate
import tcbgen
import tracing
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
COST_PER_SWITCH = 2
WARMUP_UTTERANCES = 20
TRAIN_REPEATS = 3  # trainings timed as trained-hybrid set-up
COLD_IMPORTS = 1  # cold imports timed before each long-utterance repeat
ANALYSES_PER_TRACE = 3  # tcb-trace analyses per generated trace
TRAIN = TrainConfig(learning_rate=2.0, epochs=400)  # the acceptance recipe
TRAIN_SAMPLES = 800
CORPUS_SEED_OFFSET = 10_000  # training corpus seed = --seed + offset

_SERVE = "import sys; from teeguard.cli import main; sys.exit(main(['serve', *sys.argv[1:]]))"
_SUMMARY = re.compile(r"received (\d+) payloads, rejected (\d+)")


class Collector:
    """The mock collector in its own process, launched the way the CLI runs
    it and stopped with SIGINT so that it prints its summary line."""

    def __init__(self, dump: Path):
        self.dump = dump
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _SERVE, "--port", "0", "--dump", str(dump)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60)
            banner = self.proc.stdout.readline() if ready else ""
            if not banner.startswith("listening on "):
                raise RuntimeError(f"collector did not start: {banner!r}")
            host, _, port = banner.split()[-1].rpartition(":")
            self.endpoint = (host, int(port))
        except BaseException:
            self._kill()
            raise
        self.launch_s = time.perf_counter() - started

    def _kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()

    def stop(self) -> tuple[int, int]:
        """Returns the collector's own (received, rejected) counts."""
        self.proc.send_signal(signal.SIGINT)
        try:
            out, err = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._kill()
            raise
        match = _SUMMARY.search(out)
        if match is None:
            raise RuntimeError(f"collector printed no summary: {out!r} {err!r}")
        return int(match[1]), int(match[2])

    def payloads(self) -> list[bytes]:
        return [line.encode("utf-8") for line in self.dump.read_text(encoding="utf-8").splitlines()]


@dataclass
class Repeat:
    traced: bool
    ops: int  # utterances, or trace events for tcb-trace
    wall_s: float
    cpu_s: float
    latency_us: list[float] = field(default_factory=list)
    switches: int = 0
    forwarded: int = 0
    bytes_sent: int = 0


@dataclass
class Outcome:
    repeats: list[Repeat] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    attempted: int = 0
    leaked: int = 0
    misclassified: int = 0
    digests: set[str] = field(default_factory=set)

    def fail(self, messages: list[str], ops: int = 0) -> None:
        self.failures.extend(messages)
        self.failed += len(messages) + ops


def keep_going(outcome: Outcome, seconds: float, tracer) -> bool:
    measured = sum(r.wall_s for r in outcome.repeats)
    wanted = 2 if tracer is not None else 1  # the traced run needs one repeat of each kind
    return measured < seconds or len(outcome.repeats) < wanted


def train_setup(w: Workload, seed: int, run_dir: Path, outcome: Outcome, tracer) -> ClassifierConfig:
    """Train, save the model and corpus, and time it; repeated so the set-up
    time is a median.  Every training must produce the same model bytes."""
    corpus = make_labeled_corpus(GeneratorConfig(sensitivity=w.sensitivity),
                                 seed + CORPUS_SEED_OFFSET, TRAIN_SAMPLES)
    model_path, corpus_path = run_dir / "model.bin", run_dir / "corpus.tsv"
    models = set()
    restore = tracing.install(tracer) if tracer is not None else None
    try:
        for i in range(TRAIN_REPEATS):
            if tracer is not None:
                tracer.set_request(("train", i))
            started = time.perf_counter()
            result = teeguard.sense.train(w.architecture, corpus, TRAIN)
            save_model(model_path, result.model)
            save_corpus(corpus_path, corpus)
            outcome.setup_s.append(time.perf_counter() - started)
            models.add(hashlib.sha256(model_to_bytes(result.model)).hexdigest())
    finally:
        if restore is not None:
            restore()
            tracer.set_request(None)
    if len(models) != 1:
        outcome.fail([f"{TRAIN_REPEATS} trainings on one corpus gave {len(models)} different models"])
    return ClassifierConfig(architecture=w.architecture, model_path=str(model_path),
                            corpus_path=str(corpus_path), train=TRAIN)


def cold_import_s() -> list[float]:
    """Cold start: fresh interpreters importing the package, timed one by one."""
    samples = []
    for _ in range(COLD_IMPORTS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import teeguard"], check=True)
        samples.append(time.perf_counter() - started)
    return samples


def run_pipeline_workload(w: Workload, seed: int, seconds: float, tracer, run_dir: Path) -> Outcome:
    outcome = Outcome()
    if w.architecture == "oracle":
        classifier = ClassifierConfig()
    else:
        classifier = train_setup(w, seed, run_dir, outcome, tracer)
    generator = GeneratorConfig(sensitivity=w.sensitivity)
    config = PipelineConfig(
        seed=seed,
        utterances=w.utterances,
        generator=generator,
        classifier=classifier,
        policy=FilterPolicy(action=FilterAction(w.action)),
        cost_per_switch=COST_PER_SWITCH,
        capacity=w.capacity,
        frames_per_utterance=w.frames,
    )
    run_pipeline(replace(config, utterances=WARMUP_UTTERANCES), RecordingTransport())

    # Set-up samples taken before each repeat (collector launch, or a cold
    # import when nothing else needs setting up) spread over the whole run.
    while keep_going(outcome, seconds, tracer):
        traced = tracer is not None and len(outcome.repeats) % 2 == 1
        collector = Collector(run_dir / "dump.txt") if w.tcp else None
        if collector:
            outcome.setup_s.append(collector.launch_s)
        elif w.architecture == "oracle":
            outcome.setup_s.extend(cold_import_s())
        transport = None if w.tcp else RecordingTransport()
        endpoint = collector.endpoint if collector else config.endpoint
        restore = tracing.install(tracer) if traced else None
        outcome.attempted += w.utterances
        try:
            if traced:
                tracer.begin_repeat()
            start_ns, cpu0 = time.perf_counter_ns(), time.process_time()
            result = run_pipeline(replace(config, endpoint=endpoint), transport)
            end_ns, cpu1 = time.perf_counter_ns(), time.process_time()
        except PipelineError as exc:
            outcome.fail([f"run aborted: {exc}"], ops=w.utterances)
            return outcome
        finally:
            if restore is not None:
                restore()
            summary = collector.stop() if collector else None
        if traced:
            tracer.windows.append((start_ns, end_ns, w.utterances))
        if collector:
            peer = collector.payloads()
        else:
            peer = [packet.payload for packet in transport.packets]
        report = gate.check_pipeline(
            requested=w.utterances,
            result=result,
            peer_payloads=peer,
            keywords=generator.keywords,
            cost_per_switch=COST_PER_SWITCH,
            oracle=w.architecture == "oracle",
            collector=summary,
        )
        outcome.fail(report.failures)
        outcome.leaked, outcome.misclassified = report.leaked, report.misclassified
        outcome.digests.add(gate.run_digest(result.sent_payloads, result.log.render()))
        m = result.metrics
        outcome.repeats.append(Repeat(
            traced=traced, ops=w.utterances, wall_s=(end_ns - start_ns) / 1e9,
            cpu_s=cpu1 - cpu0, latency_us=m.latency_us, switches=m.switches,
            forwarded=m.forwarded, bytes_sent=m.bytes_sent,
        ))
    return outcome


def run_tcb_workload(seed: int, seconds: float, tracer) -> Outcome:
    outcome = Outcome()
    trace = expected = None
    while keep_going(outcome, seconds, tracer):
        # The trace is generated again every few analyses, so the set-up
        # samples spread over the run; every generation must be identical.
        if len(outcome.repeats) % ANALYSES_PER_TRACE == 0:
            started = time.perf_counter()
            fresh = tcbgen.generate(seed)
            outcome.setup_s.append(time.perf_counter() - started)
            if trace is None:
                trace, expected = fresh, tcbgen.entered_functions(fresh.text, fresh.tasks)
                teeguard.tcbtrace.analyze([trace.text], trace.inventory, trace.tasks)  # warm-up
            elif fresh.text != trace.text:
                outcome.fail(["the trace generator is not deterministic"])
        traced = tracer is not None and len(outcome.repeats) % 2 == 1
        restore = tracing.install(tracer) if traced else None
        outcome.attempted += 1
        try:
            if traced:
                tracer.set_request(("analysis", len(outcome.repeats)))
            started, cpu0 = time.perf_counter(), time.process_time()
            report = teeguard.tcbtrace.analyze([trace.text], trace.inventory, trace.tasks)
            rendered = teeguard.tcbtrace.render_report(report)
            wall, cpu = time.perf_counter() - started, time.process_time() - cpu0
        finally:
            if restore is not None:
                restore()
        outcome.fail(gate.check_tcb(
            required=report.required, excluded=report.excluded, rendered=rendered,
            inventory=trace.inventory, expected=expected,
        ))
        outcome.digests.add(hashlib.sha256(rendered.encode("utf-8")).hexdigest())
        outcome.repeats.append(Repeat(traced=traced, ops=trace.events, wall_s=wall, cpu_s=cpu,
                                      latency_us=[wall * 1e6]))
    return outcome


def nearest_rank(count: int, q: float) -> int:
    return max(1, math.ceil(round(count * q, 6)))


def percentile(sorted_values: list[float], q: float) -> float:
    return sorted_values[nearest_rank(len(sorted_values), q) - 1]


def tree_digest(top: Path) -> tuple[str, int]:
    """sha256 over the Python sources under ``top`` and their line count."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(top.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(top).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def source_facts() -> dict:
    src_sha256, lines = tree_digest(ROOT / "src")
    bench_sha256, _ = tree_digest(Path(__file__).resolve().parent)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {"src_lines": lines, "src_sha256": src_sha256, "bench_sha256": bench_sha256,
            "commit": commit}


# name: (unit, better); the same metrics for every workload
END_TO_END = {
    "lat_p50_us": ("us", "lower"),
    "cpu_us_per_op": ("us", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def per_repeat_median(repeats: list[Repeat], value) -> float:
    return statistics.median(value(r) for r in repeats)


def end_to_end(w: Workload, outcome: Outcome) -> tuple[dict, dict]:
    """(JSON metrics, the fuller printed report) from the untraced repeats.

    An op is an utterance on the pipeline workloads and a trace event on
    tcb-trace, where a repeat is one analysis and so one latency sample.
    Each figure is the median over repeats of that repeat's value, which
    keeps the few repeats a stalled or slowed machine disturbs from moving
    it.  ``lat_p99_us`` is printed but left out of the JSON metrics: on a
    shared 2-vCPU VM, scheduling stalls moved it by 30-100% between runs.
    So is the throughput (``utt_per_s``, ``events_per_s``): the threaded
    pipelines' wall time per CPU second follows the host's steal time, and
    their throughput spread 0.28-0.37 (IQR/median over ten runs) in some
    sets while their CPU per op and median latency stayed within 0.12.
    """
    plain = [r for r in outcome.repeats if not r.traced]
    ops = sum(r.ops for r in plain)
    latencies = [sorted(r.latency_us) for r in plain]
    ops_per_s = per_repeat_median(plain, lambda r: r.ops / r.wall_s)
    cpu_us = per_repeat_median(plain, lambda r: r.cpu_s / r.ops * 1e6)
    p50 = statistics.median(percentile(lat, 0.50) for lat in latencies)
    p99 = statistics.median(percentile(lat, 0.99) for lat in latencies)
    setup_s = statistics.median(outcome.setup_s)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "lat_p50_us": p50,
        "cpu_us_per_op": cpu_us,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    metrics = {name: (values[name], unit) for name, (unit, _) in END_TO_END.items()}
    per_repeat = min(len(lat) for lat in latencies)
    beyond = per_repeat - nearest_rank(per_repeat, 0.99)
    runs = f"median of {len(plain)} runs of {plain[0].ops}"
    per_run = f"median over {len(plain)} runs of {per_repeat} samples"
    fail_ratio = outcome.failed / outcome.attempted
    if w.frames:
        forwarded = sum(r.forwarded for r in plain)
        report = {
            "utt_per_s": (ops_per_s, "1/s", f"{runs} utterances; not a JSON metric"),
            "lat_p50_us": (p50, "us", f"PTA read to relay ack, {per_run}"),
            "lat_p99_us": (p99, "us", f"{per_run}, {beyond} beyond; not a JSON metric"),
            "cpu_us_per_utt": (cpu_us, "us", f"process CPU, {runs} utterances"),
            "switches_per_fwd": (sum(r.switches for r in plain) / forwarded if forwarded else 0.0,
                                 "count", f"{forwarded} forwarded"),
            "wire_bytes_per_utt": (sum(r.bytes_sent for r in plain) / ops,
                                   "bytes", "framed relay bytes"),
            "misclassified": (outcome.misclassified, "count", f"per run of {w.utterances}"),
        }
    else:
        report = {
            "events_per_s": (ops_per_s, "1/s", f"{runs} events; not a JSON metric"),
            "lat_p50_us": (p50, "us", f"one full analysis, median of {len(plain)}"),
            "lat_p99_us": (p99, "us", f"median of {len(plain)} (one sample per run); not a JSON metric"),
            "cpu_us_per_event": (cpu_us, "us", f"process CPU, {runs} events"),
        }
    report.update({
        "setup_s": (setup_s, "s", f"median of {len(outcome.setup_s)}"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of the workload process"),
        "fail_ratio": (fail_ratio, "ratio", f"{outcome.failed} of {outcome.attempted}"),
        "leaked": (outcome.leaked, "count", "sensitive payloads at the peer, per run"),
    })
    return metrics, report


def per_layer(outcome: Outcome, tracer: tracing.Tracer) -> tuple[dict, dict]:
    traced = [r for r in outcome.repeats if r.traced]
    values = tracing.layer_metrics(tracer, len(traced))
    plain = [r for r in outcome.repeats if not r.traced]
    values["trace.overhead_ratio"] = (per_repeat_median(traced, lambda r: r.ops / r.wall_s)
                                      / per_repeat_median(plain, lambda r: r.ops / r.wall_s))
    metrics, report = {}, {}
    for name, unit, _better, moves, where in tracing.LAYER_METRICS:
        metrics[name] = (values[name], unit)
        report[name] = (values[name], unit, f"moves {moves} on {where}")
    return metrics, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    run_dir = OUT / w.name
    run_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    if w.frames:
        outcome = run_pipeline_workload(w, args.seed, args.seconds, tracer, run_dir)
    else:
        outcome = run_tcb_workload(args.seed, args.seconds, tracer)

    facts = source_facts()
    if len(outcome.digests) > 1:
        outcome.fail([f"{len(outcome.digests)} different outputs from repeats of one seed"])
    elif outcome.digests:
        # Anything that can change the outputs is in the key: the program, the
        # benchmark's own sources (workload shapes, generator constants) and
        # the numeric library the models are computed with.
        key = (f"{w.name}:seed={args.seed}:src={facts['src_sha256'][:16]}"
               f":bench={facts['bench_sha256'][:16]}:numpy={np.__version__}")
        outcome.fail(gate.check_digest(OUT / "digests.json", key, next(iter(outcome.digests))))

    kinds = {r.traced for r in outcome.repeats}
    if kinds != ({False, True} if tracer is not None else {False}):
        metrics, report = {}, {}  # the run aborted before it measured
    elif tracer is not None:
        metrics, report = per_layer(outcome, tracer)
        tracing.write_spans(tracer, OUT / f"spans-{w.name}.jsonl.gz")
    else:
        metrics, report = end_to_end(w, outcome)
    result = {
        "workload": w.name,
        "trace": args.trace,
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures[:20],
        "repeats": [
            {"traced": r.traced, "ops": r.ops, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
             "p50_us": percentile(sorted(r.latency_us), 0.50),
             "p99_us": percentile(sorted(r.latency_us), 0.99)}
            for r in outcome.repeats
        ],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in report.items()},
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "seed": args.seed,
            "corpus_seed": args.seed + CORPUS_SEED_OFFSET if w.architecture != "oracle" else None,
            "seconds": args.seconds,
            **facts,
        },
    }
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
