"""The benchmark's workloads.  Stdlib only, so the launcher can list them
without importing the program."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    frames: int = 0  # frames per utterance; 0 marks the trace-analysis workload
    utterances: int = 0  # per run_pipeline call
    action: str = "drop"
    sensitivity: float = 0.3
    tcp: bool = False  # collector in its own process instead of RecordingTransport
    architecture: str = "oracle"
    capacity: int = 2048  # ring frames


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long-utterance",
            "8000-frame utterances: I2S codec, ring ingest and secure-memory copies dominate; "
            "relay, model and network work are negligible",
            frames=8000,
            utterances=1000,
            capacity=32000,
        ),
        Workload(
            "chatty-tcp",
            "16-frame utterances, all forwarded (mask) over TCP to a collector process: "
            "relay, world switches and stage hand-offs dominate; codec work is negligible",
            frames=16,
            utterances=4000,  # per collector launch; fewer launches leave more of the run measured
            action="mask",
            sensitivity=0.5,
            tcp=True,
        ),
        Workload(
            "trained-hybrid",
            "hybrid CNN+attention model trained in set-up and loaded from disk: "
            "training cost in set-up, model inference per utterance",
            frames=160,
            utterances=2000,
            architecture="hybrid",
        ),
        Workload(
            "tcb-trace",
            "2e5-event synthetic enter/exit trace, 8 tasks, 2000-function inventory, "
            "4-task subset: the only workload that runs tcbtrace",
        ),
    )
}

# Workloads the harness runs but BENCHMARK.json leaves out, with the reason.
# Every workload there must pass its checks on every seed.
NOT_IN_MANIFEST = {
    "trained-hybrid": "the drop policy fails open: a sensitive utterance the trained "
    "hybrid labels benign reaches the peer raw, so the leak check fails on some seeds",
}
