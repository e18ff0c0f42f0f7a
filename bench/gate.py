"""Correctness gate: checks one workload repeat against facts the program
cannot fake, and returns what failed.

The checks read the run's outputs (metrics, redaction log, what the peer
received, the collector's own summary) and recompute each expectation
independently of the code under test.  Nothing here imports ``teeguard``.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

FRAME_HEADER_BYTES = 16  # TGR1 magic + sequence + flags + length
_WORD = re.compile(r"[a-z0-9]+")


@dataclass
class GateReport:
    failures: list[str] = field(default_factory=list)
    leaked: int = 0  # payloads at the peer carrying a generator keyword
    misclassified: int = 0  # log label differs from the truth label


def keyword_hits(payload: bytes, keywords: Iterable[str]) -> set[str]:
    words = set(_WORD.findall(payload.decode("utf-8", errors="replace").lower()))
    return words & {k.lower() for k in keywords}


def check_pipeline(
    *,
    requested: int,
    result,
    peer_payloads: Sequence[bytes],
    keywords: Sequence[str],
    cost_per_switch: int,
    oracle: bool,
    collector: tuple[int, int] | None = None,
) -> GateReport:
    """Check one ``run_pipeline`` result.

    ``peer_payloads`` is what the peer stored, in arrival order.
    ``collector`` is the collector's ``(received, rejected)`` summary when the
    run went over TCP.  A keyword in any payload at the peer fails the run,
    whatever classifier labelled it.  With the oracle classifier every label
    must also match the truth; a trained classifier's wrong labels are only
    counted.
    """
    report = GateReport()
    fail = report.failures.append
    m = result.metrics
    if m.processed != requested:
        fail(f"processed {m.processed} of {requested} utterances")
    if m.switches != 2 * m.forwarded:
        fail(f"switches {m.switches} != 2 * forwarded {m.forwarded}")
    if m.cost_units != m.switches * cost_per_switch:
        fail(f"cost_units {m.cost_units} != switches {m.switches} * {cost_per_switch}")
    sent = list(result.sent_payloads)
    if len(sent) != m.forwarded:
        fail(f"{len(sent)} payloads sent but forwarded={m.forwarded}")
    if list(peer_payloads) != sent:
        fail(f"peer holds {len(peer_payloads)} payloads that differ from the {len(sent)} sent")
    wire = sum(FRAME_HEADER_BYTES + len(p) for p in sent)
    if m.bytes_sent != wire:
        fail(f"bytes_sent {m.bytes_sent} != framed payload bytes {wire}")
    if collector is not None:
        received, rejected = collector
        if received != m.forwarded:
            fail(f"collector received {received} but forwarded={m.forwarded}")
        if rejected:
            fail(f"collector rejected {rejected} frames")

    records = result.log.records
    if len(records) != requested:
        fail(f"log has {len(records)} records for {requested} utterances")
    sent_records = len({r.sequence for r in records if r.sequence is not None})
    if sent_records != m.forwarded:
        fail(f"log has {sent_records} sent records but forwarded={m.forwarded}")
    report.misclassified = sum(
        1 for r, (_, truth) in zip(records, result.utterances) if r.label is not truth
    )
    if oracle and report.misclassified:
        fail(f"{report.misclassified} oracle labels differ from the truth")

    for sequence, payload in enumerate(peer_payloads):
        hits = keyword_hits(payload, keywords)
        if hits:
            report.leaked += 1
            fail(f"payload {sequence} reached the peer carrying {sorted(hits)}")
    return report


def check_tcb(
    *,
    required: Iterable[str],
    excluded: Iterable[str],
    rendered: str,
    inventory: Sequence[str],
    expected: set[str],
) -> list[str]:
    """Check an exclusion report against the independently recomputed
    required set (every function the selected tasks entered)."""
    failures = []
    required, excluded = set(required), set(excluded)
    if required != expected:
        failures.append(
            f"required set has {len(required - expected)} extra and "
            f"{len(expected - required)} missing functions"
        )
    if excluded != set(inventory) - expected:
        failures.append("excluded set is not the inventory minus the required set")
    stats = f"inventory={len(set(inventory))} required={len(expected)} excluded="
    if stats not in rendered:
        failures.append("rendered report stats disagree with the recomputation")
    return failures


def run_digest(sent_payloads: Sequence[bytes], log_text: str) -> str:
    """sha256 over the sent payloads (length-prefixed) and the rendered log."""
    h = hashlib.sha256()
    for payload in sent_payloads:
        h.update(len(payload).to_bytes(4, "little"))
        h.update(payload)
    h.update(log_text.encode("utf-8"))
    return h.hexdigest()


def check_digest(store: Path, key: str, digest: str) -> list[str]:
    """Compare against the digest an earlier process recorded for the same
    key, or record it.  Keys include the source hash, so a program change
    starts a fresh record."""
    known = json.loads(store.read_text()) if store.exists() else {}
    previous = known.setdefault(key, digest)
    if previous != digest:
        return [f"{key}: output digest {digest[:12]} differs from an earlier run's {previous[:12]}"]
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return []
