"""Tests for the benchmark itself: the correctness gate must reject what it
exists to catch, and BENCHMARK.json must name the metrics the code emits.

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import gate
import tcbgen
import tracing
import worker
from workloads import NOT_IN_MANIFEST, WORKLOADS
from teeguard import tcbtrace
from teeguard.pipeline import PipelineConfig, run_pipeline
from teeguard.relay import RecordingTransport

CONFIG = PipelineConfig(seed=5, utterances=60, cost_per_switch=2)
KEYWORDS = CONFIG.generator.keywords


@pytest.fixture(scope="module")
def clean():
    transport = RecordingTransport()
    result = run_pipeline(CONFIG, transport)
    return result, [packet.payload for packet in transport.packets]


def check(result, peer, **overrides):
    args = dict(
        requested=CONFIG.utterances, result=result, peer_payloads=peer,
        keywords=KEYWORDS, cost_per_switch=CONFIG.cost_per_switch, oracle=True,
    )
    return gate.check_pipeline(**(args | overrides))


def plant(result, peer, payload: bytes):
    """Swap the first sent payload for ``payload`` everywhere the gate
    could cross-check it, so only the content check can notice."""
    sent = [payload] + list(result.sent_payloads[1:])
    delta = len(payload) - len(result.sent_payloads[0])
    metrics = replace(result.metrics, bytes_sent=result.metrics.bytes_sent + delta)
    return replace(result, sent_payloads=sent, metrics=metrics), [payload] + list(peer[1:])


def test_clean_run_passes(clean):
    report = check(*clean)
    assert report.failures == []
    assert (report.leaked, report.misclassified) == (0, 0)


def test_planted_leak_fails(clean):
    result, peer = clean
    secret = next(text for text, truth in result.utterances if truth.value == "sensitive")
    report = check(*plant(result, peer, secret.encode()))
    assert report.leaked == 1
    assert len(report.failures) == 1 and "carrying" in report.failures[0]


def test_keyword_inside_another_word_is_not_a_leak(clean):
    report = check(*plant(*clean, b"add eggs to the shopping list"))  # "pin" in "shopping"
    assert report.failures == [] and report.leaked == 0


def test_miscounted_switch_total_fails(clean):
    result, peer = clean
    metrics = replace(result.metrics, switches=result.metrics.switches + 1)
    report = check(replace(result, metrics=metrics), peer)
    assert any(f.startswith("switches") for f in report.failures)


def test_miscounted_cost_units_fail(clean):
    result, peer = clean
    report = check(result, peer, cost_per_switch=CONFIG.cost_per_switch + 1)
    assert any(f.startswith("cost_units") for f in report.failures)


def test_collector_summary_must_agree(clean):
    result, peer = clean
    forwarded = result.metrics.forwarded
    assert check(result, peer, collector=(forwarded, 0)).failures == []
    assert check(result, peer, collector=(forwarded - 1, 0)).failures
    assert check(result, peer, collector=(forwarded, 1)).failures


def test_trained_classifier_miss_fails(clean):
    result, peer = clean
    secret = next(text for text, truth in result.utterances if truth.value == "sensitive")
    report = check(*plant(result, peer, secret.encode()), oracle=False)
    assert report.leaked == 1
    assert len(report.failures) == 1 and "carrying" in report.failures[0]


def test_tcb_required_set_must_match_the_oracle():
    text = "1 E a t0\n2 E b t0\n3 X b t0\n4 X a t0\n5 E c t1\n6 X c t1\n"
    inventory = ["a", "b", "c", "d"]
    expected = tcbgen.entered_functions(text, ["t0"])
    report = tcbtrace.analyze([text], inventory, ["t0"])
    rendered = tcbtrace.render_report(report)
    good = dict(rendered=rendered, inventory=inventory, expected=expected)
    assert expected == {"a", "b"}
    assert gate.check_tcb(required=report.required, excluded=report.excluded, **good) == []
    assert gate.check_tcb(required={"a"}, excluded=report.excluded, **good)


def test_digest_must_repeat_across_processes(tmp_path):
    store = tmp_path / "digests.json"
    assert gate.check_digest(store, "w:1", "aa") == []
    assert gate.check_digest(store, "w:1", "aa") == []
    assert gate.check_digest(store, "w:1", "bb")
    assert gate.check_digest(store, "w:2", "bb") == []


def test_manifest_names_the_emitted_metrics():
    manifest = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == [
        name for name in WORKLOADS if name not in NOT_IN_MANIFEST
    ]
    assert {m["name"]: (m["unit"], m["better"]) for m in manifest["end_to_end"]} == worker.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        row[:3] for row in tracing.LAYER_METRICS
    ]
