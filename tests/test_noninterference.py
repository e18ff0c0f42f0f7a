"""The collector learns of a sensitive utterance only what the policy declares.

Run B swaps the words of every sensitive utterance for those of another
sensitive utterance with the same word count, and keeps every draw of the
generator's random stream, so the two runs differ only in secrets.  Under
drop and under mask, the frames relayed and the metrics (latency aside) must
then be byte for byte the same: noninterference in the sense of Goguen and
Meseguer (IEEE S&P 1982), for the oracle classifier.
"""

from collections import defaultdict

import numpy as np
import pytest

from teeguard import audio
from teeguard.cloud import MockCloud
from teeguard.pipeline import PipelineConfig, run_pipeline
from teeguard.relay import FilterAction, FilterPolicy, RecordingTransport
from teeguard.words import Label


def sensitive_pool(config: audio.GeneratorConfig) -> dict[int, list[list[str]]]:
    """Sensitive word lists from an independent stream, by word count."""
    sampler = audio._TextSampler(config, np.random.default_rng(12345))
    pool = defaultdict(list)
    for _ in range(2000):
        words, label = sampler.sample()
        if label is Label.SENSITIVE:
            pool[len(words)].append(words)
    return pool


@pytest.fixture
def swap_secrets(monkeypatch):
    """Call to make later runs swap each sensitive utterance's words; returns
    the list of (original, replacement) pairs the runs made."""
    original = audio._TextSampler.sample
    pool = sensitive_pool(audio.GeneratorConfig())
    swaps = []

    def swapped(self):
        words, label = original(self)  # every rng draw, as in run A
        if label is Label.SENSITIVE:
            others = [w for w in pool[len(words)] if w != words]
            replacement = others[len(swaps) % len(others)]
            swaps.append((words, replacement))
            return replacement, label
        return words, label

    def install():
        monkeypatch.setattr(audio._TextSampler, "sample", swapped)
        return swaps

    return install


def observed(result) -> dict:
    metrics = result.metrics.to_dict()
    metrics.pop("latency_us")
    return metrics


def assert_only_secrets_changed(a, b, swaps) -> None:
    assert swaps, "run B swapped no utterance"
    assert a.utterances != b.utterances
    assert [label for _, label in a.utterances] == [label for _, label in b.utterances]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("action", list(FilterAction), ids=lambda a: a.value)
def test_relay_reveals_no_secret(seed, action, swap_secrets):
    config = PipelineConfig(seed=seed, utterances=120, policy=FilterPolicy(action=action))

    def run():
        transport = RecordingTransport()
        return run_pipeline(config, transport), transport.sent

    a, sent_a = run()
    swaps = swap_secrets()
    b, sent_b = run()
    assert_only_secrets_changed(a, b, swaps)
    assert sent_a == sent_b
    assert observed(a) == observed(b)


def test_collector_learns_no_secret_over_tcp(swap_secrets):
    policy = FilterPolicy(action=FilterAction.MASK)

    def run():
        with MockCloud() as cloud:
            config = PipelineConfig(seed=3, utterances=80, endpoint=cloud.address, policy=policy)
            return run_pipeline(config), cloud.received()

    a, received_a = run()
    swaps = swap_secrets()
    b, received_b = run()
    assert_only_secrets_changed(a, b, swaps)
    assert received_a == received_b
    assert observed(a) == observed(b)
