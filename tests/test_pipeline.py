"""Whole-pipeline runs: leak freedom, switch accounting, determinism."""

import hashlib
import threading
import tracemalloc

import pytest

import teeguard.pipeline

from teeguard.audio import GeneratorConfig, make_labeled_corpus
from teeguard.cloud import MockCloud
from teeguard.pipeline import (
    ClassifierConfig,
    PipelineConfig,
    PipelineError,
    RunMetrics,
    build_classifier,
    run_pipeline,
)
from teeguard.relay import (
    ACK_MALFORMED,
    FLAG_MASKED,
    FRAME_HEADER,
    FilterAction,
    FilterPolicy,
    RecordingTransport,
    TransportError,
    decode_frame,
    encode_ack,
)
from teeguard.sense import TrainConfig, save_corpus, save_model, train
from teeguard.words import Label, split_words

KEYWORDS = GeneratorConfig().keywords


def drop_config(cloud, **kwargs):
    return PipelineConfig(endpoint=cloud.address, **kwargs)


def benign_texts(result):
    return [text for text, label in result.utterances if label is Label.BENIGN]


def test_drop_run_leaks_nothing():
    with MockCloud() as cloud:
        result = run_pipeline(drop_config(cloud, seed=1, utterances=100))
        packets = cloud.received()

    metrics = result.metrics
    assert metrics.processed == 100
    assert len(result.utterances) == 100
    assert metrics.redacted == metrics.sensitive > 0
    assert metrics.forwarded == 100 - metrics.sensitive
    assert len(packets) == metrics.forwarded

    # nothing sensitive, by keyword scan and by payload identity
    for packet in packets:
        assert not set(split_words(packet.payload.decode())) & set(KEYWORDS)
    assert [p.payload.decode() for p in packets] == benign_texts(result)
    assert [p.payload for p in packets] == result.sent_payloads


def test_zero_sensitivity_forwards_everything():
    with MockCloud() as cloud:
        config = drop_config(
            cloud, utterances=40, generator=GeneratorConfig(sensitivity=0.0)
        )
        result = run_pipeline(config)
        count = len(cloud.received())
    assert result.metrics.sensitive == 0
    assert result.metrics.redacted == 0
    assert result.metrics.forwarded == 40 == count


def test_switch_accounting_is_exact():
    with MockCloud() as cloud:
        result = run_pipeline(drop_config(cloud, seed=3, utterances=60, cost_per_switch=3))
    metrics = result.metrics
    assert metrics.switches == 2 * metrics.forwarded
    assert metrics.cost_units == metrics.switches * 3
    assert metrics.bytes_sent == sum(
        FRAME_HEADER.size + len(p) for p in result.sent_payloads
    )


def test_mask_run_redacts_in_place():
    policy = FilterPolicy(action=FilterAction.MASK, mask_token="[redacted]")
    with MockCloud() as cloud:
        result = run_pipeline(drop_config(cloud, seed=5, utterances=80, policy=policy))
        packets = cloud.received()

    assert result.metrics.forwarded == result.metrics.processed == 80
    assert len(packets) == 80
    sensitive = 0
    for (text, label), packet in zip(result.utterances, packets):
        body = packet.payload.decode()
        if label is Label.SENSITIVE:
            sensitive += 1
            assert packet.flags & FLAG_MASKED
            assert body.split() == ["[redacted]"] * len(split_words(text))
        else:
            assert packet.flags == 0
            assert body == text
        assert not set(split_words(body)) & set(KEYWORDS)
    assert sensitive == result.metrics.sensitive == result.metrics.redacted


def test_runs_are_reproducible():
    def run():
        return run_pipeline(
            PipelineConfig(seed=11, utterances=50), transport=RecordingTransport()
        )

    a, b = run(), run()
    da, db = a.metrics.to_dict(), b.metrics.to_dict()
    da.pop("latency_us"), db.pop("latency_us")
    assert da == db
    assert a.sent_payloads == b.sent_payloads
    assert a.utterances == b.utterances
    assert a.log.render() == b.log.render()


# sha256 of the length-prefixed sent payloads then log.render(), seed 3,
# 50 utterances, oracle classifier; pinned so refactors change no byte.
GOLDEN_DIGESTS = {
    FilterAction.DROP: "5bb4385a648c79c9cb4785720755ae6adbdc05250b293cecad25844636f6dc2b",
    FilterAction.MASK: "0dc715fb6a81db6685ba92d706b6fdeaca2c56adedab8df0ceeb9eb3820f092a",
}


@pytest.mark.parametrize("action", list(GOLDEN_DIGESTS), ids=lambda a: a.value)
def test_output_matches_golden_digest(action):
    config = PipelineConfig(seed=3, utterances=50, policy=FilterPolicy(action=action))
    result = run_pipeline(config, transport=RecordingTransport())
    digest = hashlib.sha256()
    for payload in result.sent_payloads:
        digest.update(len(payload).to_bytes(4, "little") + payload)
    digest.update(result.log.render().encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_DIGESTS[action]


def test_log_covers_every_utterance():
    result = run_pipeline(
        PipelineConfig(seed=2, utterances=30), transport=RecordingTransport()
    )
    records = result.log.records
    assert len(records) == 30
    assert sum(r.action == "drop" for r in records) == result.metrics.sensitive
    dropped = [r for r in records if r.action == "drop"]
    assert all(r.sequence is None for r in dropped)
    forwarded = [r.sequence for r in records if r.sequence is not None]
    assert forwarded == list(range(len(forwarded)))  # sequences in send order
    assert len(result.metrics.latency_us) == 30


def test_memory_holds_one_utterance_at_a_time():
    # the long-utterance benchmark's shape: each utterance's I2S bit lines are
    # 512,000 bytes, so two streams alive at once would pass 1 MiB
    def run(utterances):
        config = PipelineConfig(
            seed=7, utterances=utterances, frames_per_utterance=8000, capacity=32000
        )
        return run_pipeline(config, transport=RecordingTransport())

    run(3)  # warm-up: imports, caches and the numpy allocator
    tracemalloc.start()
    try:
        result = run(40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.metrics.processed == 40
    assert peak < 1 << 20


def test_trained_classifier_path_runs():
    config = PipelineConfig(
        seed=4,
        utterances=20,
        classifier=ClassifierConfig(
            architecture="cnn",
            train=TrainConfig(learning_rate=1.0, epochs=60, seed=0),
            train_utterances=120,
        ),
    )
    result = run_pipeline(config, transport=RecordingTransport())
    metrics = result.metrics
    assert metrics.processed == 20
    assert metrics.forwarded == 20 - metrics.sensitive
    assert metrics.switches == 2 * metrics.forwarded


def test_loaded_model_matches_in_process_training(tmp_path):
    train_config = TrainConfig(learning_rate=1.0, epochs=60, seed=0)
    corpus = make_labeled_corpus(GeneratorConfig(), 0, 120)
    save_model(tmp_path / "cnn.bin", train("cnn", corpus, train_config).model)
    save_corpus(tmp_path / "corpus.tsv", corpus)

    def run(classifier):
        config = PipelineConfig(seed=4, utterances=50, classifier=classifier)
        return run_pipeline(config, transport=RecordingTransport())

    trained = run(ClassifierConfig(architecture="cnn", train=train_config, train_utterances=120))
    loaded = run(
        ClassifierConfig(
            architecture="cnn",
            model_path=str(tmp_path / "cnn.bin"),
            corpus_path=str(tmp_path / "corpus.tsv"),
        )
    )
    assert loaded.log.render() == trained.log.render()
    assert loaded.sent_payloads == trained.sent_payloads


def test_loaded_model_sizes_the_vocabulary_from_the_file(tmp_path):
    # trained smaller than ClassifierConfig's default vocabulary, which the
    # rebuilt vocabulary used to take: "token index outside [0, 40)"
    corpus = make_labeled_corpus(GeneratorConfig(), 0, 120)
    result = train("cnn", corpus, TrainConfig(learning_rate=1.0, epochs=5, seed=0, vocab_size=40))
    assert result.model.vocab_size == 40
    save_model(tmp_path / "cnn.bin", result.model)
    save_corpus(tmp_path / "corpus.tsv", corpus)
    classifier = ClassifierConfig(
        architecture="cnn",
        model_path=str(tmp_path / "cnn.bin"),
        corpus_path=str(tmp_path / "corpus.tsv"),
    )
    config = PipelineConfig(seed=4, utterances=20, classifier=classifier)
    assert build_classifier(config)[0] == result.vocab
    assert run_pipeline(config, transport=RecordingTransport()).metrics.processed == 20


def test_frames_must_hold_the_symbol_budget():
    generator = GeneratorConfig(min_words=20, max_words=29)  # budget 32 samples
    with pytest.raises(ValueError):
        PipelineConfig(generator=GeneratorConfig(max_words=30), frames_per_utterance=16)
    config = PipelineConfig(seed=6, utterances=20, generator=generator, frames_per_utterance=16)
    result = run_pipeline(config, transport=RecordingTransport())
    assert result.metrics.processed == 20
    assert [p.decode() for p in result.sent_payloads] == benign_texts(result)


def test_ring_smaller_than_run_still_drains():
    # 10 utterances of 160 frames through a 320-frame ring forces reuse
    result = run_pipeline(
        PipelineConfig(seed=6, utterances=10, capacity=320),
        transport=RecordingTransport(),
    )
    assert result.metrics.processed == 10


MASK = FilterPolicy(action=FilterAction.MASK)


class FaultyTransport(RecordingTransport):
    """Recording peer whose exchange number `fail_at` (from 0) fails: it
    raises a transport error, or NAKs the frame as malformed."""

    def __init__(self, fail_at: int, nak: bool = False):
        super().__init__()
        self.fail_at = fail_at
        self.nak = nak

    def exchange(self, frame: bytes) -> bytes:
        if len(self.sent) != self.fail_at:
            return super().exchange(frame)
        self.sent.append(frame)
        if self.nak:
            return encode_ack(decode_frame(frame).sequence, ACK_MALFORMED)
        raise TransportError("link dropped")


def assert_failed_closed(transport, frames: int) -> None:
    """The transport is closed, `frames` frames went out in sequence order,
    and none of them carried a keyword."""
    assert not transport.connected
    assert [decode_frame(f).sequence for f in transport.sent] == list(range(frames))
    for frame in transport.sent:
        assert not set(split_words(decode_frame(frame).payload.decode())) & set(KEYWORDS)


@pytest.mark.parametrize("nak", [False, True], ids=["transport-error", "malformed-ack"])
def test_relay_fault_aborts_in_relay_stage(nak):
    transport = FaultyTransport(fail_at=6, nak=nak)
    config = PipelineConfig(seed=12, utterances=20, policy=MASK)
    with pytest.raises(PipelineError, match="stage relay") as info:
        run_pipeline(config, transport=transport)
    assert info.value.stage == "relay"
    assert_failed_closed(transport, frames=7)  # the failing frame is the last one


def test_transcribe_fault_aborts_in_transcribe_stage(monkeypatch):
    real = teeguard.pipeline.transcribe
    calls = []

    def failing_transcribe(block, *args):
        calls.append(block)
        if len(calls) == 5:
            raise ValueError("decoder fault")
        return real(block, *args)

    monkeypatch.setattr(teeguard.pipeline, "transcribe", failing_transcribe)
    transport = RecordingTransport()
    config = PipelineConfig(seed=12, utterances=20, policy=MASK)
    with pytest.raises(PipelineError, match="stage transcribe") as info:
        run_pipeline(config, transport=transport)
    assert info.value.stage == "transcribe"
    assert len(calls) == 5
    assert_failed_closed(transport, frames=4)  # every utterance before the fault


class ThreadRecordingTransport(RecordingTransport):
    """Records the live thread count and the running thread per exchange."""

    def __init__(self):
        super().__init__()
        self.seen: list[tuple[int, threading.Thread]] = []

    def exchange(self, frame: bytes) -> bytes:
        self.seen.append((threading.active_count(), threading.current_thread()))
        return super().exchange(frame)


def test_pipeline_starts_no_threads():
    before = threading.active_count()
    transport = ThreadRecordingTransport()
    result = run_pipeline(PipelineConfig(seed=8, utterances=30, policy=MASK), transport)
    assert result.metrics.forwarded == len(transport.seen) == 30
    assert max(count for count, _ in transport.seen) <= before
    assert all(thread is threading.current_thread() for _, thread in transport.seen)


def test_unreachable_endpoint_fails_in_setup():
    with MockCloud() as cloud:
        address = cloud.address
    with pytest.raises(PipelineError, match="stage setup") as info:
        run_pipeline(PipelineConfig(utterances=1, endpoint=address))
    assert info.value.stage == "setup"


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(utterances=0)
    with pytest.raises(ValueError):
        PipelineConfig(capacity=100, frames_per_utterance=200)
    with pytest.raises(ValueError):
        PipelineConfig(cost_per_switch=-1)
    with pytest.raises(ValueError):
        PipelineConfig(frames_per_utterance=40000, capacity=40000)
    with pytest.raises(ValueError):  # more word symbols than samples
        PipelineConfig(generator=GeneratorConfig(min_words=1, max_words=6000))


def test_classifier_config_validation():
    with pytest.raises(ValueError):
        ClassifierConfig(architecture="markov")
    with pytest.raises(ValueError):
        ClassifierConfig(architecture="cnn", model_path="model.bin")
    with pytest.raises(ValueError):
        ClassifierConfig(train_utterances=1)


def test_metrics_dict_shape():
    metrics = RunMetrics(
        processed=3, sensitive=1, redacted=1, forwarded=2,
        switches=4, cost_units=4, bytes_sent=64, latency_us=[1.5, 2.5, 3.5],
    )
    assert metrics.to_dict() == {
        "processed": 3,
        "sensitive": 1,
        "redacted": 1,
        "forwarded": 2,
        "switches": 4,
        "cost_units": 4,
        "bytes_sent": 64,
        "latency_us": [1.5, 2.5, 3.5],
    }
