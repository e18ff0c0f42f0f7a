"""End-to-end pipeline: microphone capture to redacted cloud upload.

One loop takes each utterance through every stage in turn: capture and
encode at the microphone, ingest into the secure ring, then the trusted
side reads the block back through the PTA, transcribes, classifies,
filters and relays it.  The world context stays SECURE from capture to
filter; only the relay switches to the normal world and back.  The loop
reads exactly what it ingests, so the ring never overruns, and runs are
reproducible for a given seed.  Everything runs on the calling thread.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from . import tee
from .audio import (
    GeneratorConfig,
    MicrophoneSource,
    encode_frames,
    lexicon,
    make_labeled_corpus,
    symbol_budget,
)
from .driver import EncodedBlock, SecureAudioDriver, block_size
from .pta import (
    CMD_GET_STATUS,
    CMD_READ_AUDIO,
    MEMREF_FIELD_LIMIT,
    MemRefParam,
    PtaBridge,
    PtaCommand,
    PtaStatus,
    ValueParam,
)
from .relay import (
    FilterPolicy,
    RedactionLog,
    RedactionRecord,
    SecureChannel,
    TcpTransport,
    apply_policy,
)
from .sense import (
    SymbolTable,
    TrainConfig,
    Transcript,
    Verdict,
    Vocab,
    classify,
    load_corpus,
    load_model,
    train,
    transcribe,
)
from .words import ARCHITECTURE_CHOICES, Label, keyword_set


class PipelineError(RuntimeError):
    def __init__(self, stage: str, detail: object):
        super().__init__(f"stage {stage}: {detail}")
        self.stage = stage


@dataclass(frozen=True)
class ClassifierConfig:
    architecture: str = "oracle"
    model_path: str | None = None
    corpus_path: str | None = None  # rebuilds the vocabulary for a loaded model
    train: TrainConfig = TrainConfig()
    train_utterances: int = 400

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURE_CHOICES:
            raise ValueError(f"architecture must be one of {ARCHITECTURE_CHOICES}")
        if self.model_path is not None and self.corpus_path is None:
            raise ValueError("a model file needs its training corpus for the vocabulary")
        if self.train_utterances < 2:
            raise ValueError("train_utterances must be at least 2")


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    utterances: int = 100
    generator: GeneratorConfig = GeneratorConfig()
    classifier: ClassifierConfig = ClassifierConfig()
    policy: FilterPolicy = FilterPolicy()
    endpoint: tuple[str, int] = ("127.0.0.1", 9747)
    cost_per_switch: int = 1
    capacity: int = 2048
    frames_per_utterance: int = 160

    def __post_init__(self) -> None:
        if self.utterances < 1:
            raise ValueError("utterances must be at least 1")
        if self.frames_per_utterance < 1:
            raise ValueError("frames_per_utterance must be at least 1")
        if self.capacity < self.frames_per_utterance:
            raise ValueError("driver capacity must hold at least one utterance")
        if 2 * self.frames_per_utterance < symbol_budget(self.generator):
            raise ValueError("frames_per_utterance too small for the longest transcript")
        if self.cost_per_switch < 0:
            raise ValueError("cost_per_switch must be non-negative")
        if block_size(self.frames_per_utterance) >= MEMREF_FIELD_LIMIT:
            raise ValueError("frames_per_utterance too large for one output buffer")


@dataclass
class RunMetrics:
    processed: int = 0
    sensitive: int = 0
    redacted: int = 0
    forwarded: int = 0
    switches: int = 0
    cost_units: int = 0
    bytes_sent: int = 0
    latency_us: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "processed": self.processed,
            "sensitive": self.sensitive,
            "redacted": self.redacted,
            "forwarded": self.forwarded,
            "switches": self.switches,
            "cost_units": self.cost_units,
            "bytes_sent": self.bytes_sent,
            "latency_us": list(self.latency_us),
        }


@dataclass
class RunResult:
    metrics: RunMetrics
    log: RedactionLog
    utterances: list[tuple[str, Label]]  # generated payloads with truth labels
    sent_payloads: list[bytes]  # relay payload bytes in send order


def _oracle_vocab(generator: GeneratorConfig) -> Vocab:
    words = lexicon(generator)
    return Vocab.from_texts([" ".join(words)], max_size=len(words) + 1)


def build_classifier(
    config: PipelineConfig,
) -> tuple[Vocab, Callable[[Transcript], Verdict]]:
    """Resolve the configured classifier into (vocabulary, verdict function)."""
    cc = config.classifier
    if cc.architecture == "oracle":
        # keyword_label's rule, with the keywords' token ids and both verdicts
        # built once: every lexicon word is one token with its own id in the
        # oracle vocabulary, so a keyword is spoken iff its id is among the
        # transcript's tokens.  The threshold lies strictly between the scores.
        vocab = _oracle_vocab(config.generator)
        keyword_ids = frozenset(vocab.index[k] for k in keyword_set(config.generator.keywords))
        hit = Verdict(score=1.0, label=Label.SENSITIVE)
        miss = Verdict(score=0.0, label=Label.BENIGN)

        def oracle_verdict(transcript: Transcript) -> Verdict:
            return miss if keyword_ids.isdisjoint(transcript.tokens) else hit

        return vocab, oracle_verdict

    if cc.model_path is not None:
        model = load_model(cc.model_path)
        corpus = load_corpus(cc.corpus_path)
        # sized as the model was trained, so this is the training vocabulary
        vocab = Vocab.from_texts([text for text, _ in corpus], model.vocab_size)
    else:
        corpus = make_labeled_corpus(config.generator, cc.train.seed, cc.train_utterances)
        result = train(cc.architecture, corpus, cc.train)
        model, vocab = result.model, result.vocab
    threshold = config.policy.threshold

    def model_verdict(transcript: Transcript) -> Verdict:
        return classify(model, transcript.tokens, threshold)

    return vocab, model_verdict


def run_pipeline(config: PipelineConfig, transport=None) -> RunResult:
    """Drive `config.utterances` utterances, one at a time, through capture,
    the secure ring, the PTA read path, classification, filtering and the
    relay.  Any error aborts the run with the failing stage named."""
    try:
        vocab, verdict_fn = build_classifier(config)
        symbols = SymbolTable(lexicon(config.generator), vocab)
        asc = tee.AddressSpaceController()
        memory = tee.Memory(asc)
        driver = SecureAudioDriver(asc, memory, config.capacity)
        bridge = PtaBridge(driver, memory)
        session = bridge.open_session()
        out_len = block_size(config.frames_per_utterance)
        out_base = asc.find_free_range(out_len, 1 << 24)
        out_region = asc.carve_secure_region(out_base, out_len)
        count = config.frames_per_utterance
        read_cmd = PtaCommand(
            session, CMD_READ_AUDIO, (MemRefParam(out_region, 0, out_len), ValueParam(count))
        )
        ctx = tee.WorldContext(cost_per_switch=config.cost_per_switch)
        channel = SecureChannel(transport if transport is not None else TcpTransport())
        channel.connect(config.endpoint)
    except Exception as exc:
        raise PipelineError("setup", exc) from exc

    metrics = RunMetrics()
    log = RedactionLog()
    utterances: list[tuple[str, Label]] = []
    sent_payloads: list[bytes] = []

    try:
        stage = "capture"
        try:
            mic = MicrophoneSource(config.generator, config.seed)
            for _ in range(config.utterances):
                stage = "capture"
                utt = mic.capture(count)
                stage = "encode"
                stream = encode_frames(utt.frames)
                utterances.append((utt.payload_text, utt.truth_label))
                stage = "ingest"
                accepted = driver.ingest(stream)
                del stream  # so only one utterance's bit lines are ever live
                if accepted != count:
                    raise RuntimeError(f"ring accepted {accepted} of {count} frames")

                started = time.perf_counter()
                stage = "read"
                resp = bridge.invoke(read_cmd, ctx)
                if resp.status is not PtaStatus.OK:
                    raise RuntimeError(f"read command returned {resp.status.name}")
                written = resp.params[1].b
                block = EncodedBlock.from_bytes(memory.view(tee.World.SECURE, out_base, written))
                stage = "transcribe"
                transcript = transcribe(block, symbols)
                stage = "classify"
                verdict = verdict_fn(transcript)
                stage = "filter"
                decision = apply_policy(config.policy, verdict.label, transcript.text)
                metrics.processed += 1
                if verdict.label is Label.SENSITIVE:
                    metrics.sensitive += 1
                if decision.redacted:
                    metrics.redacted += 1
                sequence = None
                if decision.forward:
                    stage = "relay"
                    payload = decision.text.encode("utf-8")
                    sequence = channel.send(decision.flags, payload, ctx)
                    metrics.forwarded += 1
                    sent_payloads.append(payload)
                log.append(RedactionRecord(sequence, verdict.score, verdict.label, decision.action))
                metrics.latency_us.append((time.perf_counter() - started) * 1e6)
        except Exception as exc:
            raise PipelineError(stage, exc) from exc

        status_resp = bridge.invoke(PtaCommand(session, CMD_GET_STATUS), ctx)
        if status_resp.status is not PtaStatus.OK:
            raise PipelineError("read", f"status command returned {status_resp.status.name}")
        if status_resp.params[1].a != 0:
            raise PipelineError("ingest", f"{status_resp.params[1].a} frames overran the ring")
    finally:
        try:
            channel.close()
        except Exception:
            pass
        bridge.close_session(session)

    metrics.switches = ctx.switch_count
    metrics.cost_units = ctx.switch_cost_units
    metrics.bytes_sent = channel.bytes_sent
    return RunResult(
        metrics=metrics, log=log, utterances=utterances, sent_payloads=sent_payloads
    )
