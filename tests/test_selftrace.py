"""tcbtrace pointed at teeguard itself: every package function that no CLI
command reaches is either deleted or named in ALLOWED_UNREACHED with the
reason it has to stay.

The sessions drive ``teeguard.cli.main`` in process under ``sys.setprofile``
and ``threading.setprofile``.  Each thread becomes one task of the trace and
only inventory functions are recorded, so the trace is the package's own
call graph.  Test scaffolding (the corpus file, the frames sent to ``serve``,
the collector the pipelines talk to) is built before recording starts.
"""

import contextlib
import dataclasses
import importlib
import inspect
import io
import pkgutil
import re
import socket
import sys
import threading
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import pytest

import teeguard
from teeguard import audio, cli, tcbtrace, tee
from teeguard.audio import GeneratorConfig, make_labeled_corpus
from teeguard.cloud import MockCloud
from teeguard.driver import EncodedBlock, SecureAudioDriver
from teeguard.pta import PtaBridge
from teeguard.relay import (
    FRAME_HEADER,
    RecordingTransport,
    RedactionLog,
    RelayPacket,
    encode_frame,
)
from teeguard.sense import ARCHITECTURES, TrainConfig, Vocab, save_corpus, train
from teeguard.words import Label

DATA = Path(__file__).parent / "data"

# Package functions that no CLI command runs, each with what needs it.
ALLOWED_UNREACHED = {
    # acceptance criteria 1 and 9 run the collector as a context manager
    "cloud__MockCloud___enter__",
    "cloud__MockCloud___exit__",
    # acceptance criterion 2 reads the ring's address range
    "driver__SecureAudioDriver_buffer_range",
    # acceptance criterion 8 round-trips the PTA command and response codecs
    "pta___decode_param",
    "pta___encode_param",
    "pta__decode_command",
    "pta__decode_response",
    "pta__encode_command",
    "pta__encode_response",
    # acceptance criterion 7 and bench/worker.py relay into the in-process peer
    "relay__RecordingTransport___init__",
    "relay__RecordingTransport_close",
    "relay__RecordingTransport_connect",
    "relay__RecordingTransport_exchange",
    # acceptance criterion 8 decodes relay frames (RecordingTransport does too)
    "relay__decode_frame",
    # bench/worker.py writes the corpus the trained-hybrid workload loads
    "sense_modelio__save_corpus",
    # acceptance criterion 6 parses into events and takes each task's entered set;
    # bench/tracing.py patches parse_trace and build_task_graphs by name
    "tcbtrace__TraceEvent___post_init__",
    "tcbtrace__build_task_graphs",
    "tcbtrace__parse_trace",
    # error path: map_region's OverlapError names the region it hits
    "tee__MemoryRegion___repr__",
}

# Removed layers and fixed knobs that commands would reach again if they came
# back, so the self-trace alone would not flag their return.
DELETED = {
    "teeguard.audio": {"UnsupportedWidth", "_require_width", "max_text_bytes"},
    "teeguard.driver": {"_AnnexEntry", "_collect_annex"},
    "teeguard.pipeline": {"_oracle_vocab"},
    "teeguard.pta": {"_error", "CMD_GET_STATUS"},
    "teeguard.relay": {"Supplicant", "SupplicantOp", "SupplicantRequest"},
    "teeguard.sense.modelio": {
        "_cnn_arrays", "_attention_arrays", "_cnn_shapes", "_attention_shapes", "_read_arrays",
        "_LABEL_NAMES", "_NAMES_TO_LABEL",
    },
    "teeguard.tcbtrace": {"CallGraph", "reachable", "merge_graphs", "_scan"},
}


def _mangle(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]", "_", text)


def _functions(owner, module_name: str):
    """(qualified name, code) of every function written in `owner`'s body,
    nested classes, properties and class/static methods included."""
    for value in vars(owner).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, property):
            parts = (value.fget, value.fset, value.fdel)
        elif isinstance(value, cached_property):
            parts = (value.func,)
        else:
            parts = (value,)
        for part in parts:
            if inspect.isfunction(part) and part.__module__ == module_name:
                yield part.__qualname__, part.__code__
        if inspect.isclass(value) and value.__module__ == module_name:
            yield from _functions(value, module_name)


def package_inventory() -> dict:
    """Code object -> ``module__Qual_name`` for every function whose source
    is in a teeguard module; ``__main__`` is left out because importing it
    runs the CLI.  Generated dataclass and enum methods have no source line
    in the package and are not counted."""
    codes = {}
    for info in pkgutil.walk_packages(teeguard.__path__, "teeguard."):
        if info.name == "teeguard.__main__":
            continue
        module = importlib.import_module(info.name)
        short = info.name.removeprefix("teeguard.")
        for qualname, code in _functions(module, info.name):
            if code.co_filename == module.__file__:
                codes[code] = _mangle(f"{short}__{qualname}")
    assert len(set(codes.values())) == len(codes)
    return codes


class Recorder:
    """Enter/exit events of inventory functions, one event list per thread."""

    def __init__(self, names: dict):
        self._names = names
        self._local = threading.local()
        self._logs = []  # (thread, events) in order of first event

    def _hook(self, frame, event, _arg):
        if event == "call" or event == "return":
            name = self._names.get(frame.f_code)
            if name is not None:
                try:
                    log = self._local.log
                except AttributeError:
                    log = self._local.log = []
                    self._logs.append((threading.current_thread(), log))
                log.append(("E" if event == "call" else "X", name))

    @contextlib.contextmanager
    def recording(self):
        """Record until the block ends, then join every thread it started so
        that each task's last call has returned."""
        before = set(threading.enumerate())
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        try:
            yield
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            for thread in set(threading.enumerate()) - before:
                thread.join(timeout=5.0)
                assert not thread.is_alive(), f"{thread.name} outlived the sessions"

    def trace(self) -> str:
        lines = []
        for thread, log in self._logs:
            task = _mangle(thread.name)
            lines.extend(f"{i} {d} {name} {task}" for i, (d, name) in enumerate(log))
        return "\n".join(lines) + "\n"


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def serve_session(tmp: Path, frames: list[bytes], monkeypatch) -> None:
    """`serve` on a free port with a dump file: a client thread sends
    `frames` (one of them bad), reads one ack each and hangs up; then the
    serve loop's next sleep raises
    KeyboardInterrupt, as Ctrl-C would.  (``_thread.interrupt_main`` would
    raise inside the profile hook, which switches profiling off.)"""
    out = io.StringIO()
    hung_up = threading.Event()

    def sleep(seconds):
        if hung_up.wait(seconds):
            raise KeyboardInterrupt

    def client():
        try:
            for _ in range(500):
                if "listening on" in out.getvalue():
                    break
                hung_up.wait(0.01)
            host, port = out.getvalue().split()[-1].rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=5.0) as sock:
                for frame in frames:
                    sock.sendall(frame)
                    sock.recv(12)
        finally:
            hung_up.set()

    monkeypatch.setattr(cli, "time", SimpleNamespace(sleep=sleep))
    helper = threading.Thread(target=client, daemon=True)
    with contextlib.redirect_stdout(out):
        helper.start()
        assert run("serve", "--port", 0, "--dump", tmp / "dump.txt") == 0
    helper.join(timeout=5.0)
    assert "received 2 payloads, rejected 1" in out.getvalue()


def cli_sessions(tmp: Path, corpus: Path, endpoint: str, closed: str, frames, monkeypatch) -> None:
    tiny = ["--utterances", 5, "--epochs", 3, "--train-utterances", 40]
    assert run("pipeline", "--endpoint", closed, "--utterances", 1) == 2
    for architecture in ("oracle", *ARCHITECTURES):
        for action in ("drop", "mask"):
            assert run("pipeline", "--endpoint", endpoint, "--architecture", architecture,
                       "--action", action, *tiny) == 0
    assert run("pipeline", "--endpoint", endpoint, "--keywords", "secret,pin", *tiny,
               "--metrics-out", tmp / "metrics.json", "--log-out", tmp / "log.txt") == 0
    ini = tmp / "run.ini"
    ini.write_text(
        "[generator]\nkeywords = pin, secret\nsensitivity = 0.5\nvocab_size = 30\n"
        "min_words = 3\nmax_words = 6\n"
        "[classifier]\narchitecture = cnn\nepochs = 3\nlearning_rate = 1.0\nseed = 2\n"
        "dim = 4\nfilters = 2\nwidth = 2\nvocab_size = 40\ntrain_utterances = 40\n"
        "[policy]\nthreshold = 0.4\naction = mask\nmask_token = [x]\n"
        f"[pipeline]\nseed = 4\nutterances = 5\nendpoint = {endpoint}\n"
        "cost_per_switch = 2\ncapacity = 64\nframes_per_utterance = 16\n"
    )
    assert run("pipeline", "--config", ini) == 0
    for architecture in ARCHITECTURES:
        model = tmp / f"{architecture}.tgm"
        assert run("train", "--corpus", corpus, "--architecture", architecture,
                   "--model-out", model, "--epochs", 3,
                   "--history-out", tmp / f"{architecture}.loss") == 0
        assert run("pipeline", "--endpoint", endpoint, "--architecture", architecture,
                   "--model", model, "--corpus", corpus, "--utterances", 5) == 0
    assert run("trace", DATA / "session.trace", "--inventory", DATA / "inventory.txt") == 0
    assert run("trace", DATA / "session.trace", "--inventory", DATA / "inventory.txt",
               "--tasks", "record", "--report-out", tmp / "report.txt") == 0
    assert run("trace", DATA / "session.trace", "--inventory", DATA / "inventory.txt",
               "--tasks", "record, ghost") == 2
    bad = tmp / "bad.trace"
    bad.write_text("1 E open t\n2 X open\n")
    assert run("trace", bad, "--inventory", DATA / "inventory.txt") == 2
    serve_session(tmp, frames, monkeypatch)


def test_every_unreached_function_is_allowlisted(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.tsv"
    save_corpus(corpus, make_labeled_corpus(GeneratorConfig(), 0, 40))
    smuggled = encode_frame(RelayPacket(7, 0, b"smuggled"))
    frames = [
        encode_frame(RelayPacket(0, 0, b"hello")),
        FRAME_HEADER.pack(b"XXXX", 0, 0, len(smuggled)) + smuggled,
        encode_frame(RelayPacket(1, 0, b"again")),
    ]
    names = package_inventory()
    recorder = Recorder(names)
    with MockCloud() as cloud:
        closed = "{}:{}".format(*cloud.address)
    with MockCloud() as cloud:
        endpoint = "{}:{}".format(*cloud.address)
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            with recorder.recording():
                cli_sessions(tmp_path, corpus, endpoint, closed, frames, monkeypatch)
    report = tcbtrace.analyze([recorder.trace()], names.values())
    print(f"self-trace: {len(report.required)} of {len(report.inventory)} functions reached")
    assert set(report.excluded) == ALLOWED_UNREACHED


def test_removed_layers_and_knobs_stay_removed():
    for module, names in DELETED.items():
        assert not names & set(vars(importlib.import_module(module)))
    for function in (audio.encode_frames, audio.decode_bitstream):
        assert "word_length" not in inspect.signature(function).parameters
    driver_params = inspect.signature(SecureAudioDriver).parameters
    assert not {"region_id", "address_limit"} & set(driver_params)
    # the transcript travels in the PCM only, never beside it
    assert "payload_text" not in inspect.signature(SecureAudioDriver.ingest).parameters
    assert "attached_text" not in {f.name for f in dataclasses.fields(EncodedBlock)}
    # names that restated another, or that nothing read
    transport = RecordingTransport()
    transport.connect(("host", 1))
    assert not hasattr(RedactionLog(), "append")
    assert not hasattr(EncodedBlock(0, 1, bytes(4)), "payload_length")
    assert not hasattr(transport, "endpoint")


def _bridge(**state) -> PtaBridge:
    asc = tee.AddressSpaceController()
    memory = tee.Memory(asc)
    return PtaBridge(SecureAudioDriver(asc, memory, 16), memory, **state)


# State that only its owner writes, and an option that no caller passed.
@pytest.mark.parametrize(
    "construct",
    [
        lambda: tee.WorldContext(switch_count=1),
        lambda: tee.WorldContext(switch_cost_units=1),
        lambda: tee.WorldContext(cost_per_switch=1),
        lambda: _bridge(_sessions=set()),
        lambda: _bridge(_next_session=5),
        lambda: train(
            "cnn",
            [("my pin", Label.SENSITIVE), ("lights on", Label.BENIGN)],
            TrainConfig(epochs=1),
            vocab=Vocab({"pin": 1}),
        ),
    ],
    ids=[
        "switch_count", "switch_cost_units", "cost_per_switch", "_sessions", "_next_session",
        "train_vocab",
    ],
)
def test_removed_settable_values_are_refused(construct):
    with pytest.raises(TypeError):
        construct()

