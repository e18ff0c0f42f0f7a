"""Command-line entry points, exercised through main() and one real process."""

import dataclasses
import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
import time
import typing
from pathlib import Path

import pytest

import teeguard
from teeguard.audio import GeneratorConfig, make_labeled_corpus
from teeguard import cli
from teeguard.cli import _parse_endpoint, _parse_names, _pipeline_config, build_parser, main
from teeguard.cloud import MockCloud
from teeguard.pipeline import ARCHITECTURE_CHOICES, ClassifierConfig, PipelineConfig
from teeguard.relay import FilterAction, FilterPolicy, RelayPacket, encode_frame
from teeguard.sense import TrainConfig, load_model, save_corpus
from teeguard.tcbtrace import analyze, render_report

DATA = Path(__file__).parent / "data"

METRIC_KEYS = [
    "processed", "sensitive", "redacted", "forwarded",
    "switches", "cost_units", "bytes_sent", "latency_us",
]


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.tsv"
    save_corpus(path, make_labeled_corpus(GeneratorConfig(), seed=0, count=80))
    return path


def run_train(corpus_file, model_path, *extra):
    return main(
        [
            "train",
            "--corpus", str(corpus_file),
            "--architecture", "cnn",
            "--model-out", str(model_path),
            "--epochs", "25",
            "--learning-rate", "1.0",
            "--dim", "8",
            "--filters", "4",
            *extra,
        ]
    )


# -- train -------------------------------------------------------------------


def test_train_writes_model_and_history(tmp_path, corpus_file, capsys):
    model_path = tmp_path / "model.bin"
    history = tmp_path / "loss.txt"
    assert run_train(corpus_file, model_path, "--history-out", str(history)) == 0
    out = capsys.readouterr().out
    assert out.startswith("final train accuracy: ")
    float(out.split(":")[1])  # the number parses

    load_model(model_path)  # the file parses
    lines = history.read_text().splitlines()
    assert len(lines) == 25
    losses = [float(v) for v in lines]
    assert losses == sorted(losses, reverse=True)


def test_retrain_reproduces_model_bytes(tmp_path, corpus_file):
    first = tmp_path / "a.bin"
    second = tmp_path / "b.bin"
    assert run_train(corpus_file, first) == 0
    assert run_train(corpus_file, second) == 0
    assert first.read_bytes() == second.read_bytes()


def test_train_missing_corpus_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.tsv"
    code = main(
        [
            "train", "--corpus", str(missing),
            "--architecture", "cnn", "--model-out", str(tmp_path / "m.bin"),
        ]
    )
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_train_refuses_a_learning_rate_that_is_not_finite(tmp_path, corpus_file, capsys):
    model_path = tmp_path / "model.bin"
    assert run_train(corpus_file, model_path, "--learning-rate", "nan") == 2
    # the config's refusal, not a divergence found at the first epoch
    assert capsys.readouterr().err == "error: learning_rate must be positive and finite\n"
    assert not model_path.exists()


def test_train_rejects_unknown_architecture(tmp_path, corpus_file):
    with pytest.raises(SystemExit):
        main(
            [
                "train", "--corpus", str(corpus_file),
                "--architecture", "rnn", "--model-out", str(tmp_path / "m.bin"),
            ]
        )


def test_unset_train_flags_take_the_train_config_defaults(tmp_path, corpus_file):
    required = ["train", "--corpus", str(corpus_file), "--architecture", "cnn"]
    defaults = TrainConfig()
    spelled_out = [
        "--epochs", defaults.epochs, "--learning-rate", defaults.learning_rate,
        "--seed", defaults.seed, "--dim", defaults.dim, "--filters", defaults.filters,
        "--width", defaults.width, "--vocab-size", defaults.vocab_size,
    ]
    bare, explicit = tmp_path / "bare.bin", tmp_path / "explicit.bin"
    assert main([*required, "--model-out", str(bare)]) == 0
    assert main([*required, "--model-out", str(explicit), *map(str, spelled_out)]) == 0
    assert bare.read_bytes() == explicit.read_bytes()


def test_pipeline_architecture_choices():
    parser = build_parser()
    for architecture in ARCHITECTURE_CHOICES:
        args = parser.parse_args(["pipeline", "--architecture", architecture])
        assert args.architecture == architecture
    with pytest.raises(SystemExit):
        parser.parse_args(["pipeline", "--architecture", "rnn"])


# -- trace -------------------------------------------------------------------


def test_trace_report_for_one_task(capsys):
    code = main(
        [
            "trace", str(DATA / "session.trace"),
            "--inventory", str(DATA / "inventory.txt"),
            "--tasks", "record",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "inventory=12 required=7 excluded=5 ratio=0.4167" in out
    assert "CFG_EXCL_DEBUG_DUMP" in out
    assert "CFG_EXCL_NET_OPEN" in out
    assert "relay_send" in out.split("[excluded]")[0]  # required section


def test_trace_report_out_file(tmp_path, capsys):
    report = tmp_path / "report.txt"
    code = main(
        [
            "trace", str(DATA / "session.trace"),
            "--inventory", str(DATA / "inventory.txt"),
            "--report-out", str(report),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    text = report.read_text()
    # all three tasks selected by default: only the never-traced pair is cut
    assert "inventory=12 required=10 excluded=2 ratio=0.1667" in text
    assert "CFG_EXCL_DEBUG_DUMP\nCFG_EXCL_SELF_TEST" in text


def test_trace_merges_tasks_across_files(tmp_path, capsys):
    first = tmp_path / "one.trace"
    second = tmp_path / "two.trace"
    inventory = tmp_path / "inventory.txt"
    first.write_text("1 E a rec\n2 E b rec\n3 X b rec\n4 X a rec\n")
    second.write_text("1 E a rec\n2 E c rec\n3 X c rec\n4 X a rec\n1 E d net\n2 X d net\n")
    inventory.write_text("a\nb\nc\nd\ne\n")
    code = main(["trace", str(first), str(second), "--inventory", str(inventory), "--tasks", "rec"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.split("[excluded]")[0] == "[required]\na\nb\nc\n"
    assert "inventory=5 required=3 excluded=2" in out


def test_trace_prints_the_analyze_report(capsys):
    code = main(
        [
            "trace", str(DATA / "session.trace"),
            "--inventory", str(DATA / "inventory.txt"),
            "--tasks", "record",
        ]
    )
    assert code == 0
    lines = (DATA / "inventory.txt").read_text(encoding="utf-8").splitlines()
    inventory = [line for line in lines if line and not line.startswith("#")]
    report = analyze([(DATA / "session.trace").read_text(encoding="utf-8")], inventory, ["record"])
    assert capsys.readouterr().out == render_report(report) + "\n"


@pytest.mark.parametrize(("tasks", "digest"), [
    (["--tasks", "record"], "14cbbf9b1a5dfba58c5eaef3f36800b8d5f2c0cd9345cc7486dc7afa2a8f214f"),
    ([], "ecf1664525ab9dd761fa60cfa1de877dda0eb0635b109e5e2243deb992f42b8b"),
])
def test_trace_report_bytes_are_pinned(tasks, digest, capsys):
    # sha256 of the whole stdout, so any change to the report's bytes shows
    argv = ["trace", str(DATA / "session.trace"), "--inventory", str(DATA / "inventory.txt")]
    assert main(argv + tasks) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_trace_parse_error_names_file(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text("123 E. broken\n")
    code = main(["trace", str(bad), "--inventory", str(DATA / "inventory.txt")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "line 1" in err


def test_trace_untracked_function_fails(tmp_path, capsys):
    empty = tmp_path / "inventory.txt"
    empty.write_text("")
    code = main(["trace", str(DATA / "session.trace"), "--inventory", str(empty)])
    assert code == 2
    assert "main_loop" in capsys.readouterr().err


@pytest.mark.parametrize(("names", "named"), [
    ("foo\nFoo\n", "CFG_EXCL_FOO for excluded Foo would exclude required foo"),
    ("foo\nfo-o\n", "'fo-o'"),
])
def test_trace_refuses_a_directive_it_cannot_emit(tmp_path, capsys, names, named):
    trace = tmp_path / "one.trace"
    trace.write_text("1 E foo t\n2 X foo t\n")
    inventory = tmp_path / "inventory.txt"
    inventory.write_text(names)
    assert main(["trace", str(trace), "--inventory", str(inventory)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


def test_trace_unknown_task_fails(capsys):
    code = main(
        [
            "trace", str(DATA / "session.trace"),
            "--inventory", str(DATA / "inventory.txt"),
            "--tasks", "ghost",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: unknown task 'ghost'\n"


@pytest.mark.parametrize("tasks", ["record, upload", "record,,upload", " upload ,record,"])
def test_trace_tasks_are_stripped_and_empty_items_dropped(tasks, capsys):
    # the --keywords rule: " upload" used to fail as an unknown task
    argv = ["trace", str(DATA / "session.trace"), "--inventory", str(DATA / "inventory.txt")]
    assert main([*argv, "--tasks", "record,upload"]) == 0
    expected = capsys.readouterr().out
    assert main([*argv, "--tasks", tasks]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("tasks", [",", "", " , "])
def test_trace_refuses_a_task_list_that_names_no_task(tasks, capsys):
    argv = ["trace", str(DATA / "session.trace"), "--inventory", str(DATA / "inventory.txt")]
    assert main([*argv, "--tasks", tasks]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --tasks names no task: {tasks!r}\n"


# -- pipeline ----------------------------------------------------------------


def test_pipeline_summary_and_artifacts(tmp_path, capsys):
    metrics_path = tmp_path / "metrics.json"
    log_path = tmp_path / "run.log"
    with MockCloud() as cloud:
        host, port = cloud.address
        code = main(
            [
                "pipeline",
                "--seed", "9",
                "--utterances", "30",
                "--endpoint", f"{host}:{port}",
                "--metrics-out", str(metrics_path),
                "--log-out", str(log_path),
            ]
        )
        assert code == 0
        received = len(cloud.received())

    out = capsys.readouterr().out
    assert out.startswith("processed=30 sensitive=")

    metrics = json.loads(metrics_path.read_text())
    assert list(metrics) == METRIC_KEYS
    assert out == " ".join(f"{key}={metrics[key]}" for key in METRIC_KEYS[:-1]) + "\n"
    assert metrics["processed"] == 30
    assert metrics["forwarded"] == received
    assert len(metrics["latency_us"]) == 30
    assert len(log_path.read_text().splitlines()) == 30


def test_pipeline_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.ini"
    with MockCloud() as cloud:
        host, port = cloud.address
        config.write_text(
            "[pipeline]\n"
            f"endpoint = {host}:{port}\n"
            "utterances = 10\n"
            "seed = 4\n"
            "[generator]\n"
            "sensitivity = 0.0\n"
            "[policy]\n"
            "action = mask\n"
        )
        code = main(["pipeline", "--config", str(config), "--utterances", "5"])
        assert code == 0
        received = len(cloud.received())
    out = capsys.readouterr().out
    assert "processed=5" in out  # the flag beat the file
    assert "sensitive=0" in out  # the file's generator section applied
    assert received == 5


@pytest.mark.parametrize(("text", "named"), [
    ("[pipline]\nutterances = 3\n", "unknown section [pipline]"),
    ("[generator]\nsensitivty = 1.0\n", "unknown key 'sensitivty' in section [generator]"),
    ("[pipeline]\nframes = 16\n", "unknown key 'frames' in section [pipeline]"),  # a flag's dest
    ("[classifier]\nmodel_path = m.bin\n", "unknown key 'model_path' in section [classifier]"),
    ("[DEFAULT]\nseed = 3\n[pipeline]\n", "unknown section [DEFAULT]"),
], ids=["section", "key", "flag-dest", "field-name", "default-section"])
def test_config_file_refuses_what_no_option_row_names(tmp_path, capsys, text, named):
    # such a file used to run with the misspelt value silently left at its default
    config = tmp_path / "run.ini"
    config.write_text(text, encoding="utf-8")
    assert main(["pipeline", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {config}: {named}\n"


@pytest.mark.parametrize(("text", "named"), [
    ("seed = 1\n", "File contains no section headers"),
    ("[policy]\nmask_token = 100%\n", "'%' must be followed by '%' or '('"),
    ("[pipeline]\nseed = 1\nseed = 2\n", "option 'seed' in section 'pipeline' already exists"),
], ids=["no-header", "lone-percent", "duplicate-key"])
def test_config_file_configparser_cannot_read_is_refused(tmp_path, capsys, text, named):
    # configparser's own errors used to escape main as a traceback
    config = tmp_path / "run.ini"
    config.write_text(text, encoding="utf-8")
    assert main(["pipeline", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and named in err


def test_pipeline_unreachable_endpoint_errors(capsys):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    code = main(["pipeline", "--utterances", "1", "--endpoint", f"127.0.0.1:{port}"])
    assert code == 2
    assert "stage setup" in capsys.readouterr().err


def test_pipeline_missing_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "absent.ini"
    code = main(["pipeline", "--config", str(missing)])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_pipeline_rejects_a_keyword_the_rule_would_split(capsys):
    code = main(["pipeline", "--keywords", "credit card,pin", "--utterances", "1"])
    assert code == 2
    assert "'credit card'" in capsys.readouterr().err
    # an empty list is refused by the same GeneratorConfig check
    assert main(["pipeline", "--keywords", ",", "--utterances", "1"]) == 2
    assert capsys.readouterr().err == "error: keyword list is empty\n"


def test_bad_endpoint_rejected_by_parser(capsys):
    with pytest.raises(SystemExit):
        main(["pipeline", "--endpoint", "no-port-here"])


@pytest.mark.parametrize("port", ["70000", "65536", "-1", "\u0661\u0662"])
def test_out_of_range_ports_rejected(tmp_path, capsys, port):
    # 70000 used to wrap to 4464 on connect; "١٢" used to be read as 12
    with pytest.raises(SystemExit):
        main(["pipeline", "--endpoint", f"127.0.0.1:{port}"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--port", port])
    config = tmp_path / "run.ini"
    config.write_text(f"[pipeline]\nendpoint = 127.0.0.1:{port}\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["pipeline", "--config", str(config)]) == 2
    assert "port must be a number from 0 to 65535" in capsys.readouterr().err


def test_port_range_ends_accepted():
    assert _parse_endpoint("127.0.0.1:0") == ("127.0.0.1", 0)
    assert _parse_endpoint("collector:65535") == ("collector", 65535)
    assert build_parser().parse_args(["serve", "--port", "0"]).port == 0


# -- option tables -----------------------------------------------------------

# The cast of the INI text (and the flag's argparse type) that each resolved
# field annotation calls for.
CASTS = {
    int: int, float: float, str: str, str | None: str, FilterAction: FilterAction,
    tuple[str, ...]: _parse_names, tuple[str, int]: _parse_endpoint,
}


@pytest.mark.parametrize(("config", "rows"), [
    (PipelineConfig, cli._PIPELINE_OPTIONS),
    (ClassifierConfig, cli._CLASSIFIER_OPTIONS),
    (TrainConfig, cli._TRAIN_OPTIONS),
    (GeneratorConfig, cli._GENERATOR_OPTIONS),
    (FilterPolicy, cli._POLICY_OPTIONS),
], ids=lambda value: getattr(value, "__name__", ""))
def test_each_config_field_has_one_row_with_the_cast_of_its_annotation(config, rows):
    hints = typing.get_type_hints(config)
    nested = {name for name, hint in hints.items() if dataclasses.is_dataclass(hint)}
    assert sorted(row[0] for row in rows) == sorted(hints.keys() - nested)
    for name, _, _, _, cast, *_ in rows:
        assert cast is CASTS[hints[name]], name


# (option strings, dest, help, metavar) of every flag, in `--help` order, as
# they were before the flags were built from the option tables.
PINNED_FLAGS = {
    "pipeline": [
        (["-h", "--help"], "help", "show this help message and exit", None),
        (["--config"], "config", "INI config file; flags override it", None),
        (["--seed"], "seed", None, None),
        (["--utterances"], "utterances", None, None),
        (["--endpoint"], "endpoint", "collector host:port", None),
        (["--architecture"], "architecture", None, None),
        (["--model"], "model", "serialized model file (needs --corpus)", None),
        (["--corpus"], "corpus", "training corpus for the model's vocabulary", None),
        (["--train-utterances"], "train_utterances", None, None),
        (["--epochs"], "epochs", None, None),
        (["--learning-rate"], "learning_rate", None, None),
        (["--train-seed"], "train_seed", None, None),
        (["--threshold"], "threshold", None, None),
        (["--action"], "action", None, "{drop,mask}"),
        (["--mask-token"], "mask_token", None, None),
        (["--keywords"], "keywords", None, None),
        (["--sensitivity"], "sensitivity", None, None),
        (["--cost-per-switch"], "cost_per_switch", None, None),
        (["--capacity"], "capacity", None, None),
        (["--frames"], "frames", "frames per utterance", None),
        (["--metrics-out"], "metrics_out", "write metrics JSON here", None),
        (["--log-out"], "log_out", "write the redaction log here", None),
    ],
    "train": [
        (["-h", "--help"], "help", "show this help message and exit", None),
        (["--corpus"], "corpus", "label<TAB>text lines", None),
        (["--architecture"], "architecture", None, None),
        (["--model-out"], "model_out", None, None),
        (["--history-out"], "history_out", "write per-epoch loss here", None),
        (["--epochs"], "epochs", None, None),
        (["--learning-rate"], "learning_rate", None, None),
        (["--seed"], "seed", None, None),
        (["--dim"], "dim", None, None),
        (["--filters"], "filters", None, None),
        (["--width"], "width", None, None),
        (["--vocab-size"], "vocab_size", None, None),
    ],
}


@pytest.mark.parametrize("command", sorted(PINNED_FLAGS))
def test_no_flag_appears_or_disappears(command):
    parser = build_parser()._subparsers._group_actions[0].choices[command]
    flags = [(a.option_strings, a.dest, a.help, a.metavar) for a in parser._actions]
    assert flags == PINNED_FLAGS[command]


def test_readme_config_example_reads(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    config = tmp_path / "run.ini"
    config.write_text(readme.split("```ini\n")[1].split("```")[0], encoding="utf-8")
    built = _pipeline_config(build_parser().parse_args(["pipeline", "--config", str(config)]))
    assert (built.seed, built.utterances, built.endpoint) == (7, 500, ("127.0.0.1", 9747))
    assert built.generator.keywords == ("password", "pin", "secret")
    assert (built.classifier.architecture, built.classifier.train.epochs) == ("cnn", 200)
    assert built.policy == FilterPolicy(threshold=0.5, action=FilterAction.DROP)


# -- serve -------------------------------------------------------------------


# Runs `python -m teeguard ...` and, at exit, prints one last stdout line
# naming every module the process loaded.
REPORT_MODULES = (
    "import atexit, runpy, sys; "
    "atexit.register(lambda: print('modules:', *sorted(sys.modules))); "
    "runpy.run_module('teeguard', run_name='__main__', alter_sys=True)"
)

# What only capture, the enclave and the classifiers need.
SECURE_SIDE = ("numpy", "teeguard.audio", "teeguard.driver", "teeguard.pta",
               "teeguard.pipeline", "teeguard.sense")


def child_env() -> dict:
    """This environment with this teeguard package first on the path, so no
    installed console script is needed."""
    package_root = str(Path(teeguard.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def secure_side_modules(out: str) -> list[str]:
    """The SECURE_SIDE modules in a REPORT_MODULES child's output."""
    line = out.splitlines()[-1]
    assert line.startswith("modules: ")
    return [
        name for name in line.split()[1:]
        if any(name == top or name.startswith(top + ".") for top in SECURE_SIDE)
    ]


def start_serve(*, ignore_sigint: bool = False, report_modules: bool = False) -> subprocess.Popen:
    """`python -m teeguard serve --port 0` under this interpreter (see
    `child_env`).  With `ignore_sigint` the child inherits SIGINT set to
    SIG_IGN, as a shell's background job does; with `report_modules` it runs
    under REPORT_MODULES."""
    argv = [sys.executable, "-m", "teeguard", "serve", "--port", "0"]
    if report_modules:
        argv[1:3] = ["-c", REPORT_MODULES]
    if ignore_sigint:
        argv = [
            sys.executable, "-c",
            "import os, signal, sys; signal.signal(signal.SIGINT, signal.SIG_IGN); "
            "os.execv(sys.executable, sys.argv[1:])",
            *argv,
        ]
    return subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )


def test_serve_process_counts_payloads(tmp_path):
    proc = start_serve()
    try:
        banner = proc.stdout.readline().strip()
        assert banner.startswith("listening on 127.0.0.1:")
        port = int(banner.rpartition(":")[2])
        with socket.create_connection(("127.0.0.1", port)) as sock:
            for i in range(3):
                sock.sendall(encode_frame(RelayPacket(i, 0, b"payload")))
                sock.recv(12)
            sock.sendall(b"GARBAGEGARBAGE!!")
            sock.recv(12)
        time.sleep(0.1)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
    assert "received 3 payloads, rejected 1" in out
    assert err == ""


def test_serve_stops_on_sigint_inherited_as_ignored():
    proc = start_serve(ignore_sigint=True)
    try:
        assert proc.stdout.readline().startswith("listening on 127.0.0.1:")
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
    assert "received 0 payloads, rejected 0" in out
    assert err == ""


def test_serve_loads_nothing_secure_side():
    proc = start_serve(report_modules=True)
    try:
        assert proc.stdout.readline().startswith("listening on 127.0.0.1:")
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
    assert "received 0 payloads, rejected 0" in out
    assert err == ""
    assert secure_side_modules(out) == []
    # the config-file parser and the metrics encoder belong to `pipeline`
    assert not {"configparser", "json"} & set(out.splitlines()[-1].split())


def test_trace_loads_nothing_secure_side():
    argv = [sys.executable, "-c", REPORT_MODULES, "trace", str(DATA / "session.trace"),
            "--inventory", str(DATA / "inventory.txt")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "inventory=12 required=10 excluded=2" in proc.stdout
    assert secure_side_modules(proc.stdout) == []
