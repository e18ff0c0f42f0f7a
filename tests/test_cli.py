"""Command-line entry points, exercised through main() and one real process."""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import teeguard
from teeguard.audio import GeneratorConfig, make_labeled_corpus
from teeguard.cli import _parse_endpoint, build_parser, main
from teeguard.cloud import MockCloud
from teeguard.relay import RelayPacket, encode_frame
from teeguard.sense import load_model, save_corpus
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


def test_train_rejects_unknown_architecture(tmp_path, corpus_file):
    with pytest.raises(SystemExit):
        main(
            [
                "train", "--corpus", str(corpus_file),
                "--architecture", "rnn", "--model-out", str(tmp_path / "m.bin"),
            ]
        )


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


def test_trace_unknown_task_fails(capsys):
    code = main(
        [
            "trace", str(DATA / "session.trace"),
            "--inventory", str(DATA / "inventory.txt"),
            "--tasks", "ghost",
        ]
    )
    assert code == 2
    assert "ghost" in capsys.readouterr().err


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
    for key in METRIC_KEYS[:-1]:
        assert f"{key}=" in out

    metrics = json.loads(metrics_path.read_text())
    assert list(metrics) == METRIC_KEYS
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


# -- serve -------------------------------------------------------------------


def start_serve(*, ignore_sigint: bool = False) -> subprocess.Popen:
    """`python -m teeguard serve --port 0` under this interpreter with this
    teeguard package first on its path, so no installed console script is
    needed.  With `ignore_sigint` the child inherits SIGINT set to SIG_IGN,
    as a shell's background job does."""
    package_root = str(Path(teeguard.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "teeguard", "serve", "--port", "0"]
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
        env={**os.environ, "PYTHONPATH": pythonpath},
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
