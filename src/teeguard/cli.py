"""Command-line front end: pipeline runs, training, trace analysis, serving.

Options come from an INI-style config file, command-line flags, or both;
flags win.  Each config option is declared once, as a row of an option
table: the rows build the flags, read the file, and refuse a file section or
key that no row names.  Metrics are emitted as a single JSON document when
asked.

Each subcommand's handler imports the modules only it runs, the standard
library's included, so `serve` and `trace` start without numpy or any
secure-side module.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
import time
from collections.abc import Iterator
from pathlib import Path

from .relay import FilterAction, FilterPolicy
from .words import ARCHITECTURE_CHOICES, ARCHITECTURES


def _parse_port(text: str) -> int:
    if not (text.isascii() and text.isdigit()) or int(text) > 65535:
        raise ValueError(f"port must be a number from 0 to 65535, got {text!r}")
    return int(text)


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint must look like host:port, got {text!r}")
    return host, _parse_port(port)


def _parse_names(text: str) -> tuple[str, ...]:
    """A comma-separated list, each name stripped and empty items dropped."""
    return tuple(w.strip() for w in text.split(",") if w.strip())


# One row per config field: (field, dest of its `pipeline` flag or None, INI
# section, INI key, cast of the text, then optionally more add_argument
# keywords).  The cast is the flag's argparse type too.  A set flag wins over
# the file; a field set by neither keeps its dataclass default.
_GENERATOR_OPTIONS = (
    ("keywords", "keywords", "generator", "keywords", _parse_names),
    ("sensitivity", "sensitivity", "generator", "sensitivity", float),
    ("vocab_size", None, "generator", "vocab_size", int),
    ("min_words", None, "generator", "min_words", int),
    ("max_words", None, "generator", "max_words", int),
)
_TRAIN_OPTIONS = (
    ("epochs", "epochs", "classifier", "epochs", int),
    ("learning_rate", "learning_rate", "classifier", "learning_rate", float),
    ("seed", "train_seed", "classifier", "seed", int),
    ("dim", None, "classifier", "dim", int),
    ("filters", None, "classifier", "filters", int),
    ("width", None, "classifier", "width", int),
    ("vocab_size", None, "classifier", "vocab_size", int),
)
# `train` has a flag for every TrainConfig field, named after the field.
_TRAIN_FLAGS = tuple((name, name, *rest) for name, _, *rest in _TRAIN_OPTIONS)
_CLASSIFIER_OPTIONS = (
    ("architecture", "architecture", "classifier", "architecture", str,
     {"choices": ARCHITECTURE_CHOICES}),
    ("model_path", "model", "classifier", "model", str,
     {"help": "serialized model file (needs --corpus)"}),
    ("corpus_path", "corpus", "classifier", "corpus", str,
     {"help": "training corpus for the model's vocabulary"}),
    ("train_utterances", "train_utterances", "classifier", "train_utterances", int),
)
_POLICY_OPTIONS = (
    ("threshold", "threshold", "policy", "threshold", float),
    ("action", "action", "policy", "action", FilterAction,
     {"metavar": "{" + ",".join(a.value for a in FilterAction) + "}"}),
    ("mask_token", "mask_token", "policy", "mask_token", str),
)
_PIPELINE_OPTIONS = (
    ("seed", "seed", "pipeline", "seed", int),
    ("utterances", "utterances", "pipeline", "utterances", int),
    ("endpoint", "endpoint", "pipeline", "endpoint", _parse_endpoint,
     {"help": "collector host:port"}),
    ("cost_per_switch", "cost_per_switch", "pipeline", "cost_per_switch", int),
    ("capacity", "capacity", "pipeline", "capacity", int),
    ("frames_per_utterance", "frames", "pipeline", "frames_per_utterance", int,
     {"help": "frames per utterance"}),
)
# In the order `pipeline --help` lists the flags.
_CONFIG_OPTIONS = (*_PIPELINE_OPTIONS[:3], *_CLASSIFIER_OPTIONS, *_TRAIN_OPTIONS, *_POLICY_OPTIONS,
                   *_GENERATOR_OPTIONS, *_PIPELINE_OPTIONS[3:])


def _options(rows, args: argparse.Namespace, cp) -> dict:
    """Keyword arguments for one config dataclass from flags and the parsed
    config file `cp` (None without a file)."""
    values = {}
    for name, flag, section, key, cast, *_ in rows:
        value = getattr(args, flag) if flag else None
        if value is None and cp is not None and cp.has_option(section, key):
            value = cast(cp.get(section, key))
        if value is not None:
            values[name] = value
    return values


def _read_config(path: str):
    """The parsed INI file.  A file configparser cannot read, a value it
    cannot interpolate, and a section or key that no row names are refused."""
    import configparser

    # No section lends its keys to the others, so [DEFAULT] is one more
    # unknown section.
    cp = configparser.ConfigParser(default_section="")
    keys = {(section, key) for _, _, section, key, *_ in _CONFIG_OPTIONS}
    sections = {section for section, _ in keys}
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
        for section in cp.sections():
            if section not in sections:
                raise ValueError(f"unknown section [{section}]")
            for key in cp.options(section):
                if (section, key) not in keys:
                    raise ValueError(f"unknown key {key!r} in section [{section}]")
                cp.get(section, key)  # interpolates now, so a lone % is refused here
    except (configparser.Error, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return cp


def _pipeline_config(args: argparse.Namespace):
    from .audio import GeneratorConfig
    from .pipeline import ClassifierConfig, PipelineConfig
    from .sense import TrainConfig

    cp = _read_config(args.config) if args.config else None
    classifier = ClassifierConfig(
        train=TrainConfig(**_options(_TRAIN_OPTIONS, args, cp)),
        **_options(_CLASSIFIER_OPTIONS, args, cp),
    )
    return PipelineConfig(
        generator=GeneratorConfig(**_options(_GENERATOR_OPTIONS, args, cp)),
        classifier=classifier,
        policy=FilterPolicy(**_options(_POLICY_OPTIONS, args, cp)),
        **_options(_PIPELINE_OPTIONS, args, cp),
    )


def cmd_pipeline(args: argparse.Namespace) -> int:
    import json

    from .pipeline import run_pipeline

    config = _pipeline_config(args)
    result = run_pipeline(config)
    metrics = result.metrics.to_dict()
    print(" ".join(f"{k}={v}" for k, v in metrics.items() if k != "latency_us"))
    if args.metrics_out:
        Path(args.metrics_out).write_text(json.dumps(metrics, indent=2) + "\n")
    if args.log_out:
        Path(args.log_out).write_text(result.log.render() + "\n")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from .sense import TrainConfig, evaluate, load_corpus, save_model, train

    samples = load_corpus(args.corpus)
    config = TrainConfig(**_options(_TRAIN_FLAGS, args, None))
    result = train(args.architecture, samples, config)
    save_model(args.model_out, result.model)
    if args.history_out:
        lines = "\n".join(f"{loss:.8f}" for loss in result.loss_history)
        Path(args.history_out).write_text(lines + "\n")
    accuracy = evaluate(result.model, result.vocab, samples)
    print(f"final train accuracy: {accuracy:.4f}")
    return 0


def _inventory(path: str) -> Iterator[str]:
    """Function names, one per line; the file is read once the traces are."""
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            yield line


def cmd_trace(args: argparse.Namespace) -> int:
    from .tcbtrace import analyze, render_report

    path = None

    def traces():
        # Read lazily, so a parse error is raised while `path` names its file.
        nonlocal path
        for path in args.traces:
            yield Path(path).read_text(encoding="utf-8")
        path = None

    tasks = None if args.tasks is None else _parse_names(args.tasks)
    if tasks == ():
        raise ValueError(f"--tasks names no task: {args.tasks!r}")
    try:
        report = analyze(traces(), _inventory(args.inventory), tasks)
    except ValueError as exc:
        if path is None:
            raise
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 2
    text = render_report(report) + "\n"
    if args.report_out:
        Path(args.report_out).write_text(text)
    else:
        print(text, end="")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .cloud import MockCloud

    cloud = MockCloud(host=args.host, port=args.port, dump_path=args.dump)
    cloud.start()
    host, port = cloud.address
    # A shell starts a background job with SIGINT ignored; stop on it anyway.
    main_thread = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGINT, signal.default_int_handler) if main_thread else None
    try:
        print(f"listening on {host}:{port}", flush=True)
        while True:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        if main_thread:
            signal.signal(signal.SIGINT, previous)
        count = len(cloud.received())
        naks = cloud.nak_count
        cloud.stop()
        print(f"received {count} payloads, rejected {naks}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teeguard",
        description="Secured audio capture pipeline with in-enclave redaction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pipeline", help="run the end-to-end pipeline")
    p.add_argument("--config", help="INI config file; flags override it")
    for _, flag, _, _, cast, *extra in _CONFIG_OPTIONS:
        if flag:
            p.add_argument("--" + flag.replace("_", "-"), type=cast, **dict(*extra))
    p.add_argument("--metrics-out", dest="metrics_out", help="write metrics JSON here")
    p.add_argument("--log-out", dest="log_out", help="write the redaction log here")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("train", help="train a classifier on a labeled corpus")
    p.add_argument("--corpus", required=True, help="label<TAB>text lines")
    p.add_argument("--architecture", required=True, choices=ARCHITECTURES)
    p.add_argument("--model-out", dest="model_out", required=True)
    p.add_argument("--history-out", dest="history_out", help="write per-epoch loss here")
    for _, flag, _, _, cast in _TRAIN_FLAGS:
        p.add_argument("--" + flag.replace("_", "-"), type=cast)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("trace", help="call-trace analysis and exclusion report")
    p.add_argument("traces", nargs="+", help="trace log files")
    p.add_argument("--inventory", required=True, help="one function name per line")
    p.add_argument("--tasks", help="comma-separated task ids (default: all traced)")
    p.add_argument("--report-out", dest="report_out", help="write the report here")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("serve", help="run the mock collector until interrupted")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_parse_port, default=9747)
    p.add_argument("--dump", help="append received payload text here, one per line")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError, ConnectionError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
