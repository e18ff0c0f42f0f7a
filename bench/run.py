"""teeguard benchmark: run a workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in a fresh worker process (``bench/worker.py``) with the
checkout's ``src/`` on ``PYTHONPATH``.  This launcher prints every metric by
name with its unit, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``.  It exits non-zero when the worker fails or any correctness
check fails.  Outputs (results, spans, collector dumps, digests) go to
``.bench_out/``.

The JSON metrics have the same names on every workload: ``cpu_us_per_op``
is per utterance on the pipeline workloads (the printed ``cpu_us_per_utt``)
and per trace event on tcb-trace (``cpu_us_per_event``).  Counts that are
zero or undefined on some workload (switches, wire bytes, leaks, failures),
the p99 latency and the throughput (``utt_per_s``, ``events_per_s``) are
printed and checked but are not JSON metrics.

``BENCHMARK.json`` lists every workload except those in
``workloads.NOT_IN_MANIFEST``, which the harness still runs and checks.

Test the benchmark itself with ``PYTHONPATH=src python -m pytest bench``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKER_SETUP_ALLOWANCE_S = 90  # trainings, collector launches, warmup, trace generation
# The worker measures --seconds and spends at most about a third as long on
# set-up between repeats; twice --seconds plus the allowance leaves margin and
# keeps the command under 180 s for runs of up to 45 s.


def run_worker(name: str, args: argparse.Namespace) -> dict | None:
    """Run one workload in a fresh process; returns its result, or None if
    it produced none."""
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{name}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--result", str(result_path),
    ]
    # Own process group, so a timeout also stops the collectors it started.
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, start_new_session=True)
    timeout = WORKER_SETUP_ALLOWANCE_S + 2 * args.seconds
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{name}: worker exceeded {timeout:g} s", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None
    if proc.returncode not in (0, 1) or not result_path.exists():
        print(f"{name}: worker exited with status {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def show(result: dict) -> None:
    meta = result["meta"]
    print(f"workload {result['workload']}  seed {meta['seed']}  seconds {meta['seconds']}  "
          f"trace {result['trace']}")
    print("  " + "  ".join(f"{k} {meta[k]}" for k in (
        "python", "numpy", "nproc", "machine", "commit", "src_lines", "corpus_seed")))
    for name, entry in result["report"].items():
        print(f"  {name:30s} {entry['value']:>14.6g} {entry['unit']:6s} {entry['note']}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "teeguard" / "__init__.py").is_file():
        print(f"no teeguard sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        result = run_worker(name, args)
        if result is None:
            return 2
        show(result)
        print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}),
              flush=True)
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
