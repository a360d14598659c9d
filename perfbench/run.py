"""votepower benchmark.

    python3 perfbench/run.py --workload corpus|meetings|chains --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is imported from the
checkout's ``src``; with no ``src/votepower`` there the benchmark exits 2.

``--trace 0`` measures the end-to-end metrics in one workload process:
``setup_s`` (median wall time of fresh interpreters importing
``votepower.cli``, spread over the run), ops per second, median and tail
latency per op, and peak RSS. ``--trace 1`` runs the workload twice,
untraced and traced, and reports per-layer metrics, the tracing overhead and
the import times from ``-X importtime``.

Human-readable lines come first; the next-to-last line is the full result
as JSON (environment, failures by kind, input properties); the last line is
``{"correct", "attempted", "failed", "metrics"}``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "meetings", "chains")
IMPORTTIME_RUNS = 5
CHILD_TIMEOUT_S = 170
IMPORT = "import votepower.cli"

END_TO_END = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb")
UNITS = {"ops_per_s": "1/s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffixes, unit in ((("_ms", ".ms"), "ms"), (("_s",), "s"), (("_share",), "share")):
        if name.endswith(suffixes):
            return unit
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def python(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run a Python child in a session of its own; on a timeout, kill the
    whole session, op processes and set-up interpreters included."""
    with subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, args, out, err)
    return subprocess.CompletedProcess(args, 0, out, err)


def import_times(env: dict) -> dict[str, float]:
    """Median numpy and votepower import time in seconds from -X importtime."""
    numpy_s, votepower_s = [], []
    for _ in range(IMPORTTIME_RUNS):
        lines = python(["-X", "importtime", "-c", IMPORT], env, 60).stderr.splitlines()
        numpy_us = own_us = 0
        for line in lines:
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = [f.strip() for f in line.split(":", 1)[1].split("|")]
            if not fields[0].isdigit():
                continue
            own, cumulative, name = int(fields[0]), int(fields[1]), fields[2]
            if name == "numpy":
                numpy_us = cumulative
            elif name.startswith("votepower"):
                own_us += own
        numpy_s.append(numpy_us / 1e6)
        votepower_s.append(own_us / 1e6)
    return {"setup.numpy_import_s": statistics.median(numpy_s),
            "setup.votepower_import_s": statistics.median(votepower_s)}


def run_workload(args, mode: str, env: dict, deadline: float) -> dict:
    proc = python([str(ROOT / "perfbench" / "harness.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode],
                  env, max(1.0, deadline - time.monotonic()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "votepower" / "cli.py").is_file():
        print(f"no votepower sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    env = child_env()
    try:
        plain = run_workload(args, "plain", env, deadline)
        runs = [plain]
        if args.trace:
            setup_layers = import_times(env)
            traced = run_workload(args, "traced", env, deadline)
            runs.append(traced)
    except subprocess.CalledProcessError as exc:
        print(exc.stderr, file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("benchmark ran out of time", file=sys.stderr)
        return 1

    e2e = {**{k: plain[k] for k in END_TO_END},
           "failed_share": plain["with_failure"] / plain["attempted"]}
    summary = {key: plain[key] for key in ("workload", "seed", "passes", "documents", "busy_s",
                                           "tail", "documents_ms", "failures", "examples",
                                           "checks_passed", "self_check", "setup_runs_s", "env")}
    summary["end_to_end"] = {k: {"value": v, "unit": unit_of(k)} for k, v in e2e.items()}
    print(f"workload {args.workload}, seed {args.seed}: {plain['attempted']} ops in "
          f"{plain['passes']} passes, outputs {'correct' if plain['correct'] else 'WRONG'}")
    for name, value in e2e.items():
        print(f"  {name:16} {value:12.4f} {unit_of(name)}")
    tail = plain["tail"]
    print(f"  tail is the slowest of {tail['documents']} documents, {tail['document']}, "
          f"at its median over {tail['runs_each']} runs")
    for kind, count in sorted(plain["failures"].items()):
        print(f"  failure {kind}: {count}")

    if args.trace:
        metrics = {**setup_layers, **traced["per_layer"],
                   "trace.overhead_share": 1 - traced["ops_per_s"] / plain["ops_per_s"]}
        summary.update(per_layer=metrics, inputs=traced["inputs"],
                       trace_file=traced["trace_file"], spans=traced["spans"])
        for name, value in metrics.items():
            print(f"  {name:28} {value:14.4f} {unit_of(name)}")
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": unit_of(k)} for k in END_TO_END}
    print(json.dumps(summary))
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
