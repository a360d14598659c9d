"""One workload process: generate the documents, run them, check the outputs.

    python3 perfbench/harness.py --workload W --seed N --seconds S --mode plain|traced

A closed loop with one client and one thread runs the workload's documents
in whole passes. Each op is one document processed the way ``votepower
run`` processes it, in a process forked for that op alone: like a cold
``votepower run <file>`` after its import, it starts with nothing that an
earlier op left in memory, and whatever it caches dies with it. The op
process reads its peak RSS, then checks its outputs off the clock, and
hands its figures back through a pipe.

Fresh interpreters that ``import votepower.cli`` are timed between ops,
spread over the run, for ``setup_s``. The last line of standard output is
one JSON object with the measurements; ``run.py`` starts this script with
``PYTHONPATH`` set to the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import votepower  # noqa: E402
from votepower import core, corpus, report, scenario  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

# A run makes whole passes until --seconds have gone by, at least
# MIN_PASSES, so its length does not depend on how fast the program or the
# machine is, and a faster program runs its documents more often.
MIN_PASSES = 3

# Fresh interpreters timed for setup_s, spread evenly over the run, after
# one that writes the bytecode cache as an install would.
SETUP_RUNS = 15
IMPORT = "import votepower.cli"

encode = json.dumps


def run_op(op: gen.Op) -> list:
    """Process one document; return one output or exception per analysis."""
    if op.verify:
        return [corpus.verify_corpus()]
    parsed = scenario.loads(op.text)
    options = report.RunOptions(backend=op.backend, samples=op.samples, seed=op.seed,
                                interpretation=op.interpretation)
    outputs: list = []
    for index, spec in enumerate(parsed.analyses):
        try:
            payload = report.run_analysis(parsed, spec, options)
        except Exception as exc:  # recorded; the checker classifies it
            outputs.append(exc)
            continue
        result = report.AnalysisResult(index, spec, op.interpretation, payload)
        if op.fmt == "machine":
            document = report.result_json(result)
            encode(document)
            outputs.append(document)
        else:
            outputs.append(report.render_table(result))
    return outputs


class Tally:
    """Ops attempted and failed, and every failure by kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.with_failure = 0
        self.kinds: Counter = Counter()
        self.checks = 0
        self.examples: list[str] = []

    def add(self, verdict: check.Verdict) -> None:
        self.attempted += 1
        self.failed += verdict.failed
        self.with_failure += verdict.failed or bool(verdict.errors)
        self.checks += verdict.checks
        for kind, expected in verdict.errors:
            self.kinds[f"{kind} ({'expected' if expected else 'unexpected'})"] += 1
        if verdict.problems:
            self.kinds["wrong_output"] += 1
            self.examples.extend(verdict.problems[: 5 - len(self.examples)])


def digest(outputs: list) -> str:
    """A fingerprint of one op's outputs, to show a repeat gave the same."""
    plain = [f"{type(o).__name__}: {o}" if isinstance(o, BaseException) else o for o in outputs]
    return hashlib.sha256(repr(plain).encode()).hexdigest()


def measure(op: gen.Op, checker, tracer, first: bool, probe: bool) -> dict:
    """Run one op in this (forked) process and report on it. The first run
    of a document is checked in full; later runs only give its digest."""
    if tracer:
        tracer.reset()
    start = time.perf_counter()
    outputs = run_op(op)
    elapsed = time.perf_counter() - start
    # Read before any check can allocate.
    result = {"elapsed": elapsed,
              "peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "digest": digest(outputs)}
    if tracer:
        result["trace"] = tracer.state()
    if op.verify and not isinstance(outputs[0], BaseException):
        outcomes = outputs[0].outcomes
        result["corpus_checks"] = (len(outcomes), sum(not o.passed for o in outcomes))
    if first:
        verdict = result["verdict"] = checker(op, outputs)
        if probe and op.fmt == "machine" and not verdict.failed:
            # Self-check: a corrupted output must make its op count as failed.
            bad = check.corrupt(op, outputs)
            if bad is not None:
                result["probe_failed"] = checker(op, bad).failed
    return result


def in_child(fn, *args) -> dict:
    """``fn(*args)`` in a forked process, its result pickled back through a
    pipe; nothing the call leaves in memory reaches this process."""
    sys.stdout.flush()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as pipe:
                pickle.dump(fn(*args), pipe)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"op process ended with status {status}")
    return pickle.loads(data)


def import_seconds() -> float:
    """Wall time for a fresh interpreter to import the CLI. No timeout here:
    with one, the wait polls in steps of up to 50 ms; run.py bounds the run."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT], check=True)
    return time.perf_counter() - start


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def environment() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            model = next((line.split(":", 1)[1].strip() for line in info
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "threads": {v: os.environ.get(v) for v in
                                                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                     "MKL_NUM_THREADS")}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(check.CHECKERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), default="plain")
    args = parser.parse_args()
    if not Path(votepower.__file__).resolve().is_relative_to(SRC):
        print(f"votepower imported from {votepower.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    if args.workload == "corpus":
        ops = gen.corpus_ops(rng, SRC / "votepower" / "corpus")
    else:
        ops = getattr(gen, f"{args.workload}_ops")(rng)
    checker = check.CHECKERS[args.workload]

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        this = sys.modules[__name__]
        tracer.install({(this, "encode"): "report.encode", (this, "run_op"): "op"})

    setup_at = [args.seconds * (2 * j + 1) / (2 * SETUP_RUNS) for j in range(SETUP_RUNS)]
    setup: list[float] = []
    if args.mode == "plain":
        import_seconds()
    tally = Tally()
    times: list[list[float]] = [[] for _ in ops]
    verdicts: list[check.Verdict | None] = [None] * len(ops)
    digests: list[str | None] = [None] * len(ops)
    peak_kb = 0
    corpus_checks = [0, 0]
    self_check = None
    number = passes = 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < args.seconds:
        for index, op in enumerate(ops):
            while args.mode == "plain" and setup_at and time.perf_counter() - start >= setup_at[0]:
                setup_at.pop(0)
                setup.append(import_seconds())
            first = verdicts[index] is None
            if tracer:
                tracer.op = number
            number += 1
            result = in_child(measure, op, checker, tracer, first, self_check is None)
            times[index].append(result["elapsed"])
            peak_kb = max(peak_kb, result["peak_kb"])
            if tracer:
                tracer.absorb(result["trace"])
            if first:
                verdicts[index], digests[index] = result["verdict"], result["digest"]
            if "probe_failed" in result:
                self_check = result["probe_failed"]
            if "corpus_checks" in result:
                corpus_checks = [a + b for a, b in zip(corpus_checks, result["corpus_checks"])]
            if result["digest"] == digests[index]:
                tally.add(verdicts[index])
            else:
                tally.add(check.Verdict(problems=[f"{op.name}: output differs from its first run"]))
        passes += 1
    if args.mode == "plain":
        setup.extend(import_seconds() for _ in setup_at)

    # Each document counts once, with its median time over the run. On a
    # shared machine whose speed changes many times a second, that is
    # steadier from run to run than a best time, which depends on how many
    # fast spells one run happened to catch, or a mean, which one stalled
    # run of a short document can move (see README).
    median = {op.name: statistics.median(t) for op, t in zip(ops, times)}
    per_doc = sorted(median.values())
    slowest = max(median, key=median.get)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "passes": passes,
        "documents": len(ops),
        "busy_s": sum(map(sum, times)),
        "correct": bool(self_check) and "wrong_output" not in tally.kinds,
        "self_check": self_check,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "with_failure": tally.with_failure,
        "failures": dict(tally.kinds),
        "examples": tally.examples,
        "checks_passed": tally.checks,
        "ops_per_s": len(per_doc) / sum(per_doc),
        "latency_p50_ms": percentile(per_doc, 50) * 1000,
        "latency_tail_ms": median[slowest] * 1000,
        "tail": {"document": slowest, "documents": len(per_doc), "runs_each": passes},
        "documents_ms": {name: t * 1000 for name, t in sorted(median.items())},
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": statistics.median(setup) if setup else None,
        "setup_runs_s": setup,
        "env": environment(),
    }
    if tracer:
        graphs = passes * sum(op.graphs for op in ops)
        per_layer, inputs = tracing.per_layer(tracer, passes, graphs, core.BackendLimitError,
                                              tuple(corpus_checks))
        out = ROOT / "perfbench" / "results" / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(out)
        result.update(per_layer=per_layer, inputs=inputs, spans=len(tracer.spans),
                      trace_file=str(out.relative_to(ROOT)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
