#!/usr/bin/env python3
"""Benchmark of the tridet identity verifier, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, closed loop: each operation starts when the one
before it has ended.  The workload's pass (a list of operations built from
the seed) is repeated until the timed operations add up to --seconds, and
always ends on a whole pass.  Every output is checked outside the timed
region; a wrong output, an exception or an unexpected exit code counts as a
failed operation and never stops the run.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes over the same inputs and reports the per-layer metrics: calls
per pass, each layer's self time as a share of the traced operation time,
and the tracing overhead.  Spans of the traced run are written to
.bench_trace/ in the checkout (those of the first traced pass).

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  failed counts every
operation that did not pass its check; correct is false when a check found a
wrong output, while the recorded failure of a known defect counts in failed
and leaves correct true.  Exit code 2 means the benchmark could not run (for
example, no tridet sources in the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from typing import Dict, List

import tracer as tracing
import workloads as W

# set up at least this many times, and until set-up has taken this long in all
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
PROBES = 5
_clock = time.perf_counter


class Tally:
    """Timed durations and check verdicts of the operations of one mode."""

    def __init__(self) -> None:
        self.durations: List[float] = []
        self.verdicts: Counter = Counter()

    @property
    def timed_s(self) -> float:
        return sum(self.durations)

    @property
    def failed(self) -> int:
        return len(self.durations) - self.verdicts[W.OK]


def _check(op: W.Op, raw) -> str:
    if isinstance(raw, Exception):
        return W.WRONG
    try:
        return op.check(raw)
    except Exception:
        traceback.print_exc()
        return W.WRONG


def _run_op(op: W.Op, tracer):
    """Run one operation; return (seconds, raw output or the exception)."""
    t0 = _clock()
    try:
        raw = op.run(tracer)
    except Exception as exc:
        traceback.print_exc()
        raw = exc
    return _clock() - t0, raw


def run_pass(work: W.Workload, tally: Tally, tracer=None) -> None:
    """One pass over the workload's operations; with a tracer, traced and then uninstalled."""
    outputs = []
    for op in work.ops:
        root = tracer.begin("op") if tracer is not None else None
        seconds, raw = _run_op(op, tracer)
        if root is not None:
            tracer.end(root)
        tally.durations.append(seconds)
        if tracer is None:
            tally.verdicts[_check(op, raw)] += 1
        else:
            if isinstance(raw, W.CliResult):
                tracer.counts["cli.output_bytes"] += len(raw.out)
            outputs.append((op, raw))
    if tracer is not None:
        # check after uninstalling, so the checks' own calls are not traced
        tracer.uninstall()
        for op, raw in outputs:
            tally.verdicts[_check(op, raw)] += 1


def setup(name: str, seed: int):
    """Import tridet, build the workload's inputs and run one untimed warm-up op."""
    T = W.fresh_import()
    work = W.WORKLOADS[name](T, seed)
    _, raw = _run_op(work.warmup, None)
    if _check(work.warmup, raw) == W.WRONG:
        print("warning: warm-up operation %r failed its check" % work.warmup.label, file=sys.stderr)
    return T, work


def peak_rss_mb(work: W.Workload) -> float:
    who = resource.RUSAGE_CHILDREN if work.rss_of == "children" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(name: str, seed: int, seconds: float) -> tuple:
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        t0 = _clock()
        _, work = setup(name, seed)
        setups.append(_clock() - t0)
    tally = Tally()
    while True:
        run_pass(work, tally)
        if tally.timed_s >= seconds:
            break
    ok = tally.verdicts[W.OK]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(tally.durations), "s"),
        "ops_per_s": (ok / tally.timed_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(work), "MB"),
    }
    attempted = len(tally.durations)
    print("set-ups %d, ops %d (%d per pass), timed %.3f s"
          % (len(setups), attempted, len(work.ops), tally.timed_s))
    if attempted >= 100:
        print("op_p90_s %.6f s" % statistics.quantiles(tally.durations, n=10)[-1])
    else:
        print("op_p90_s not reported: fewer than 100 ops")
    print("failed_ratio %.6f (%d of %d; %d known defect)"
          % (tally.failed / attempted, tally.failed, attempted, tally.verdicts[W.KNOWN]))
    if work.rss_of == "children":
        # a child's peak includes its parent's peak at spawn time, so this is a floor
        print("benchmark process peak %.1f MB" % (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))
    return tally, metrics


def _probe(argv: List[str]) -> float:
    t0 = _clock()
    subprocess.run(argv, cwd=W.ROOT, env=W.child_env(), check=True, capture_output=True,
                   timeout=W.CHILD_TIMEOUT_S)
    return _clock() - t0


def startup_probes() -> Dict[str, float]:
    """Bare interpreter start, and `import tridet.cli` timed inside a fresh process."""
    startup = [_probe([sys.executable, "-c", "pass"]) for _ in range(PROBES)]
    imports = []
    os.makedirs(W.TRACE_DIR, exist_ok=True)
    out_path = os.path.join(W.TRACE_DIR, "probe-%d.json" % os.getpid())
    for _ in range(PROBES):
        _probe([sys.executable, os.path.join(W.HERE, "child.py"), out_path, "--import-only"])
        with open(out_path) as fh:
            imports.append(json.load(fh)["import_s"])
        os.remove(out_path)
    return {"interp.startup_s": statistics.median(startup), "cli.import_s": statistics.median(imports)}


def per_layer(name: str, seed: int, seconds: float) -> tuple:
    T, work = setup(name, seed)
    tracer = tracing.Tracer()
    plain, traced = Tally(), Tally()
    first_pass_counts = None
    self_s: Counter = Counter()
    while True:
        run_pass(work, plain)
        tracer.install(T)
        run_pass(work, traced, tracer)
        if first_pass_counts is None:
            first_pass_counts = Counter(tracer.counts)
            os.makedirs(W.TRACE_DIR, exist_ok=True)
            tracer.write_spans(os.path.join(W.TRACE_DIR, "%s.spans.jsonl" % name))
        self_s.update(tracer.self_seconds())
        tracer.reset()
        if plain.timed_s + traced.timed_s >= seconds:
            break
    traced_s = traced.timed_s
    metrics = {}
    for layer, count in tracing.LAYERS:
        metrics["%s.%s" % (layer, count)] = (first_pass_counts[layer + "." + count], "count")
        metrics[layer + ".self_pct"] = (100.0 * self_s[layer] / traced_s, "%")
    for key, unit in tracing.EXTRA_COUNTS:
        metrics[key] = (first_pass_counts[key], unit)
    for key, value in startup_probes().items():
        metrics[key] = (value, "s")
    traced_p50 = statistics.median(traced.durations)
    metrics["trace.op_p50_s"] = (traced_p50, "s")
    metrics["trace.overhead_ratio"] = (traced_p50 / statistics.median(plain.durations), "ratio")
    print("traced passes %d, untraced op_p50_s %.6f s, traced op_p50_s %.6f s"
          % (len(traced.durations) // len(work.ops), statistics.median(plain.durations), traced_p50))
    tally = Tally()
    tally.durations = plain.durations + traced.durations
    tally.verdicts = plain.verdicts + traced.verdicts
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(W.SRC, "tridet", "__init__.py")):
        print("error: no tridet sources under %s" % W.SRC, file=sys.stderr)
        return 2
    print("workload %s seed %d seconds %g trace %d" % (args.workload, args.seed, args.seconds, args.trace))
    print("python %s, nproc %d, int_max_str_digits %d"
          % (sys.version.split()[0], len(os.sched_getaffinity(0)), sys.get_int_max_str_digits()))
    measure = per_layer if args.trace else end_to_end
    tally, metrics = measure(args.workload, args.seed, args.seconds)
    for key, (value, unit) in metrics.items():
        print("%s %r %s" % (key, value, unit))
    result = {
        "correct": tally.verdicts[W.WRONG] == 0,
        "attempted": len(tally.durations),
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
