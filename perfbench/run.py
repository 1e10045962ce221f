"""halfder benchmark: answer a workload's seeded questions and time them.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 44 --trace 0

Runs from the root of a source checkout and imports halfder from its
src/ directory, so it needs no install step.  One invocation is one
process for one workload; it answers the questions in order, on one
thread, through halfder's public entry points, checks every answer
against the known value from the papers, and prints the metrics.  The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs half the rounds
untraced and half traced and reports the per-layer metrics (see
perfbench/README.md).  Per-question times and spans are written under
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

import questions  # noqa: E402  (the benchmark's own module, next to this file)

# Seconds one round over each workload's questions took at the parent
# commit of the benchmark (Python 3.11.7, 2 shared Xeon cores).  --seconds
# buys whole rounds at these fixed rates, never at measured ones, so a run
# asks the same questions on every commit and only its length changes.
ROUND_SECONDS = {"solve-super": 16.0, "solve-family": 11.0, "scan": 15.0}
SETUP_SAMPLES = 5


def _parse_args(argv):
    p = argparse.ArgumentParser(description="halfder benchmark")
    p.add_argument("--workload", required=True, choices=questions.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the measured run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="a few small questions, for the self-test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int, tiny: bool):
    """Import halfder and generate the questions; (questions, seconds taken)."""
    start = time.perf_counter()
    import ask  # noqa: F401  (imports halfder)

    qs = questions.generate(workload, seed, tiny)
    return qs, time.perf_counter() - start


def _setup_probe(args) -> float:
    """Setup time of a fresh interpreter, as this process paid it."""
    argv = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--setup-only"] + (["--tiny"] if args.tiny else [])
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.split()[-1])


def run_rounds(qs, rounds: int, after_question=None):
    """Ask every question once per round; (per-question times, failures)."""
    import ask

    times, failures = [], []
    for _ in range(rounds):
        for q in qs:
            start = time.perf_counter()
            try:
                answer = ask.ask(q)
            except Exception:  # a question that raises is a failed answer, not a crash
                answer, wrong = None, [traceback.format_exc(limit=3)]
            times.append(time.perf_counter() - start)
            if after_question is not None:
                after_question()
            if answer is not None:
                try:
                    wrong = ask.check(q, answer)
                except Exception:  # an answer the check cannot read is a wrong answer
                    wrong = [traceback.format_exc(limit=3)]
            if wrong:
                failures.append((q.label, "; ".join(wrong)))
    return times, failures


def tail(times):
    """(value, percentile, samples) at the highest percentile with at
    least ten samples above it; the minimum when there are too few."""
    ordered = sorted(times)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "halfder" / "__init__.py").is_file():
        print(f"error: no halfder sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    qs, own_setup = setup(args.workload, args.seed, args.tiny)
    if args.setup_only:
        print(own_setup)
        return 0
    setup_samples = [own_setup] + [_setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]

    rounds = max(1, int(args.seconds // ROUND_SECONDS[args.workload]))
    if args.trace:
        from spans import METRICS, Tracer

        half = max(1, rounds // 2)
        times, failures = run_rounds(qs, half)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_failures = run_rounds(qs, half, tracer.question_done)
        finally:
            tracer.uninstall()
        failures += traced_failures
        attempted = len(times) + len(traced)
        overhead = (len(traced) / sum(traced)) / (len(times) / sum(times))
        values = tracer.metrics(half, overhead)
        absent = [name for name, v in values.items() if v is None]
        metrics = {n: {"value": v, "unit": METRICS[n]} for n, v in values.items() if v is not None}
        tracer.write(RESULTS / f"{args.workload}-seed{args.seed}-spans.json")
        rref_share = values["solver.rref_s"] / (sum(traced) / half) if values["solver.rref_s"] else 0.0
        summary = [
            f"traced rounds={half} untraced rounds={half} spans={len(tracer.spans)}",
            f"tracing overhead: traced/untraced questions_per_s = {overhead:.3f}",
            f"solver.rref_s share of traced question time = {rref_share:.3f}",
        ]
        if absent:
            summary.append(f"absent (wrapped name no longer exists): {', '.join(absent)}")
    else:
        times, failures = run_rounds(qs, rounds)
        traced = []
        attempted = len(times)
        tail_s, tail_pct, tail_n = tail(times)
        metrics = {
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        }
        # The timings below are printed, not gated: on shared cores whose clock
        # changes for minutes at a time, their spread over seeds is wider than
        # any bound BENCHMARK.json may set (see README.md).
        summary = [
            f"questions_per_s = {len(times) / sum(times):.4f} 1/s",
            f"question_p50_s = {statistics.median(times):.4f} s over {len(times)} samples",
            f"question_tail_s = {tail_s:.4f} s at p{tail_pct:.1f} of {tail_n} samples",
            f"setup_s samples = {[round(s, 4) for s in setup_samples]}",
        ]

    for label, why in failures:
        print(f"FAILED {label}: {why}", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "labels": [q.label for q in qs],
        "times": times,
        "traced_times": traced,
        "setup": setup_samples,
        "failures": failures,
    }))
    print(f"halfder benchmark: workload={args.workload} seed={args.seed} questions={len(qs)} "
          f"rounds={rounds} trace={args.trace}")
    print(f"attempted={attempted} failed={len(failures)} failed_share={len(failures) / attempted:.4f}")
    for line in summary:
        print(line)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
