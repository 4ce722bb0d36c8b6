"""balex benchmark: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload {scale,audit,verify} --seed N \
        --seconds S --trace {0,1}

Run from a checkout that holds `src/balex`.  The seed fixes the market
documents; the run cycles through them in order for S seconds, checks every
output outside the timed region, and prints one JSON object as its last line:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  Exit code 2 means the library could not be found or a self-check
failed; no result is printed then.  See perfbench/README.md.
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

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
# Fresh-interpreter set-up samples, taken half before and half after the
# timed loop so that one run's median spans more of the host's slow and fast
# spells.
SETUP_SAMPLES = (6, 5)
MIN_OPS = 100


def setup_samples(docs: list[str], count: int) -> list[float]:
    """Seconds to import balex and load the documents, each in a fresh interpreter."""
    payload = "\n".join(docs)
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(probe), str(SRC)],
            input=payload, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def timed_loop(workload, items: list, seconds: float, tracer=None) -> tuple[list[float], list, int]:
    """Run operations on items[0], items[1], ... (cyclically) for `seconds`.

    Returns the latency of each successful operation in seconds, the outputs
    in order (None for a failed operation) and the number that failed.
    """
    op = workload.op
    if tracer is not None:
        op = tracer.wrap("bench.op", op)
    latencies, outputs, failed = [], [], 0
    clock = time.perf_counter
    deadline = clock() + seconds
    k = 0
    while True:
        item = items[k % len(items)]
        start = clock()
        try:
            out = op(item)
        except Exception:  # an operation that raises counts as failed; the run goes on
            failed += 1
            out = None
            if failed == 1:
                traceback.print_exc()
        else:
            latencies.append(clock() - start)
        outputs.append(out)
        k += 1
        if clock() >= deadline:
            return latencies, outputs, failed


def check_outputs(workload, items: list, outputs: list) -> list[str]:
    """Problems in the outputs: each market's first output is checked, every
    later output of the same market must equal it."""
    problems = workload.once()
    first: dict[int, object] = {}
    for k, out in enumerate(outputs):
        if out is None:
            continue
        j = k % len(items)
        if j not in first:
            first[j] = out
            problems += [f"market {j}: {p}" for p in workload.check(items[j], out)]
        elif out != first[j]:
            problems.append(f"market {j}: output differs between repeats")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.POOL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "balex" / "__init__.py").is_file():
        print(f"error: no balex package under {SRC}", file=sys.stderr)
        return 2
    docs = inputs.make_docs(args.workload, args.seed)
    setup = [] if args.trace else setup_samples(docs, SETUP_SAMPLES[0])

    sys.path.insert(0, str(SRC))
    import balex
    import tracer as tracing
    import workloads

    if Path(balex.__file__).resolve().parent != SRC / "balex":
        print(f"error: imported balex from {balex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        sites, uninstall = tracing.install(tracer)
        tracer.recording = True
    markets = workloads.load(docs)
    load_spans = (0, len(tracer.name)) if tracer else None
    if tracer is not None:
        tracer.recording = False
    items = [workload.prepare(m) for m in markets]
    if tracer is not None:
        tracer.recording = True
    timed_from = len(tracer.name) if tracer else 0
    loop_start = time.perf_counter()
    latencies, outputs, failed = timed_loop(workload, items, args.seconds, tracer)
    elapsed = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.recording = False
        timed_spans = (timed_from, len(tracer.name))
        uninstall()

    if not args.trace:
        setup += setup_samples(docs, SETUP_SAMPLES[1])

    attempted = len(outputs)
    if len(latencies) < MIN_OPS:
        print(f"error: {len(latencies)} of {attempted} operations succeeded in {args.seconds} s; "
              f"a 90th percentile needs at least {MIN_OPS}", file=sys.stderr)
        return 2
    deciles = statistics.quantiles(latencies, n=10)
    p50_ms, p90_ms = deciles[4] * 1e3, deciles[8] * 1e3
    if not p90_ms >= p50_ms:
        print(f"error: op_p90_ms {p90_ms} below op_p50_ms {p50_ms}", file=sys.stderr)
        return 2

    problems = check_outputs(workload, items, outputs)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "ops_per_s": (len(latencies) / elapsed, "1/s"),
            "op_p50_ms": (p50_ms, "ms"),
            "op_p90_ms": (p90_ms, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracing.layer_metrics(tracer, load_spans, timed_spans, attempted)
        metrics["bench.traced_op_p50_ms"] = (p50_ms, "ms")
        tracer.write(
            RESULTS / f"{args.workload}-trace",
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "operations": attempted, "patched_sites": sites,
             "metrics": {k: v for k, (v, _) in metrics.items()}},
        )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"{args.workload}: {attempted} operations, {failed} failed, "
          f"{len(problems)} check problems", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
