#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace [0|1]] [--trace-out FILE] [--out FILE]

Configures and builds benchmark/ into build-bench/ (Release), then runs each
workload as its own bil_bench process, so peak_rss_mb is per workload. With
--trace it measures the per-layer metrics instead of the end-to-end ones and
writes the spans as JSONL (default: build-bench/trace/<workload>-seed<N>.jsonl).

Every metric is printed as `workload metric value unit`; the last line of
standard output is one JSON object. With --workload it holds exactly
`correct`, `attempted`, `failed` and `metrics`; without, one such entry per
workload. --out writes the full result (host, fingerprints, notes) that
benchmark/compare.py reads.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
BUILD = ROOT / "build-bench"
BINARY = BUILD / "bil_bench"
# One invocation must finish within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(width):
    """Configures (once) and builds bil_bench; tool output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT} (expected CMakeLists.txt and src/)")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bil_bench",
                  "-j", str(width)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def run_workload(name, seed, seconds, trace, trace_out, expect):
    command = [str(BINARY), f"--workload={name}", f"--seed={seed}",
               f"--seconds={seconds}"]
    if trace:
        command += ["--trace", f"--trace-out={trace_out}"]
    if expect:
        command.append(f"--expect-fingerprint={expect}")
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    if done.returncode != 0 or not lines:
        fail(f"{name} exited with code {done.returncode} and no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="timed seconds per workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--trace-out", help="spans JSONL (single workload)")
    parser.add_argument("--out", help="write the full result here")
    args = parser.parse_args()

    try:
        config = json.loads((ROOT / "BENCHMARK.json").read_text())
        baseline = json.loads((BENCH / "baseline.json").read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read the benchmark definition: {error}")
    names = [workload["name"] for workload in config["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload!r} (expected {'|'.join(names)})")
    seconds = args.seconds or config["run_seconds"]
    wanted = [m["name"] for m in
              (config["per_layer"] if args.trace else config["end_to_end"])]
    # The pass fingerprints recorded for the default seed: a change that
    # alters any checked output fails every op of the pass.
    expected = (baseline["fingerprints"]
                if args.seed == baseline["fingerprint_seed"] else {})

    width = min(4, os.cpu_count() or 1)
    build(width)
    (BUILD / "trace").mkdir(exist_ok=True)

    results = {}
    for name in [args.workload] if args.workload else names:
        trace_out = args.trace_out or str(
            BUILD / "trace" / f"{name}-seed{args.seed}.jsonl")
        result = run_workload(name, args.seed, seconds, args.trace, trace_out,
                              expected.get(name))
        if sorted(result["metrics"]) != sorted(wanted):
            fail(f"{name} reported metrics {sorted(result['metrics'])}, "
                 f"BENCHMARK.json lists {sorted(wanted)}")
        results[name] = result
        for metric in wanted:
            entry = result["metrics"][metric]
            note = f"  ({entry['note']})" if entry["note"] else ""
            print(f"{name} {metric} {entry['value']!r} {entry['unit']}{note}")
        print(f"{name} correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']} "
              f"fingerprint={result['fingerprint']}"
              + (f" spans={trace_out} probed_layers="
                 f"{','.join(result['probed_layers']) or 'none'}"
                 if args.trace else ""))

    if args.out:
        first = next(iter(results.values()))
        document = {
            "seed": args.seed,
            "seconds": seconds,
            "trace": bool(args.trace),
            "host": {"nproc": os.cpu_count(), "width": first["width"],
                     "compiler": first["compiler"],
                     "build_type": first["build_type"]},
            "workloads": results,
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")

    def summary(result):
        return {"correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": entry["value"],
                                   "unit": entry["unit"]}
                            for name, entry in result["metrics"].items()}}

    if args.workload:
        print(json.dumps(summary(results[args.workload])))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": {name: summary(r) for name, r in results.items()},
        }))


if __name__ == "__main__":
    main()
