#!/usr/bin/env python3
"""EVE end-to-end benchmark: builds eve_bench from this checkout and runs it.

    python3 e2ebench/run.py --workload {evolve|maintain|serve|all} --seed N \
        --seconds S --trace {0|1}

eve_bench (e2ebench/eve_bench.cc) is configured and built in Release mode
under $CARGO_TARGET_DIR (default .bench_build) in the checkout; build output
goes to stderr.  Its stdout is passed through, so the last line is
the result JSON.  `--workload all` runs the three workloads one after
another and exits non-zero if any of them fails.  Traced runs also write a
Chrome trace-event file, <build dir>/traces/<workload>.json.  See
e2ebench/METRICS.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("evolve", "maintain", "serve")
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2ebench"


def build():
    """Configures (once) and builds eve_bench; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no EVE source tree (CMakeLists.txt, src/)")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "eve_bench",
                  "-j", BUILD_JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return out / "eve_bench"


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this mode, or None."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(exe, workload, args):
    """Runs one workload, passes its output through; returns its exit code."""
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"eve_bench exceeded {RUN_TIMEOUT_S}s", code=124)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None  # eve_bench failed before printing a result.
    expected = declared_metrics(args.trace)
    if result is not None and expected is not None:
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        if printed != expected:
            # Print everything but the result line: a result that disagrees
            # with BENCHMARK.json must not be taken for a measurement.
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            fail(f"metrics differ from BENCHMARK.json: {sorted(set(printed) ^ set(expected))}"
                 " or their units", code=3)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    exe = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    sys.exit(max(run(exe, w, args) for w in workloads))


if __name__ == "__main__":
    main()
