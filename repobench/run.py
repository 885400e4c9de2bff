#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds the
benchmark (an optimised build of the library sources plus the program in
repobench/src) under $CARGO_TARGET_DIR (default .bench_build); later runs
reuse it.  Build output goes to stderr.  The program's output is passed
through, and its last line is the JSON result; with --trace 1 the Chrome
trace of the traced repetition is written to .bench_out/.

The run fails (non-zero exit, no result line) when the build fails, the
program fails, or its result does not name exactly the metrics that
BENCHMARK.json declares, with their units.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def jobs():
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return str(max(1, min(4, n)))


def build(build_dir):
    """Configure (once) and build; returns the benchmark binary's path."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs()],
                   check=True, stdout=sys.stderr)
    return build_dir / "repobench"


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    return target / "repobench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Problems with the result line (empty list when it is fine)."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    if set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}"]
    want = declared_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    problems = []
    for name in sorted(set(want) | set(got)):
        if want.get(name) != got.get(name):
            problems.append(f"metric {name}: declared unit {want.get(name)}, "
                            f"printed unit {got.get(name)}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build(build_dir())
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = pathlib.Path.cwd() / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(out_dir / f"trace-{args.workload}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        # The program prints a result line only when it succeeds.
        sys.stdout.write(proc.stdout)
        print(f"run.py: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 1
    problems = check_result(lines[-1], args.trace)
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        for p in problems:
            print(f"run.py: {p}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
