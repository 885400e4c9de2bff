#!/usr/bin/env python3
"""Self-test of the repository benchmark, on short runs.

    python3 repobench/selftest.py [path/to/repobench]

Without a path it builds the benchmark the way run.py does.  It checks that

  * every metric BENCHMARK.json declares is printed, by name and with its
    unit, untraced (end-to-end) and traced (per-layer), on every workload;
  * the correctness oracles pass and no client op fails;
  * fleet_churn's sim-clock metrics and content digest are identical at
    one worker thread and at the benchmark's thread count;
  * two seeds give different content digests.

Exits non-zero on the first failed check.
"""

import json
import pathlib
import re
import subprocess
import sys

import run

SIM_CLOCK = ["read_p50_ms", "read_p99_ms", "write_p50_ms", "write_p99_ms",
             "stale_read_frac", "msgs_per_op", "bytes_per_op"]


def drive(binary, workload, seed, trace, *extra):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--short", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd)}: exit {proc.returncode}\n"
                 f"{proc.stdout}")
    return proc.stdout


def check(cond, what):
    if not cond:
        sys.exit(f"FAIL {what}")
    print(f"ok   {what}")


def parse(out):
    lines = out.rstrip("\n").splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines:
        m = re.match(r"metric (\S+)\s+(\S+) (\S+)$", line)
        if m:
            printed[m.group(1)] = m.group(3)
    digest = re.search(r"^deployment digests: ([0-9a-f ]+)$", out,
                       re.M).group(1).split()
    threads = re.search(r'"fleet_threads": (\d+)', out).group(1)
    return result, printed, digest, threads


def main():
    if len(sys.argv) > 1:
        binary = pathlib.Path(sys.argv[1])
    else:
        binary = run.build(run.build_dir())
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    digests = {}
    sim = {}
    for w in [w["name"] for w in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = drive(binary, w, 1, trace)
            result, printed, digest, threads = parse(out)
            want = {m["name"]: m["unit"] for m in spec[section]}
            check(printed == want and not run.check_result(
                out.rstrip("\n").splitlines()[-1], trace),
                  f"{w} trace={trace}: every {section} metric printed with "
                  f"its unit")
            check(result["correct"] and " 0 problems" in out,
                  f"{w} trace={trace}: oracles pass")
            check(result["failed"] == 0 and result["attempted"] > 0,
                  f"{w} trace={trace}: {result['attempted']} ops, none failed")
            if trace == 0:
                digests[w] = digest
                sim[w] = {k: result["metrics"][k]["value"] for k in SIM_CLOCK}
            else:
                check(digest == digests[w][:len(digest)],
                      f"{w}: traced repetitions have the untraced digests")
        other = parse(drive(binary, w, 2, 0))[2]
        check(not set(other) & set(digests[w]),
              f"{w}: seeds 1 and 2 give different digests")

    result, _, digest, _ = parse(drive(binary, "fleet_churn", 1, 0,
                                       "--threads", "1"))
    one = {k: result["metrics"][k]["value"] for k in SIM_CLOCK}
    check(digest == digests["fleet_churn"] and one == sim["fleet_churn"],
          f"fleet_churn: digest and sim-clock metrics at 1 thread equal "
          f"those at {threads}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
