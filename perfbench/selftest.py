#!/usr/bin/env python3
"""The benchmark's own tests, in quick mode (tiny sizes, about a minute).

    python3 perfbench/selftest.py

Run from the repository root. Checks that every workload runs with and
without tracing and reports exactly the metrics BENCHMARK.json declares,
that one seed gives the same inputs twice, that a corrupted tree is counted
as failed and makes the command exit non-zero, and that a directory
without the library sources fails cleanly without printing a result.
Exits non-zero on the first failed check.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("paper-csr", "implicit-lean", "ranks", "serve-churn")
COUNTS = ("topology.edges", "ghs.messages", "eopt.messages", "connt.messages")


def run(workload, seed, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--quick", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, result


def expect(cond, what):
    if not cond:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for w in WORKLOADS:
            proc, res = run(w, 5, trace)
            expect(proc.returncode == 0 and res is not None and res["correct"]
                   and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{w} --trace {trace} runs and passes its checks")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == declared, f"{w} --trace {trace} reports the "
                   "declared metrics with their units")
            values = [v["value"] for v in res["metrics"].values()]
            expect(all(math.isfinite(v) for v in values),
                   f"{w} --trace {trace} values are finite")
            if trace == 0:
                expect(all(v > 0 for v in values),
                       f"{w} end-to-end metrics are non-zero")

    _, a = run("paper-csr", 9, 1)
    _, b = run("paper-csr", 9, 1)
    expect(all(a["metrics"][c]["value"] == b["metrics"][c]["value"]
               for c in COUNTS), "one seed gives the same inputs twice")

    for w in ("paper-csr", "serve-churn"):
        proc, res = run(w, 5, 0, "--corrupt")
        expect(proc.returncode != 0 and res is not None
               and not res["correct"] and res["failed"] > 0,
               f"{w}: a corrupted tree is counted as failed, exit non-zero")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, res = run("paper-csr", 5, 0, cwd=bare)
        expect(proc.returncode != 0 and res is None,
               "without library sources: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    main()
