#!/usr/bin/env python3
"""The repository benchmark: build the measuring program, run one workload.

    python3 perfbench/run.py --workload paper-csr --seed 7 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (the emst library from src/ plus the driver in perfbench/src) in
$CARGO_TARGET_DIR (default .bench_build); later runs reuse that build. The
program's report goes to standard output and its last line is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 1
the span trace is written under the build directory and its path printed.
The exit code is non-zero when the build fails, an output check fails, or
the run does not finish in time. perfbench/README.md describes the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper-csr", "implicit-lean", "ranks", "serve-churn")
RUN_TIMEOUT_S = 170  # the program must end well inside 180 s per run
BUILD_TIMEOUT_S = 880


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, bench_dir):
    """Configure (once) and build the measuring program; returns its path."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {root / 'src'}; run from a full checkout")
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = root / target_dir
    build_dir = target_dir / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "emst_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as exc:
                fail(f"build step {cmd[:2]} failed: {exc}", 3)
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log_path})", 3)
    return build_dir / "emst_perfbench"


def source_revision(root, bench_dir):
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in (root / "src", bench_dir):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "src-sha256-" + digest.hexdigest()[:16]


def declared_metrics(root, traced):
    """Metric names BENCHMARK.json declares for this kind of run, if any."""
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    ap.add_argument("--corrupt", action="store_true",
                    help="negative self-check: damage one verified tree")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    exe = build(root, bench_dir)

    cmd = [str(exe), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--quick={int(args.quick)}", f"--corrupt={int(args.corrupt)}",
           f"--commit={source_revision(root, bench_dir)}"]
    trace_path = None
    if args.trace:
        name = f"{args.workload}-seed{args.seed}.jsonl"
        trace_path = exe.parent / "traces" / name
        trace_path.parent.mkdir(exist_ok=True)
        cmd.append(f"--trace-out={trace_path}")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        fail(f"program printed nothing (exit {proc.returncode})", 4)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("\n".join(lines), file=sys.stderr)
        fail("last output line is not the JSON result", 4)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)} are not correct, attempted, "
             "failed and metrics", 4)
    declared = declared_metrics(root, bool(args.trace))
    if declared is not None and set(result["metrics"]) != declared:
        fail(f"metrics {sorted(set(result['metrics']) ^ declared)} differ "
             "from BENCHMARK.json", 4)

    print("\n".join(lines[:-1]))
    if trace_path is not None:
        print(f"trace {trace_path}")
    print(lines[-1], flush=True)
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
