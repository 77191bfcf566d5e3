#!/usr/bin/env python3
"""Validate tracked BENCH_*.json records (shared by bench_perf.sh,
reproduce_all.sh and CI).

    scripts/validate_bench.py BENCH_file.json [more.json ...]

Every tracked perf/quality record at the repo root goes through the same
gate before it can be committed: the file must parse, match the schema its
producing bench writes, and — where the record embeds a self-check — that
check must have passed. A truncated, half-written or silently-failing
artifact committed as a tracked record would poison the trajectory the
repo's BENCH files exist to show.

Known records (matched by filename):
  BENCH_sim.json        google-benchmark output of bench/perf_sim;
                        `repo_build_type` (stamped by bench_perf.sh) must be
                        Release — the upstream `context.library_build_type`
                        describes the system libbenchmark, not this repo
  BENCH_dist.json       distributed-engine (rank processes) scaling;
                        `identical` must be true and every rank run's
                        bytes-on-wire must strictly exceed its codec
                        payload (frames really crossed a socket)
  BENCH_faults.json     loss-sweep energy overhead of ARQ over lossy links
  BENCH_chaos.json      adversarial chaos campaign (drivers x strategies);
                        every cell's `exact` must be 1.0 (the fail-stop
                        per-component exactness contract) with zero
                        oracle violations
  BENCH_telemetry.json  observer cost of the telemetry sinks;
                        `energy_identical` must be true
  BENCH_wire.json       max/mean encoded message size vs c*log2(n);
                        `all_within_bound` must be true and every sweep row
                        must respect its bound
  BENCH_scale.json      memory/scale sweep of the topology backends; the
                        host's `hardware_concurrency` must be stamped, every
                        completed row must carry peak RSS, the n grid must be
                        strictly increasing per (algo, backend), and where
                        both backends ran the results must be `identical`,
                        re-checked row by row (equal energy and tree_edges)
  BENCH_serve.json      serve-session mutation throughput;
                        `incremental_exact` must be true (every verified
                        commit equalled kruskal_msf), requests/sec must be
                        present and positive, and the incremental repair
                        must actually be local (mean nodes touched per
                        incremental commit well under the deployment size)

Records carrying `"untracked": true` (produced by a non-Release build via
the --allow-debug override) are refused unless --allow-untracked is passed:
they exist for local inspection, never for committing.

Unknown BENCH files fail loudly: add a schema here when adding a record.
Exit status 0 iff every file passes. Standard library only.
"""
from __future__ import annotations

import json
import os
import sys


def fail(path: str, message: str) -> None:
    print(f"{path}: error: {message}", file=sys.stderr)
    raise SystemExit(1)


def require(path: str, record: dict, fields: tuple[str, ...],
            where: str = "record") -> None:
    for field in fields:
        if field not in record:
            fail(path, f"{where} is missing {field!r}")


def check_sim(path: str, doc: dict) -> str:
    require(path, doc, ("context", "benchmarks", "repo_build_type"))
    # google-benchmark's own context.library_build_type describes the system
    # libbenchmark, not this repo; bench_perf.sh stamps the build type that
    # actually matters. Only the --allow-debug override may be non-Release.
    if doc["repo_build_type"].lower() != "release" \
            and doc.get("untracked") is not True:
        fail(path, f"repo_build_type {doc['repo_build_type']!r} is not "
                   "Release and the record is not marked untracked")
    benches = doc["benchmarks"]
    if not benches:
        fail(path, "no benchmark entries")
    for bench in benches:
        require(path, bench, ("name", "real_time", "cpu_time", "iterations"),
                where=f"benchmark {bench.get('name', '?')!r}")
        if bench.get("run_type", "iteration") == "iteration" \
                and bench["iterations"] <= 0:
            fail(path, f"benchmark {bench['name']!r} ran 0 iterations")
    return f"{len(benches)} benchmark entries"


def check_dist(path: str, doc: dict) -> str:
    require(path, doc, ("hardware_concurrency", "nodes", "trials", "seed",
                        "identical", "scenarios"))
    if doc["identical"] is not True:
        fail(path, "distributed engine diverged from the serial engine "
                   "(identical != true) — this record must never be "
                   "committed")
    if not doc["scenarios"]:
        fail(path, "no scenarios")
    rank_runs = 0
    for scenario in doc["scenarios"]:
        require(path, scenario, ("messages", "serial_ms", "distributed"),
                where="scenario")
        if not scenario["distributed"]:
            fail(path, f"messages={scenario['messages']}: no rank counts "
                       "recorded")
        for run in scenario["distributed"]:
            require(path, run,
                    ("ranks", "mean_ms", "slowdown_vs_serial",
                     "wire_bytes_sent", "wire_bytes_received",
                     "payload_bytes"),
                    where=f"messages={scenario['messages']} rank record")
            where = (f"messages={scenario['messages']} "
                     f"ranks={run.get('ranks', '?')}")
            if run["ranks"] < 1:
                fail(path, f"{where}: ranks must be >= 1")
            if run["mean_ms"] <= 0:
                fail(path, f"{where}: mean_ms must be positive")
            # The wire-reality contract: frames cross a real socket with
            # headers and fingerprints, so bytes-on-wire must strictly
            # exceed the raw codec payload they carry. Only assertable when
            # at least one message crossed a rank boundary — a run whose
            # codec traffic never left the parent legitimately records
            # payload_bytes == 0.
            if run["payload_bytes"] > 0:
                if not run["payload_bytes"] < run["wire_bytes_sent"]:
                    fail(path, f"{where}: payload_bytes "
                               f"{run['payload_bytes']} not below "
                               f"wire_bytes_sent {run['wire_bytes_sent']} — "
                               "frames did not cross a real wire")
            if run["wire_bytes_received"] <= 0:
                fail(path, f"{where}: wire_bytes_received must be positive")
            rank_runs += 1
    return (f"{len(doc['scenarios'])} scenarios x {rank_runs} rank runs, "
            "bitwise identical")


def check_faults(path: str, doc: dict) -> str:
    require(path, doc, ("n", "trials", "seed", "arq", "baseline", "sweep"))
    if not doc["sweep"]:
        fail(path, "empty loss sweep")
    for row in doc["sweep"]:
        require(path, row, ("loss", "eopt", "ghs"), where="sweep row")
    return f"{len(doc['sweep'])} loss points"


def check_chaos(path: str, doc: dict) -> str:
    require(path, doc, ("n", "trials", "seed", "max_kill_fraction",
                        "campaign"))
    if not doc["campaign"]:
        fail(path, "empty campaign")
    if not 0 < doc["max_kill_fraction"] <= 1:
        fail(path, f"max_kill_fraction {doc['max_kill_fraction']} outside "
                   "(0, 1]")
    for cell in doc["campaign"]:
        require(path, cell, ("driver", "strategy", "survival", "exact",
                             "energy_overhead", "kills", "epochs",
                             "oracle_violations"), where="campaign cell")
        where = f"{cell.get('driver', '?')} x {cell.get('strategy', '?')}"
        if not 0 <= cell["survival"] <= 1:
            fail(path, f"{where}: survival {cell['survival']} outside "
                       "[0, 1]")
        if cell["survival"] < 1 - doc["max_kill_fraction"] - 1e-9:
            fail(path, f"{where}: survival {cell['survival']} below the "
                       "kill-budget floor — a strategy exceeded its budget")
        if cell["exact"] != 1.0:
            # The graceful-degradation contract: every trial must end with
            # the exact MST of each surviving component. A record violating
            # it must never be committed.
            fail(path, f"{where}: exact {cell['exact']} != 1.0 — the "
                       "per-component exactness contract failed")
        if cell["oracle_violations"] != 0:
            fail(path, f"{where}: {cell['oracle_violations']} oracle "
                       "violations — a corrupt run must never be committed")
        if cell["epochs"] < 1:
            fail(path, f"{where}: epochs {cell['epochs']} < 1")
        if cell["energy_overhead"] <= 0:
            fail(path, f"{where}: energy_overhead must be positive")
    return f"{len(doc['campaign'])} cells, all exact, oracle silent"


def check_telemetry(path: str, doc: dict) -> str:
    require(path, doc, ("n", "trials", "seed", "energy_identical",
                        "workloads"))
    if doc["energy_identical"] is not True:
        fail(path, "telemetry observers changed the energy figure "
                   "(energy_identical != true)")
    if not doc["workloads"]:
        fail(path, "no workloads")
    for workload in doc["workloads"]:
        require(path, workload, ("workload", "off"), where="workload")
    return f"{len(doc['workloads'])} workloads, observers energy-neutral"


def check_wire(path: str, doc: dict) -> str:
    require(path, doc, ("seed", "c_bound", "all_within_bound", "sweep"))
    if doc["all_within_bound"] is not True:
        fail(path, "a message exceeded the c*log2(n) bound "
                   "(all_within_bound != true)")
    if not doc["sweep"]:
        fail(path, "empty deployment sweep")
    algos = 0
    for row in doc["sweep"]:
        require(path, row, ("n", "edges", "bound_bits", "algos"),
                where="sweep row")
        if not row["algos"]:
            fail(path, f"n={row['n']}: no algorithms recorded")
        for sample in row["algos"]:
            require(path, sample,
                    ("algo", "frames", "max_bits", "mean_bits",
                     "within_bound"),
                    where=f"n={row['n']} algo record")
            if sample["frames"] <= 0:
                fail(path, f"n={row['n']} {sample['algo']}: no frames "
                           "charged — the wire measurement saw nothing")
            if sample["max_bits"] > row["bound_bits"]:
                fail(path, f"n={row['n']} {sample['algo']}: max_bits "
                           f"{sample['max_bits']} exceeds the bound "
                           f"{row['bound_bits']:.1f}")
            if sample["within_bound"] is not True:
                fail(path, f"n={row['n']} {sample['algo']}: within_bound "
                           "is false")
            if not 0 < sample["mean_bits"] <= sample["max_bits"]:
                fail(path, f"n={row['n']} {sample['algo']}: mean_bits "
                           f"{sample['mean_bits']} outside (0, max_bits]")
            algos += 1
    return f"{len(doc['sweep'])} deployment sizes x {algos} records in bound"


def check_scale(path: str, doc: dict) -> str:
    require(path, doc, ("bench", "build_type", "hardware_concurrency",
                        "seed", "mem_budget_bytes", "identical", "rows"))
    if doc["identical"] is not True:
        fail(path, "the two topology backends diverged (identical != true) "
                   "— this record must never be committed")
    rows = doc["rows"]
    if not rows:
        fail(path, "no sweep rows")
    completed = 0
    grids: dict[tuple[str, str], list[int]] = {}
    results: dict[tuple[str, int], dict[str, tuple]] = {}
    for row in rows:
        require(path, row, ("algo", "backend", "n", "status"),
                where="sweep row")
        where = f"{row['algo']}/{row['backend']} n={row['n']}"
        grids.setdefault((row["algo"], row["backend"]), []).append(row["n"])
        if row["status"] == "ok":
            # peak_rss_bytes is the record's reason to exist: a completed
            # row without it is a broken measurement, not a smaller one.
            require(path, row, ("wall_ms", "peak_rss_bytes", "energy",
                                "tree_edges"), where=where)
            if row["peak_rss_bytes"] <= 0:
                fail(path, f"{where}: peak_rss_bytes must be positive")
            if row["wall_ms"] <= 0:
                fail(path, f"{where}: wall_ms must be positive")
            results.setdefault((row["algo"], row["n"]), {})[row["backend"]] = \
                (row["energy"], row["tree_edges"])
            completed += 1
        elif row["status"] == "skipped":
            require(path, row, ("projected_bytes",), where=where)
            if row["projected_bytes"] <= doc["mem_budget_bytes"]:
                fail(path, f"{where}: skipped but projected_bytes within "
                           "budget — the skip is unjustified")
        else:
            fail(path, f"{where}: status {row['status']!r} — a failed run "
                       "must never be committed as a tracked record")
    if completed == 0:
        fail(path, "no completed rows")
    # Recompute the backend identity from the rows rather than trusting the
    # flag alone: wherever both backends completed one (algo, n), energy and
    # tree size must be equal.
    for (algo, n), by_backend in results.items():
        mat = by_backend.get("materialized")
        imp = by_backend.get("implicit")
        if mat is not None and imp is not None and mat != imp:
            fail(path, f"{algo} n={n}: materialized (energy, tree_edges) "
                       f"{mat} != implicit {imp} although identical is true")
    for (algo, backend), ns in grids.items():
        if any(b <= a for a, b in zip(ns, ns[1:])):
            fail(path, f"{algo}/{backend}: n grid {ns} is not strictly "
                       "increasing")
    return f"{len(rows)} rows ({completed} completed), backends identical"


def check_serve(path: str, doc: dict) -> str:
    require(path, doc, ("seed", "batches", "ops_per_batch",
                        "incremental_exact", "verify", "timed"))
    if doc["incremental_exact"] is not True:
        fail(path, "the maintained tree diverged from kruskal_msf "
                   "(incremental_exact != true) — this record must never "
                   "be committed")
    verify = doc["verify"]
    require(path, verify, ("n", "commits", "rebuilds", "requests_per_sec",
                           "mean_nodes_touched"), where="verify phase")
    if verify["commits"] <= 0:
        fail(path, "verify phase ran no commits — the exactness flag "
                   "checked nothing")
    timed = doc["timed"]
    require(path, timed, ("n", "wall_ms", "admitted", "commits", "rebuilds",
                          "requests_per_sec", "mean_nodes_touched",
                          "incremental_commits",
                          "mean_nodes_touched_incremental"),
            where="timed phase")
    if timed["admitted"] <= 0:
        fail(path, "timed phase admitted no requests")
    if timed["requests_per_sec"] <= 0:
        fail(path, "requests_per_sec must be positive")
    if timed["incremental_commits"] <= 0:
        fail(path, "every timed commit fell back to a full rebuild — the "
                   "incremental path never ran")
    # The locality contract: a constant-size batch must touch o(n) nodes.
    # Half the deployment is a generous ceiling for any sane batch size.
    if timed["mean_nodes_touched_incremental"] >= timed["n"] / 2:
        fail(path, f"incremental commits touched "
                   f"{timed['mean_nodes_touched_incremental']:.1f} nodes on "
                   f"average at n={timed['n']} — repair is not local")
    return (f"{timed['requests_per_sec']:.0f} req/s at n={timed['n']}, "
            f"{timed['mean_nodes_touched_incremental']:.1f} nodes/incr "
            f"commit, exact")


CHECKS = {
    "BENCH_sim.json": check_sim,
    "BENCH_dist.json": check_dist,
    "BENCH_faults.json": check_faults,
    "BENCH_chaos.json": check_chaos,
    "BENCH_telemetry.json": check_telemetry,
    "BENCH_wire.json": check_wire,
    "BENCH_scale.json": check_scale,
    "BENCH_serve.json": check_serve,
}


def check_file(path: str, allow_untracked: bool = False) -> None:
    name = os.path.basename(path)
    if name not in CHECKS:
        fail(path, f"no schema registered for {name!r} — add one to "
                   "scripts/validate_bench.py when adding a tracked record")
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(path, f"not readable JSON: {err}")
    if not isinstance(doc, dict):
        fail(path, "top-level JSON value is not an object")
    if doc.get("untracked") is True and not allow_untracked:
        fail(path, "record is marked \"untracked\": true (non-Release "
                   "build) — it must not be committed as a tracked record; "
                   "pass --allow-untracked to inspect it anyway")
    detail = CHECKS[name](path, doc)
    tag = " [UNTRACKED]" if doc.get("untracked") is True else ""
    print(f"{path}: ok{tag} — {detail}")


def main(argv: list[str]) -> int:
    args = argv[1:]
    allow_untracked = "--allow-untracked" in args
    paths = [a for a in args if a != "--allow-untracked"]
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    for path in paths:
        check_file(path, allow_untracked)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
