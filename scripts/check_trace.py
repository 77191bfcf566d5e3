#!/usr/bin/env python3
"""Validate an emst JSONL telemetry trace (docs/TELEMETRY.md).

    scripts/check_trace.py run.jsonl [run2.jsonl ...]

Checks, per file:
  1. framing — first line is the {"trace":"emst",...} header, last line is
     the {"summary":{...}} record, every line in between is one JSON object
     with the required event fields and known enum names;
  2. replay — re-derives energy/message/round totals, wire-bit totals,
     fault counters and ARQ counters from the event stream alone (the same
     rules as src/emst/sim/trace_replay.cpp) and compares them to the
     summary the live run wrote. Counters must match exactly; energy must
     match to 1e-9 relative (bitwise in practice: %.17g round-trips
     doubles, and the replayer adds in stream order), and any non-bitwise
     energy match is reported as a warning.

Wire-bit rules (the proto codec, docs/TELEMETRY.md): "bits" on a charge
event is the encoded size of that frame — 0 means the sender had no codec,
never "empty message". Round events and meta events (chaos, oracle and ARQ
bookkeeping) must not carry bits; ARQ meta events carry no frame flags
either. An ARQ-flagged charged frame that *is* measured can never be
smaller than the 17-bit ARQ header. Summary "bits" must equal the replayed
sum over uni/bcast charges; "data_bits"/"ack_bits" must equal the replayed
split over ARQ frames.

Traces from multi-threaded runs (`emst_cli --threads=N`, N > 1) carry
"threads":N in the header and are otherwise identical (thread count changes
wall time only, docs/PERF.md).

Exit status 0 iff every file passes. No dependencies beyond the standard
library, so CI can run it straight after `emst_cli --trace`.
"""
from __future__ import annotations

import json
import sys

EVENT_TYPES = {
    "uni", "bcast", "loss", "crash", "sup", "adel", "adup", "agup", "atmo",
    "round", "cinj", "oinv",
}
KINDS = {
    "data", "connect", "initiate", "test", "accept", "reject", "report",
    "change_root", "announce", "census", "request", "reply", "connection",
    "arq_ack",
}
PHASES = {"run", "step1", "census", "step2"}
ARQ_META = {"adel", "adup", "agup", "atmo"}
FLAG_ARQ = 1
FLAG_RETRANSMIT = 2
ARQ_HEADER_BITS = 17  # sim/wire.hpp kArqHeaderBits

SUMMARY_COUNTERS = (
    "unicasts", "broadcasts", "deliveries", "rounds", "bits",
    "lost", "dropped_crashed", "suppressed",
    "data_sent", "retransmissions", "acks_sent", "duplicates", "delivered",
    "give_ups", "timeout_rounds", "data_bits", "ack_bits",
)


def fail(path: str, lineno: int, message: str) -> None:
    print(f"{path}:{lineno}: error: {message}", file=sys.stderr)
    raise SystemExit(1)


def count_arq_frame(event: dict, replay: dict) -> None:
    """One ARQ-flagged unicast charge -> the matching send counter. Frame
    bits split the same way: ACK frames -> ack_bits, DATA frames ->
    data_bits."""
    bits = event.get("bits", 0)
    if event.get("flags", 0) & FLAG_RETRANSMIT:
        replay["retransmissions"] += 1
        replay["data_bits"] += bits
    elif event["kind"] == "arq_ack":
        replay["acks_sent"] += 1
        replay["ack_bits"] += bits
    else:
        replay["data_sent"] += 1
        replay["data_bits"] += bits


def check_file(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if len(lines) < 2:
        fail(path, 1, "trace needs at least a header and a summary line")

    header = json.loads(lines[0])
    if header.get("trace") != "emst":
        fail(path, 1, "first line is not an emst trace header")
    if header.get("version") != 1:
        fail(path, 1, f"unsupported trace version {header.get('version')}")
    threads = header.get("threads", 1)
    if not isinstance(threads, int) or threads < 1:
        fail(path, 1, f"invalid thread count in header: {threads!r}")
    ranks = header.get("ranks", 0)
    if not isinstance(ranks, int) or ranks < 0:
        fail(path, 1, f"invalid rank count in header: {ranks!r}")
    # "driver" records the driver variant that actually executed
    # (emst::resolved_driver_name). The Co-NNT algos silently dispatch to
    # their node-actor implementation under faults or ranks; the header must
    # confess that dispatch, and with ranks the plain choreographed variant
    # is impossible.
    algo = header.get("algo", "")
    driver = header.get("driver")
    if driver is not None:
        if not isinstance(driver, str):
            fail(path, 1, f"invalid driver variant in header: {driver!r}")
        if driver not in (algo, f"{algo}-actor"):
            fail(path, 1,
                 f"driver variant {driver!r} does not match algo {algo!r}")
        if ranks > 0 and algo in ("connt", "connt-axis") \
                and driver != f"{algo}-actor":
            fail(path, 1,
                 f"ranks={ranks} forces the {algo} actor dispatch but the "
                 f"header records driver {driver!r}")

    summary_obj = json.loads(lines[-1])
    if "summary" not in summary_obj:
        fail(path, len(lines), "last line is not a summary record")
    summary = summary_obj["summary"]

    replay = {key: 0 for key in SUMMARY_COUNTERS}
    replay_energy = 0.0
    events = 0
    for lineno, line in enumerate(lines[1:-1], start=2):
        try:
            event = json.loads(line)
        except json.JSONDecodeError as err:
            fail(path, lineno, f"not valid JSON: {err}")
        for field in ("ev", "kind", "phase", "round"):
            if field not in event:
                fail(path, lineno, f"event is missing required field {field!r}")
        if event["ev"] not in EVENT_TYPES:
            fail(path, lineno, f"unknown event type {event['ev']!r}")
        if event["kind"] not in KINDS:
            fail(path, lineno, f"unknown message kind {event['kind']!r}")
        if event["phase"] not in PHASES:
            fail(path, lineno, f"unknown phase {event['phase']!r}")
        bits = event.get("bits", 0)
        if not isinstance(bits, int) or bits < 0:
            fail(path, lineno, f"invalid bits value {bits!r}")
        events += 1

        ev = event["ev"]
        if ev == "round" and bits != 0:
            fail(path, lineno, "round events must not carry wire bits")
        if ev in ("cinj", "oinv") or ev in ARQ_META:
            # Meta events never transmit anything: a crash injection
            # ("cinj", value = the window's until-round), an oracle
            # violation ("oinv", value = the violation index) and the ARQ
            # session's bookkeeping (ARQ_META, stamped sender -> receiver).
            if bits != 0 or event.get("energy", 0.0) != 0.0:
                fail(path, lineno,
                     f"{ev} events must not carry wire bits or energy")
        if ev in ARQ_META and event.get("flags", 0) != 0:
            fail(path, lineno, f"{ev} events must not carry frame flags")
        if (ev == "uni" and event.get("flags", 0) & FLAG_ARQ
                and 0 < bits < ARQ_HEADER_BITS):
            fail(path, lineno,
                 f"ARQ frame carries {bits} bits — smaller than its own "
                 f"{ARQ_HEADER_BITS}-bit header")
        if ev == "uni":
            replay_energy += event.get("energy", 0.0)
            replay["unicasts"] += 1
            replay["deliveries"] += 1
            replay["bits"] += bits
            if event.get("flags", 0) & FLAG_ARQ:
                count_arq_frame(event, replay)
        elif ev == "bcast":
            replay_energy += event.get("energy", 0.0)
            replay["broadcasts"] += 1
            replay["deliveries"] += event.get("receivers", 0)
            replay["bits"] += bits
        elif ev == "loss":
            replay["lost"] += 1
        elif ev == "crash":
            replay["dropped_crashed"] += 1
        elif ev == "sup":
            replay["suppressed"] += 1
        elif ev == "adel":
            replay["delivered"] += 1
        elif ev == "adup":
            replay["duplicates"] += 1
        elif ev == "agup":
            replay["give_ups"] += 1
        elif ev == "atmo":
            replay["timeout_rounds"] += event.get("value", 0)
        elif ev == "round":
            replay["rounds"] += event.get("value", 0)

    for key in SUMMARY_COUNTERS:
        if key not in summary:
            fail(path, len(lines), f"summary is missing {key!r}")
        if replay[key] != summary[key]:
            fail(path, len(lines),
                 f"replayed {key}={replay[key]} but the live run recorded "
                 f"{summary[key]}")

    live_energy = summary["energy"]
    tolerance = 1e-9 * max(1.0, abs(live_energy))
    if abs(replay_energy - live_energy) > tolerance:
        fail(path, len(lines),
             f"replayed energy {replay_energy!r} != recorded {live_energy!r}")
    if replay_energy != live_energy:
        print(f"{path}: warning: energy matches only approximately "
              f"({replay_energy!r} vs {live_energy!r})", file=sys.stderr)

    threads_note = f", {threads} threads" if threads > 1 else ""
    driver_note = f", driver {driver}" if driver and driver != algo else ""
    print(f"{path}: ok — {events} events, energy {live_energy:.6f}, "
          f"{summary['unicasts']} unicasts / {summary['broadcasts']} "
          f"broadcasts / {summary['bits']} bits over {summary['rounds']} "
          f"rounds{threads_note}{driver_note}")


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv[1:]:
        check_file(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
