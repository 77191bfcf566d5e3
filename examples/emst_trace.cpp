// emst_trace — check JSONL telemetry traces (docs/TELEMETRY.md).
//
// For each file, `sim::check_trace` streams the lines: it checks the header,
// parses every event line and holds it to the event rules, replays every
// counter from the events alone and compares the result with the summary
// line the live run wrote — energy bit for bit.
//
//   ./emst_cli --algo=eopt --n=2000 --trace=run.jsonl
//   ./emst_trace run.jsonl [run2.jsonl ...]
//
// Prints one "ok" line per good file. At the first bad file, prints
// "<path>:<line>: error: <reason>" on stderr and exits 1; exits 2 when given
// no file.
#include <cstdio>
#include <fstream>
#include <string>

#include "emst/sim/trace_replay.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s TRACE.jsonl [TRACE.jsonl ...]\n", argv[0]);
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    const char* path = argv[i];
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "%s: error: cannot open the file\n", path);
      return 1;
    }
    const emst::sim::TraceCheck check = emst::sim::check_trace(in);
    if (!check.ok()) {
      std::fprintf(stderr, "%s:%zu: error: %s\n", path, check.line,
                   check.error.c_str());
      return 1;
    }
    const emst::sim::TraceHeader& header = check.header;
    std::string notes;
    if (header.threads > 1)
      notes += ", " + std::to_string(header.threads) + " threads";
    if (!header.driver.empty() && header.driver != header.algo)
      notes += ", driver " + header.driver;
    const emst::sim::Accounting& totals = check.replay.totals;
    std::printf(
        "%s: ok — %zu events, energy %.6f, %llu unicasts / %llu broadcasts / "
        "%llu bits over %llu rounds%s\n",
        path, check.replay.events, totals.energy,
        static_cast<unsigned long long>(totals.unicasts),
        static_cast<unsigned long long>(totals.broadcasts),
        static_cast<unsigned long long>(totals.bits),
        static_cast<unsigned long long>(totals.rounds), notes.c_str());
  }
  return 0;
}
