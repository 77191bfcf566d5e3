// Thread-parallel trial execution.
//
// Monte-Carlo sweeps (20+ trials per table row) are embarrassingly parallel:
// each trial gets a deterministic stream seed derived from (master seed,
// trial index), so results are identical regardless of thread count or
// scheduling (CppCoreGuidelines CP.2: no data races — each trial writes only
// its own slot).
//
// parallel_for is a template over the callback so the per-trial dispatch is
// a direct (inlinable) call rather than a std::function virtual hop — the
// callback runs once per trial inside every worker's fetch_add loop.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace emst::support {

/// Number of worker threads to use (hardware_concurrency, at least 1).
/// Honors the EMST_THREADS environment variable when set.
[[nodiscard]] std::size_t default_thread_count();

/// Run fn(i) for i in [0, count) across worker threads. Blocks until all
/// complete. Exceptions inside fn terminate (deliberate: a failed trial
/// invalidates the whole experiment).
template <typename Fn>
void parallel_for(std::size_t count, Fn&& fn, std::size_t threads = 0) {
  if (count == 0) return;
  if (threads == 0) threads = default_thread_count();
  threads = std::min(threads, count);
  if (threads == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::jthread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        fn(i);
      }
    });
  }
}

}  // namespace emst::support
