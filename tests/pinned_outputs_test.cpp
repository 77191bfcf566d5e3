// Pinned absolute outputs of fault-free sync GHS and EOPT, and of classic
// GHS (both MOE strategies) fault-free and under a fixed fail-stop crash
// list.
//
// The backend differential (topology_differential_test.cpp) compares the
// two topology backends with each other, so a change that moves both the
// same way passes it — a wrong per-node memo in the shared sync-GHS driver,
// or a classic-GHS retry skipped while its receiver had in fact changed,
// for example. This table pins what the runs actually produce: message,
// delivery and round counts, phases, an FNV-1a hash of the canonical tree
// and the energy total as a hexfloat, compared bitwise. Deliveries count
// every broadcast's receivers, which energy alone does not see. Sync GHS
// and EOPT rows are checked on both topology backends. Classic GHS rows are
// checked on the CSR only: the facade serves classic GHS from the CSR on
// either backend, so an implicit run would repeat the CSR one. The crash
// rows restart at least once (epochs > 1, checked), so they pin the
// fail-stop epoch path as well. Plain classic GHS has three more rows at
// n = 10000, whose rounds drain buckets to receivers beyond the first
// 4096-node summary word of the engine's receiver bitmap (network.hpp).
// Classic GHS's handler-invocation count is deliberately not pinned: it
// measures the simulator's dispatch work, not the protocol's behaviour.
//
// At α = 2 energy is PathLoss::cost's scale·d·d, with no libm call; libm
// enters through std::log in rgg::connectivity_radius and
// rgg::giant_threshold, which set the radii. So the figures belong to the
// toolchain they were captured with (kToolchain). A mismatch prints the
// observed row in source form; replacing a row means behaviour changed, and
// the change that does it has to say why.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "emst/run.hpp"
#include "emst/sim/fault.hpp"
#include "facade_topology.hpp"

namespace emst {
namespace {

constexpr const char* kToolchain = "GCC 12.2, glibc 2.36, x86-64";

enum class Case {
  kSync,
  kSyncMinPower,
  kEopt,
  kClassicGhs,
  kClassicGhsCached,
  kClassicGhsCrashes,
  kClassicGhsCachedCrashes,
};

struct Row {
  Case driver;
  std::size_t n;
  std::uint64_t seed;
  std::uint64_t messages;
  std::uint64_t deliveries;
  std::uint64_t rounds;
  std::size_t phases;
  std::uint64_t tree_hash;
  double energy;
};

// clang-format off
constexpr Row kRows[] = {
    {Case::kSync, 500, 1, 8399, 125561, 342, 5, 0x401f56eab02a178e, 0x1.7671d045a5b93p+6},
    {Case::kSync, 500, 2, 8423, 125444, 318, 5, 0x7eb17e20514e067b, 0x1.74f01ab3ff856p+6},
    {Case::kSync, 500, 3, 8385, 121994, 298, 5, 0x363a4db5616be2e4, 0x1.73fe4a24d77d8p+6},
    {Case::kSync, 4000, 1, 91676, 1946227, 1686, 7, 0xd219a744dcb3b4e8, 0x1.4d70db9a2000cp+7},
    {Case::kSync, 4000, 2, 91987, 1929918, 1530, 7, 0x4016e1c42d7b151c, 0x1.4e5c1b0632eb6p+7},
    {Case::kSync, 4000, 3, 79654, 1703742, 1181, 6, 0x5d12f6678990b826, 0x1.22847300e3a5p+7},
    {Case::kSyncMinPower, 500, 1, 8399, 125561, 342, 5, 0x401f56eab02a178e, 0x1.6ce7af9165b16p+6},
    {Case::kSyncMinPower, 500, 2, 8423, 125444, 318, 5, 0x7eb17e20514e067b, 0x1.6c1be4c291862p+6},
    {Case::kSyncMinPower, 500, 3, 8385, 121994, 298, 5, 0x363a4db5616be2e4, 0x1.6a45830ca82c9p+6},
    {Case::kSyncMinPower, 4000, 1, 91676, 1946227, 1686, 7, 0xd219a744dcb3b4e8, 0x1.47ede1efcd6edp+7},
    {Case::kSyncMinPower, 4000, 2, 91987, 1929918, 1530, 7, 0x4016e1c42d7b151c, 0x1.48def28cf21b3p+7},
    {Case::kSyncMinPower, 4000, 3, 79654, 1703742, 1181, 6, 0x5d12f6678990b826, 0x1.1dbef8b3b6938p+7},
    {Case::kEopt, 500, 1, 9878, 46729, 502, 6, 0x401f56eab02a178e, 0x1.14d0330764e01p+5},
    {Case::kEopt, 500, 2, 9786, 44512, 462, 6, 0x7eb17e20514e067b, 0x1.0ef077765881dp+5},
    {Case::kEopt, 500, 3, 9674, 44648, 440, 6, 0x363a4db5616be2e4, 0x1.11aa030949039p+5},
    {Case::kEopt, 4000, 1, 102480, 500970, 2404, 8, 0xd219a744dcb3b4e8, 0x1.636aeccab6142p+5},
    {Case::kEopt, 4000, 2, 103092, 502712, 2051, 9, 0x4016e1c42d7b151c, 0x1.6364c36ab4076p+5},
    {Case::kEopt, 4000, 3, 90543, 475862, 1779, 7, 0x5d12f6678990b826, 0x1.4d39162ef1b89p+5},
    {Case::kClassicGhs, 500, 1, 30406, 30406, 425, 5, 0x401f56eab02a178e, 0x1.6b3e5d3e5b502p+8},
    {Case::kClassicGhs, 500, 2, 30553, 30553, 403, 5, 0x7eb17e20514e067b, 0x1.6f9cc4eafc466p+8},
    {Case::kClassicGhs, 500, 3, 30140, 30140, 414, 5, 0x363a4db5616be2e4, 0x1.65c0c0de157abp+8},
    {Case::kClassicGhs, 4000, 1, 346927, 346927, 1912, 7, 0xd219a744dcb3b4e8, 0x1.5f6e2b0e13cb7p+9},
    {Case::kClassicGhs, 4000, 2, 345629, 345629, 1698, 7, 0x4016e1c42d7b151c, 0x1.5d6bb298905e4p+9},
    {Case::kClassicGhs, 4000, 3, 337457, 337457, 1379, 6, 0x5d12f6678990b826, 0x1.5f4cd53132827p+9},
    {Case::kClassicGhs, 10000, 1, 957562, 957562, 2651, 7, 0x8e09d124ebd3fc28, 0x1.bb64840aff799p+9},
    {Case::kClassicGhs, 10000, 2, 955798, 955798, 2699, 7, 0xc715c3a59e280866, 0x1.b989827881d03p+9},
    {Case::kClassicGhs, 10000, 3, 977341, 977341, 3611, 8, 0x1ca35ae56539ffa4, 0x1.bb2f0da110aefp+9},
    {Case::kClassicGhsCached, 500, 1, 17576, 123106, 363, 5, 0x401f56eab02a178e, 0x1.4e7a4dc5fa18ap+7},
    {Case::kClassicGhsCached, 500, 2, 17145, 123505, 336, 5, 0x7eb17e20514e067b, 0x1.3c09f23e6734p+7},
    {Case::kClassicGhsCached, 500, 3, 17514, 121444, 314, 5, 0x363a4db5616be2e4, 0x1.4abc3437dc50dp+7},
    {Case::kClassicGhsCached, 4000, 1, 180171, 1911551, 1791, 7, 0xd219a744dcb3b4e8, 0x1.142d475603e1fp+8},
    {Case::kClassicGhsCached, 4000, 2, 181137, 1892133, 1581, 7, 0x4016e1c42d7b151c, 0x1.16fdcbfd685b8p+8},
    {Case::kClassicGhsCached, 4000, 3, 165401, 1656065, 1280, 6, 0x5d12f6678990b826, 0x1.f3aa3c6011d08p+7},
    {Case::kClassicGhsCrashes, 500, 1, 38968, 38968, 524, 5, 0xa8b6cc66f827c51d, 0x1.9064e8ade8888p+8},
    {Case::kClassicGhsCrashes, 500, 2, 39834, 39834, 518, 5, 0x1dd473db4c86f3b7, 0x1.9b700522e153bp+8},
    {Case::kClassicGhsCrashes, 500, 3, 39588, 39588, 486, 5, 0x9b509bc5ebf9f608, 0x1.8bef274437f03p+8},
    {Case::kClassicGhsCrashes, 4000, 1, 502947, 502947, 2242, 7, 0x9e61dbb23e4473c2, 0x1.c0799bcbb0b58p+9},
    {Case::kClassicGhsCrashes, 4000, 2, 510263, 510263, 2128, 7, 0x4cc87dff4bbfa444, 0x1.cb70ca9ea8dd3p+9},
    {Case::kClassicGhsCrashes, 4000, 3, 488307, 488307, 1773, 6, 0x6320edd9b02d048d, 0x1.bb3823f76bd77p+9},
    {Case::kClassicGhsCachedCrashes, 500, 1, 25090, 174774, 427, 5, 0x401f56eab02a178e, 0x1.b13c54f18ebc2p+7},
    {Case::kClassicGhsCachedCrashes, 500, 2, 26313, 188782, 420, 5, 0x7eb17e20514e067b, 0x1.bbfa3d26cf24bp+7},
    {Case::kClassicGhsCachedCrashes, 500, 3, 26536, 183431, 401, 5, 0x363a4db5616be2e4, 0x1.c895e7a1ec417p+7},
    {Case::kClassicGhsCachedCrashes, 4000, 1, 285850, 2935229, 2102, 7, 0xd219a744dcb3b4e8, 0x1.94c169b0fe153p+8},
    {Case::kClassicGhsCachedCrashes, 4000, 2, 294996, 2996269, 1995, 7, 0x4016e1c42d7b151c, 0x1.a628f51bd8a74p+8},
    {Case::kClassicGhsCachedCrashes, 4000, 3, 268931, 2661319, 1600, 6, 0x5d12f6678990b826, 0x1.760db4d63d9b1p+8},
};
// clang-format on

const char* case_name(Case c) {
  switch (c) {
    case Case::kSync: return "Case::kSync";
    case Case::kSyncMinPower: return "Case::kSyncMinPower";
    case Case::kEopt: return "Case::kEopt";
    case Case::kClassicGhs: return "Case::kClassicGhs";
    case Case::kClassicGhsCached: return "Case::kClassicGhsCached";
    case Case::kClassicGhsCrashes: return "Case::kClassicGhsCrashes";
    case Case::kClassicGhsCachedCrashes: return "Case::kClassicGhsCachedCrashes";
  }
  return "?";
}

std::uint64_t tree_hash(const std::vector<graph::Edge>& tree) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xFFu;
      h *= 0x100000001b3ULL;  // FNV-1a prime
    }
  };
  for (const graph::Edge& e : tree) {
    mix((static_cast<std::uint64_t>(e.u) << 32) | e.v);
    mix(std::bit_cast<std::uint64_t>(e.w));
  }
  return h;
}

bool with_crashes(Case c) {
  return c == Case::kClassicGhsCrashes || c == Case::kClassicGhsCachedCrashes;
}

bool is_classic(Case c) {
  return c == Case::kClassicGhs || c == Case::kClassicGhsCached ||
         with_crashes(c);
}

Driver driver_of(Case c) {
  switch (c) {
    case Case::kSync:
    case Case::kSyncMinPower: return Driver::kSyncGhs;
    case Case::kEopt: return Driver::kEopt;
    case Case::kClassicGhs:
    case Case::kClassicGhsCrashes: return Driver::kClassicGhs;
    case Case::kClassicGhsCached:
    case Case::kClassicGhsCachedCrashes: return Driver::kClassicGhsCached;
  }
  return Driver::kEopt;
}

/// The fixed fail-stop schedule of the crash rows: nodes that go down at
/// the start or mid-run and come back, and for plain classic GHS one node
/// that is down for good. Every epoch a crash touches is discarded and
/// restarted. The cached variant gets no permanent crash: its fragment-name
/// announcements keep reaching the dead node, so no epoch is ever clean
/// and it hits the epoch cap (ROADMAP).
sim::FaultModel crash_list(Case c) {
  sim::FaultModel faults;
  faults.crashes.push_back({7, 4, 18});
  faults.crashes.push_back({23, 0, 12});
  faults.crashes.push_back({97, 30, 45});
  if (c == Case::kClassicGhsCrashes)
    faults.crashes.push_back({41, 0, sim::kCrashForever});
  return faults;
}

/// Runs the case through the facade, which builds the implicit grid, or on
/// the CSR of the same points and radius.
RunResult run_case(Case c, std::size_t n, std::uint64_t seed, bool implicit) {
  const Instance inst = sample_instance(n, seed);
  RunConfig cfg;
  cfg.driver = driver_of(c);
  cfg.sync.announce_min_power = c == Case::kSyncMinPower;
  if (with_crashes(c)) cfg.faults = crash_list(c);
  if (implicit) return run(inst, cfg);
  return run(facade_topology(inst, cfg), cfg);
}

std::string as_row(Case c, std::size_t n, std::uint64_t seed,
                   const RunResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{%s, %zu, %llu, %llu, %llu, %llu, %zu, 0x%llx, %a},",
                case_name(c), n, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(r.totals.messages()),
                static_cast<unsigned long long>(r.totals.deliveries),
                static_cast<unsigned long long>(r.totals.rounds), r.phases,
                static_cast<unsigned long long>(tree_hash(r.tree)),
                r.totals.energy);
  return buf;
}

void expect_rows(Case c) {
  std::size_t checked = 0;
  for (const Row& row : kRows) {
    if (row.driver != c) continue;
    for (const bool implicit : {false, true}) {
      if (implicit && is_classic(c)) continue;
      SCOPED_TRACE(testing::Message()
                   << case_name(c) << " n=" << row.n << " seed=" << row.seed
                   << (implicit ? " implicit" : " csr")
                   << " (pinned on " << kToolchain << ")");
      const RunResult got = run_case(c, row.n, row.seed, implicit);
      const bool same = got.totals.messages() == row.messages &&
                        got.totals.deliveries == row.deliveries &&
                        got.totals.rounds == row.rounds &&
                        got.phases == row.phases &&
                        tree_hash(got.tree) == row.tree_hash &&
                        std::bit_cast<std::uint64_t>(got.totals.energy) ==
                            std::bit_cast<std::uint64_t>(row.energy);
      EXPECT_TRUE(same) << "observed " << as_row(c, row.n, row.seed, got);
      if (with_crashes(c)) {
        EXPECT_GT(got.epochs, 1u);
      }
      ++checked;
    }
  }
  // n in {500, 4000} x seeds {1, 2, 3} x both backends, or the CSR alone
  // for classic GHS, which the facade serves from the CSR either way; plus
  // the three CSR rows at n = 10000 of plain classic GHS.
  const std::size_t large = c == Case::kClassicGhs ? 3u : 0u;
  EXPECT_EQ(checked, (is_classic(c) ? 6u : 12u) + large);
}

TEST(PinnedOutputs, SyncGhs) { expect_rows(Case::kSync); }

TEST(PinnedOutputs, SyncGhsAnnounceMinPower) { expect_rows(Case::kSyncMinPower); }

TEST(PinnedOutputs, Eopt) { expect_rows(Case::kEopt); }

TEST(PinnedOutputs, ClassicGhs) { expect_rows(Case::kClassicGhs); }

TEST(PinnedOutputs, ClassicGhsCached) { expect_rows(Case::kClassicGhsCached); }

TEST(PinnedOutputs, ClassicGhsCrashes) { expect_rows(Case::kClassicGhsCrashes); }

TEST(PinnedOutputs, ClassicGhsCachedCrashes) {
  expect_rows(Case::kClassicGhsCachedCrashes);
}

}  // namespace
}  // namespace emst
