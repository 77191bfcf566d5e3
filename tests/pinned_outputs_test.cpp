// Pinned absolute outputs of fault-free sync GHS and EOPT.
//
// The backend differential (topology_differential_test.cpp) compares the
// two topology backends with each other, so a change that moves both the
// same way passes it — a wrong per-node memo in the shared sync-GHS driver,
// for example. This table pins what the runs actually produce: message,
// delivery and round counts, phases, an FNV-1a hash of the canonical tree
// and the energy total as a hexfloat, compared bitwise. Deliveries count
// every broadcast's receivers, which energy alone does not see. Every row
// is checked on both backends.
//
// Energy goes through std::pow(d, α), so the figures belong to the
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

namespace emst {
namespace {

constexpr const char* kToolchain = "GCC 12.2, glibc 2.36, x86-64";

enum class Case { kSync, kSyncMinPower, kEopt };

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
};
// clang-format on

const char* case_name(Case c) {
  switch (c) {
    case Case::kSync: return "Case::kSync";
    case Case::kSyncMinPower: return "Case::kSyncMinPower";
    case Case::kEopt: return "Case::kEopt";
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

RunResult run_case(Case c, std::size_t n, std::uint64_t seed, bool implicit) {
  Instance inst = sample_instance(n, seed);
  inst.implicit_backend = implicit;
  RunConfig cfg;
  cfg.driver = c == Case::kEopt ? Driver::kEopt : Driver::kSyncGhs;
  cfg.sync.announce_min_power = c == Case::kSyncMinPower;
  return run(inst, cfg);
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
      ++checked;
    }
  }
  EXPECT_EQ(checked, 12u) << "want n in {500, 4000} x seeds {1, 2, 3} x 2 backends";
}

TEST(PinnedOutputs, SyncGhs) { expect_rows(Case::kSync); }

TEST(PinnedOutputs, SyncGhsAnnounceMinPower) { expect_rows(Case::kSyncMinPower); }

TEST(PinnedOutputs, Eopt) { expect_rows(Case::kEopt); }

}  // namespace
}  // namespace emst
