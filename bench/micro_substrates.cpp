// google-benchmark microbenchmarks for the substrate layers: RGG
// construction, spatial queries, union-find, sequential MSTs, and the
// distributed runtime's per-message overhead. These guard the harness's
// ability to run the large sweeps in reasonable time.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "emst/eopt/eopt.hpp"
#include "emst/geometry/sampling.hpp"
#include "emst/ghs/classic.hpp"
#include "emst/graph/gabriel.hpp"
#include "emst/ghs/sync.hpp"
#include "emst/graph/mst.hpp"
#include "emst/graph/union_find.hpp"
#include "emst/nnt/connt.hpp"
#include "emst/rgg/radii.hpp"
#include "emst/rgg/rgg.hpp"
#include "emst/spatial/cell_grid.hpp"
#include "emst/run.hpp"
#include "emst/sim/topology.hpp"
#include "emst/support/rng.hpp"

namespace {

using namespace emst;

std::vector<geometry::Point2> bench_points(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  return geometry::uniform_points(n, rng);
}

void BM_UniformPoints(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  support::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geometry::uniform_points(n, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_UniformPoints)->Arg(1000)->Arg(100000);

void BM_RggBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto points = bench_points(n, 2);
  const double radius = rgg::connectivity_radius(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rgg::geometric_edges(points, radius));
  }
}
BENCHMARK(BM_RggBuild)->Arg(1000)->Arg(10000)->Arg(50000);

// Each iteration sorts a shuffled copy of the edge list of n points at r₂
// (2.13 M edges at n = 5·10⁴, the size of the CSR behind `paper-csr`).
void BM_SortEdges(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto edges = rgg::geometric_edges_unsorted(bench_points(n, 23),
                                             rgg::connectivity_radius(n));
  support::Rng rng(29);
  std::shuffle(edges.begin(), edges.end(), rng);
  std::vector<graph::Edge> work;
  for (auto _ : state) {
    state.PauseTiming();
    work = edges;
    state.ResumeTiming();
    graph::sort_edges(work);
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_SortEdges)->Arg(50000)->Unit(benchmark::kMillisecond);

// The whole CSR-backed topology from points at r₂: pair scan, edge sort,
// CSR fill, its checks and the nodes_within grid.
void BM_TopologyBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto points = bench_points(n, 31);
  const double radius = rgg::connectivity_radius(n);
  for (auto _ : state) {
    const sim::Topology topo(points, radius);
    benchmark::DoNotOptimize(topo.edge_count());
  }
}
BENCHMARK(BM_TopologyBuild)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_CellGridWithin(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto points = bench_points(n, 3);
  const double radius = rgg::connectivity_radius(n);
  const spatial::CellGrid grid(points, radius);
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.within(points[q++ % n], radius));
  }
}
BENCHMARK(BM_CellGridWithin)->Arg(10000)->Arg(100000);

void BM_UnionFind(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  support::Rng rng(5);
  for (auto _ : state) {
    graph::UnionFind dsu(n);
    for (std::size_t i = 0; i < n; ++i) {
      dsu.unite(static_cast<graph::NodeId>(rng.uniform_int(n)),
                static_cast<graph::NodeId>(rng.uniform_int(n)));
    }
    benchmark::DoNotOptimize(dsu.components());
  }
}
BENCHMARK(BM_UnionFind)->Arg(10000)->Arg(100000);

void BM_Kruskal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto points = bench_points(n, 7);
  const auto edges = rgg::geometric_edges(points, rgg::connectivity_radius(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::kruskal_msf(n, edges));
  }
}
BENCHMARK(BM_Kruskal)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_PrimVsKruskal_Prim(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto points = bench_points(n, 7);
  const auto instance = rgg::build_rgg(points, rgg::connectivity_radius(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::prim_msf(instance.graph));
  }
}
BENCHMARK(BM_PrimVsKruskal_Prim)->Arg(10000);

void BM_ClassicGhs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const sim::Topology topo(bench_points(n, 11), rgg::connectivity_radius(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run(topo, config_for(Driver::kClassicGhs)));
  }
}
BENCHMARK(BM_ClassicGhs)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_SyncGhsCached(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const sim::Topology topo(bench_points(n, 13), rgg::connectivity_radius(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run(topo, config_for(Driver::kSyncGhs)));
  }
}
BENCHMARK(BM_SyncGhsCached)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_CoNnt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const sim::Topology topo(bench_points(n, 17), rgg::connectivity_radius(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run(topo, config_for(Driver::kCoNnt)));
  }
}
BENCHMARK(BM_CoNnt)->Arg(500)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_GabrielFilter(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto points = bench_points(n, 37);
  const auto edges = rgg::geometric_edges(points, rgg::connectivity_radius(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::gabriel_filter(points, edges));
  }
}
BENCHMARK(BM_GabrielFilter)->Arg(2000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_Eopt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const sim::Topology topo(bench_points(n, 41), rgg::connectivity_radius(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run(topo, config_for(Driver::kEopt)));
  }
}
BENCHMARK(BM_Eopt)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_EuclideanMst(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto points = bench_points(n, 19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rgg::euclidean_mst(points));
  }
}
BENCHMARK(BM_EuclideanMst)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace
