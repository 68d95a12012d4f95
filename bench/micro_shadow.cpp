// Microbenchmarks for the packed shadow: the per-access cost that dominates
// SP+ on access-dense benchmarks (the paper's fib/knapsack discussion).
// One packed op covers BOTH logical spaces (reader and writer); the
// paired-map shadow it replaced paid one op per space.  That layout's last
// numbers on these shapes are frozen in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include "shadow/packed_shadow.hpp"
#include "support/rng.hpp"

namespace {

using rader::Rng;
using rader::shadow::PackedShadow;

void BM_PackedSequentialSet(benchmark::State& state) {
  PackedShadow s;
  std::uintptr_t addr = 0x100000;
  for (auto _ : state) {
    s.set_writer(addr, 1);
    addr = 0x100000 + ((addr + 1) & 0xFFFF);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedSequentialSet);

void BM_PackedSequentialGetHit(benchmark::State& state) {
  PackedShadow s;
  for (std::uintptr_t a = 0; a < 0x10000; ++a) s.set_writer(0x100000 + a, 7);
  std::uintptr_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.writer(0x100000 + (addr & 0xFFFF)));
    ++addr;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedSequentialGetHit);

void BM_PackedRandomPageAccess(benchmark::State& state) {
  // Page hops hit the chunk's array index instead of the hash map.
  PackedShadow s;
  Rng rng(3);
  const int pages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const std::uintptr_t addr = (rng.below(pages) << 12) | rng.below(4096);
    s.set_writer(addr, 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedRandomPageAccess)->Arg(16)->Arg(1024);

void BM_PackedWordAccessEightBytes(benchmark::State& state) {
  PackedShadow s;
  std::uintptr_t addr = 0x200000;
  for (auto _ : state) {
    for (std::uintptr_t b = addr; b != addr + 8; ++b) s.set_writer(b, 1);
    addr = 0x200000 + ((addr + 8) & 0xFFFF);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedWordAccessEightBytes);

void BM_PackedEpochClear(benchmark::State& state) {
  // The O(1) bulk clear: footprint size (range arg = pages touched) must
  // not change the per-clear cost.  Re-touch one granule per iteration so
  // successive clears are not no-ops.
  PackedShadow s;
  const int pages = static_cast<int>(state.range(0));
  for (int p = 0; p < pages; ++p) {
    s.set_writer(static_cast<std::uintptr_t>(p) << 12, 1);
  }
  for (auto _ : state) {
    s.set_writer(0, 1);
    s.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedEpochClear)->Arg(16)->Arg(1024);

}  // namespace
