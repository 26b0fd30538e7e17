// google-benchmark microbenchmarks of the simulation kernels: per-round
// cost from early chaos, at a fixpoint on the active set (a certified O(1)
// round) and on the full scan (every peer runs rules 1..6 and the commit
// re-delivers every forwarded edge: the all-live kernel), state
// serialization/fingerprinting, spec computation and checking, and the
// serial-vs-parallel round engine.

#include <benchmark/benchmark.h>

#include "core/convergence.hpp"
#include "core/engine.hpp"
#include "core/spec.hpp"
#include "gen/topologies.hpp"

namespace {

using namespace rechord;

core::Network fresh_network(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  return gen::make_network(gen::Topology::kRandomConnected, n, rng);
}

core::Engine stable_engine(std::size_t n, unsigned threads = 1) {
  core::Engine engine(fresh_network(n, 42), {.threads = threads});
  const auto spec = core::StableSpec::compute(engine.network());
  core::RunOptions opt;
  opt.max_rounds = 1'000'000;
  (void)core::run_to_stable(engine, spec, opt);
  return engine;
}

void BM_RoundFromChaos(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    core::Engine engine(fresh_network(n, 42), {});
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.step());
  }
}
BENCHMARK(BM_RoundFromChaos)->Arg(16)->Arg(64)->Arg(256);

void BM_RoundAtFixpoint(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto engine = stable_engine(n);
  for (auto _ : state) benchmark::DoNotOptimize(engine.step());
}
BENCHMARK(BM_RoundAtFixpoint)->Arg(16)->Arg(64)->Arg(256);

// One full-scan round on the materialized fixpoint: all peers live, each
// forwarding every held connection edge (rule 6) and re-linearizing (rule
// 4), then the commit. The state is a fixpoint, so every iteration repeats
// the same round.
void BM_FullScanRoundAtFixpoint(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::Engine engine(core::stable_network(n, 42), {.full_scan = true});
  for (auto _ : state) benchmark::DoNotOptimize(engine.step());
}
BENCHMARK(BM_FullScanRoundAtFixpoint)
    ->Arg(256)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_FullConvergence(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    core::Engine engine(fresh_network(n, 42), {});
    const auto spec = core::StableSpec::compute(engine.network());
    state.ResumeTiming();
    benchmark::DoNotOptimize(core::run_to_stable(engine, spec, {}));
  }
}
BENCHMARK(BM_FullConvergence)->Arg(16)->Arg(64);

void BM_SerializeState(benchmark::State& state) {
  auto engine = stable_engine(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.network().serialize_state());
}
BENCHMARK(BM_SerializeState)->Arg(64)->Arg(256);

void BM_Fingerprint(benchmark::State& state) {
  auto engine = stable_engine(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.network().state_fingerprint());
}
BENCHMARK(BM_Fingerprint)->Arg(64)->Arg(256);

// The incremental fixpoint detector on an unchanged state (nothing dirty):
// the O(live slots) byte scan that replaced BM_SerializeState per round.
void BM_ConsumeRoundChangesClean(benchmark::State& state) {
  auto engine = stable_engine(static_cast<std::size_t>(state.range(0)));
  engine.network().rebuild_change_baseline();
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.network().consume_round_changes());
}
BENCHMARK(BM_ConsumeRoundChangesClean)->Arg(64)->Arg(256);

void BM_SpecCompute(benchmark::State& state) {
  // The spec depends only on the live owners' positions, so a fresh network
  // of random ids is enough; no protocol run needed.
  util::Rng rng(42);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ids = gen::random_ids(rng, n);
  const core::Network net{std::span<const core::RingPos>(ids)};
  for (auto _ : state)
    benchmark::DoNotOptimize(core::StableSpec::compute(net));
}
BENCHMARK(BM_SpecCompute)
    ->Arg(256)
    ->Arg(2000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_AlmostStableCheck(benchmark::State& state) {
  auto engine = stable_engine(static_cast<std::size_t>(state.range(0)));
  const auto spec = core::StableSpec::compute(engine.network());
  for (auto _ : state)
    benchmark::DoNotOptimize(spec.almost_stable(engine.network()));
}
BENCHMARK(BM_AlmostStableCheck)->Arg(64)->Arg(256);

void BM_ExactMatchCheck(benchmark::State& state) {
  auto engine = stable_engine(static_cast<std::size_t>(state.range(0)));
  const auto spec = core::StableSpec::compute(engine.network());
  for (auto _ : state)
    benchmark::DoNotOptimize(spec.exact_match(engine.network()));
}
BENCHMARK(BM_ExactMatchCheck)->Arg(64)->Arg(256);

void BM_ParallelRound(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  core::Engine engine(fresh_network(512, 42), {.threads = threads});
  for (int warm = 0; warm < 3; ++warm) engine.step();
  for (auto _ : state) benchmark::DoNotOptimize(engine.step());
}
BENCHMARK(BM_ParallelRound)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
