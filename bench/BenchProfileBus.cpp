//===- bench/BenchProfileBus.cpp - Continuous profiling overhead ----------===//
//
// Measures the continuous profiling service against the acceptance bar:
// with the bus off, an engine built with ContinuousProfile disabled is
// the exact baseline configuration, so "bus-off equals baseline within
// noise" falls out of construction; the interesting numbers are
//
//   bus_off         instrumented workload, no bus (the baseline)
//   bus_<interval>  the same workload publishing every N fuel charges
//
// across publish intervals, plus the raw cost of ProfileBus::publish for
// representative point counts (what one poll-point beat costs the
// mutator), of a beat that applies a fresh epoch to an engine's tiers,
// and of epoch queries from a subscriber.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "profile/ProfileBus.h"

using namespace pgmp;
using namespace pgmp::bench;

namespace {

// The BenchOverhead numeric kernel: enough distinct points to make
// publishes non-trivial, cheap enough to run many iterations.
const char *Kernel =
    "(define (poly x) (+ (* 3 x x) (* -2 x) 7))\n"
    "(define (work n)\n"
    "  (let loop ([i 0] [acc 0])\n"
    "    (if (= i n) acc (loop (+ i 1) (+ acc (poly i))))))\n";

/// Instrumented workload with the bus publishing every State.range(0)
/// fuel charges; 0 = continuous profiling off (the baseline).
void BM_WorkloadWithBus(benchmark::State &State) {
  EngineOptions Opts;
  Opts.Instrument = true;
  Opts.Tier.Mode = TierMode::Auto;
  uint64_t Interval = static_cast<uint64_t>(State.range(0));
  Opts.ContinuousProfile.IntervalCharges = Interval;
  Engine E(Opts);
  requireEval(E, Kernel, "kernel.scm");
  Value *Fn = E.context().globalCell(E.context().Symbols.intern("work"));
  require(Fn != nullptr, "work not defined");
  Value Args[1] = {Value::fixnum(2000)};
  for (auto _ : State) {
    Value V = E.context().apply(*Fn, Args, 1);
    benchmark::DoNotOptimize(V);
  }
  State.SetLabel(Interval ? "publish every " + std::to_string(Interval) +
                                " charges"
                          : "bus off");
  if (Interval && E.bus())
    State.counters["publishes"] =
        static_cast<double>(E.bus()->publishes());
}

/// Keys of NumPoints distinct points in one file.
std::vector<BusPointKey> benchKeys(size_t NumPoints) {
  std::vector<BusPointKey> Keys(NumPoints);
  for (size_t I = 0; I < NumPoints; ++I) {
    Keys[I].File = "bench.scm";
    Keys[I].Begin = static_cast<uint32_t>(I * 8);
    Keys[I].End = static_cast<uint32_t>(I * 8 + 4);
  }
  return Keys;
}

/// Raw publish cost for State.range(0) points: the bill one poll beat
/// presents to the mutator thread. Keys are interned once up front, as
/// an engine's slot cache does; the beat sends (slot, total) rows.
void BM_BusPublish(benchmark::State &State) {
  ProfileBus Bus;
  uint64_t Pub = Bus.addPublisher();
  size_t NumPoints = static_cast<size_t>(State.range(0));
  ProfileBus::SlotRows Totals;
  Totals.reserve(NumPoints);
  for (const BusPointKey &K : benchKeys(NumPoints))
    Totals.emplace_back(Bus.intern(K), 0);
  uint64_t Tick = 0;
  for (auto _ : State) {
    // Advance a rotating subset so publishes carry realistic deltas and
    // the hot set occasionally churns.
    ++Tick;
    for (size_t I = Tick % 8; I < NumPoints; I += 8)
      Totals[I].second += 64;
    benchmark::DoNotOptimize(Bus.publish(Pub, Totals));
  }
  State.counters["epochs"] = static_cast<double>(Bus.epochsPublished());
}

/// Subscriber-side cost of one beat that brings a new epoch: publish the
/// engine's counters, then re-tier every lambda against the epoch's
/// weights, re-select the fusion table and the reclaim policy. A skew
/// flip between two sets of State.range(0) workers makes every beat
/// churn the hot set, so every iteration applies a fresh epoch.
void BM_BusEpochApply(benchmark::State &State) {
  EngineOptions Opts;
  Opts.Instrument = true;
  Opts.Tier.Mode = TierMode::Auto;
  Opts.ContinuousProfile.IntervalCharges = 1ull << 40; // beats are manual
  Opts.ContinuousProfile.DecayHalfLife = 0.25;
  Engine E(Opts);
  size_t Workers = static_cast<size_t>(State.range(0));
  std::string Src;
  for (size_t I = 0; I < 2 * Workers; ++I)
    Src += "(define (w" + std::to_string(I) +
           " n) (if (= n 0) 0 (+ 1 (w" + std::to_string(I) +
           " (- n 1)))))\n";
  requireEval(E, Src, "workers.scm");
  Context &Ctx = E.context();
  std::vector<Value *> Fns;
  for (size_t I = 0; I < 2 * Workers; ++I)
    Fns.push_back(Ctx.globalCell(Ctx.Symbols.intern("w" + std::to_string(I))));
  Value Args[1] = {Value::fixnum(80)};
  uint64_t Flip = 0, Applied = 0;
  for (auto _ : State) {
    State.PauseTiming();
    size_t Base = (Flip++ % 2) * Workers;
    for (size_t I = 0; I < Workers; ++I)
      benchmark::DoNotOptimize(Ctx.apply(*Fns[Base + I], Args, 1));
    State.ResumeTiming();
    Applied += E.observeProfileEpoch();
  }
  State.counters["epochs_applied"] =
      benchmark::Counter(static_cast<double>(Applied),
                         benchmark::Counter::kAvgIterations);
  State.counters["points"] = static_cast<double>(E.bus()->numPoints());
}

/// Subscriber-side cost: the version poll plus the epoch fetch.
void BM_BusEpochQuery(benchmark::State &State) {
  ProfileBus Bus;
  uint64_t Pub = Bus.addPublisher();
  ProfileBus::TotalsRows Totals;
  for (const BusPointKey &K : benchKeys(64))
    Totals.emplace_back(K, (Totals.size() + 1) * 100);
  Bus.publish(Pub, Totals);
  require(Bus.version() >= 1, "no epoch published");
  for (auto _ : State) {
    benchmark::DoNotOptimize(Bus.version());
    benchmark::DoNotOptimize(Bus.epoch());
  }
}

} // namespace

BENCHMARK(BM_WorkloadWithBus)->Arg(0)->Arg(1024)->Arg(4096)->Arg(16384);
BENCHMARK(BM_BusPublish)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_BusEpochApply)->Arg(8)->Arg(32);
BENCHMARK(BM_BusEpochQuery);

BENCHMARK_MAIN();
