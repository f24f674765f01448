//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
//
// Usage:
//   pgmp_perfbench --workload serve-mix|serve-cache|build-3pass --seed N
//                  --seconds S --trace 0|1 [--out-dir DIR]
//
// serve-*: the `pgmpi serve` configuration (workload loaded instrumented,
// then instrumentation off; TierMode::Auto; ReclaimMode::Boundary; bus
// IntervalCharges 4096) on a 2-worker EnginePool driven as a closed loop:
// each worker sends its next request only after the previous one
// returned. Each request's evalString is timed by the driver.
//
// build-3pass: set-up repeats the Section 4.3 build (runPassOne/Two/
// Three) of a generated program; the timed phase re-runs the pass-3
// program on its workload. So setup_s is the median build time and the
// latency figures are the run time of the generated code.
//
// --trace 0 prints the end-to-end metrics. --trace 1 measures the same
// run untraced for half the time, then with engine stats and the
// driver's spans on, prints the per-layer metrics and the tracing
// overhead, and writes the spans to DIR. The last stdout line is one JSON
// object; the exit code is 1 when any output was wrong.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Workloads.h"

#include "core/EnginePool.h"
#include "core/ThreePass.h"
#include "syntax/Heap.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

using namespace perfbench;
using namespace pgmp;

namespace {

constexpr size_t Workers = 2;
constexpr size_t SetupMinReps = 5;   ///< serve set-ups per run: at least
constexpr size_t SetupMaxReps = 50;  ///< this many, at most this many,
constexpr double SetupMinSeconds = 1.5; ///< and until this much time passed
constexpr size_t WarmupRequests = 256; ///< per worker, ending each set-up
constexpr size_t WarmRunsPerBuild = 8; ///< untimed, after each build
constexpr size_t RunsPerBuild = 16;
constexpr double WindowSeconds = 0.1; ///< serve throughput window

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir = ".bench_build/perfbench-out";
};

//===----------------------------------------------------------------------===//
// Output checking and accounting
//===----------------------------------------------------------------------===//

struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::string FirstError;

  void record(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    if (!Failed)
      FirstError = What;
    ++Failed;
  }
  void merge(const Tally &O) {
    if (!Failed && O.Failed)
      FirstError = O.FirstError;
    Attempted += O.Attempted;
    Failed += O.Failed;
  }
};

bool matches(const EvalResult &R, const Expected &W) {
  if (!R.Ok)
    return false;
  if (!W.Real)
    return R.V.isFixnum() && R.V.asFixnum() == W.Int;
  if (!R.V.isNumber())
    return false;
  double Got = R.V.isFixnum() ? static_cast<double>(R.V.asFixnum())
                              : R.V.asFlonum();
  return std::fabs(Got - W.Dbl) <= 1e-9 * std::max(1.0, std::fabs(W.Dbl));
}

std::string describe(const Request &Rq, const EvalResult &R) {
  std::string S = Rq.Text.substr(0, 80) + " -> ";
  if (!R.Ok)
    return S + "error: " + R.Error;
  if (R.V.isFixnum())
    S += std::to_string(R.V.asFixnum());
  else if (R.V.isFlonum())
    S += std::to_string(R.V.asFlonum());
  else
    S += "non-number";
  return S + ", want " +
         (Rq.Want.Real ? std::to_string(Rq.Want.Dbl)
                       : std::to_string(Rq.Want.Int));
}

//===----------------------------------------------------------------------===//
// Pool-wide layer counters
//===----------------------------------------------------------------------===//

/// Engine counters summed index-wise over every engine that contributed
/// (every pool worker, or every pass of a build), plus heap figures.
struct LayerCounters {
  std::array<double, NumStats> Count{};
  std::array<double, NumPhases> PhaseNs{};
  std::array<double, NumPhases> PhaseEntries{};
  double HeapAllocated = 0, HeapEvacuated = 0, HeapCollections = 0,
         HeapMajor = 0, HeapAborts = 0;

  void addStats(const StatsRegistry &S) {
    for (size_t I = 0; I < NumStats; ++I)
      Count[I] += static_cast<double>(S.count(static_cast<Stat>(I)));
    for (size_t I = 0; I < NumPhases; ++I) {
      PhaseNs[I] += static_cast<double>(S.phaseNanos(static_cast<Phase>(I)));
      PhaseEntries[I] +=
          static_cast<double>(S.phaseEntries(static_cast<Phase>(I)));
    }
  }

  void addAllocDelta(const Heap::AllocStats &After,
                     const Heap::AllocStats &Before) {
    auto D = [](uint64_t A, uint64_t B) { return static_cast<double>(A - B); };
    HeapAllocated += D(After.BytesAllocated, Before.BytesAllocated);
    HeapEvacuated += D(After.BytesEvacuated, Before.BytesEvacuated);
    HeapCollections += D(After.Collections, Before.Collections);
    HeapMajor += D(After.MajorCollections, Before.MajorCollections);
    HeapAborts += D(After.ReclaimAborts, Before.ReclaimAborts);
  }

  /// Adds one StatsRegistry::render() report — the form in which
  /// ThreePassConfig::StageStatsOut hands back each pass's engine stats.
  void addRendered(const std::string &Text) {
    std::istringstream In(Text);
    std::string Line;
    while (std::getline(In, Line)) {
      std::istringstream L(Line);
      std::string Name;
      L >> Name;
      if (Name == "phase") {
        std::string Ph, Word;
        double Entries = 0, Ms = 0;
        L >> Ph >> Entries >> Word >> Ms;
        for (size_t I = 0; I < NumPhases; ++I)
          if (Ph == StatsRegistry::phaseName(static_cast<Phase>(I))) {
            PhaseNs[I] += Ms * 1e6;
            PhaseEntries[I] += Entries;
          }
        continue;
      }
      double V = 0;
      if (!(L >> V))
        continue;
      for (size_t I = 0; I < NumStats; ++I)
        if (Name == StatsRegistry::statName(static_cast<Stat>(I)))
          Count[I] += V;
      if (Name == "heap-bytes-allocated")
        HeapAllocated += V;
      else if (Name == "heap-bytes-evacuated")
        HeapEvacuated += V;
      else if (Name == "heap-collections")
        HeapCollections += V;
      else if (Name == "heap-collections-major")
        HeapMajor += V;
      else if (Name == "heap-reclaim-aborts")
        HeapAborts += V;
    }
  }

  double count(Stat S) const { return Count[static_cast<size_t>(S)]; }
  double ms(Phase P) const { return PhaseNs[static_cast<size_t>(P)] / 1e6; }

  static double ratio(double A, double B) { return B > 0 ? A / B : 0; }
  double inlineAttempts() const {
    return count(Stat::TierInlines) + count(Stat::TierInlineFallbacks);
  }
  double inlineFallbackRatio() const {
    return ratio(count(Stat::TierInlineFallbacks), inlineAttempts());
  }
  double epochRatio() const {
    return ratio(count(Stat::BusEpochs), count(Stat::BusPublishes));
  }
  double survivalRatio() const { return ratio(HeapEvacuated, HeapAllocated); }
  double reclaimUsPerCollection() const {
    return ratio(ms(Phase::Reclaim) * 1e3, HeapCollections);
  }
};

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Exact quantile with linear interpolation; sorts \p V in place, so the
/// sample buffers are never copied.
template <class T> double quantile(std::vector<T> &V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(std::vector<double> V) { return quantile(V, 0.5); }

/// Latency is taken over every operation. Throughput is the median over
/// short windows of the phase, so a burst of contention from outside the
/// process moves it less than it moves a whole-phase mean.
struct Phase2E {
  std::vector<float> LatMs;      ///< one per operation
  std::vector<double> WindowOps; ///< operations per second, per window
  double WallS = 0;
  double throughput() const { return median(WindowOps); }
  void addWindow(size_t Ops, double Secs) {
    if (Ops && Secs > 0)
      WindowOps.push_back(static_cast<double>(Ops) / Secs);
  }
  void append(const Phase2E &O) {
    LatMs.insert(LatMs.end(), O.LatMs.begin(), O.LatMs.end());
    WindowOps.insert(WindowOps.end(), O.WindowOps.begin(), O.WindowOps.end());
    WallS += O.WallS;
  }
};

double peakRssMiB() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

//===----------------------------------------------------------------------===//
// serve-*
//===----------------------------------------------------------------------===//

EngineOptions serveOptions() {
  // The configuration `pgmpi serve` sets up; stats stay off outside the
  // traced phase.
  EngineOptions O;
  O.ContinuousProfile.IntervalCharges = 4096;
  O.Tier.Mode = TierMode::Auto;
  O.Reclaim = ReclaimMode::Boundary;
  O.Instrument = true;
  return O;
}

struct Server {
  std::unique_ptr<EnginePool> Pool;
  std::vector<std::unique_ptr<RequestStream>> Streams;
  std::vector<uint64_t> Sent; ///< requests evaluated per worker
  unsigned Retries = 0;       ///< EnginePool task retries, all runs
};

/// One worker's samples from a timed replay: each evalString's wall time,
/// and per window of WindowSeconds (by completion time) the number of
/// requests completed and the last completion. Four bytes per request, so
/// the driver's own buffers barely move peak RSS.
struct Samples {
  uint64_t T0 = 0;
  std::vector<float> LatMs;
  std::vector<uint32_t> WinCount;
  std::vector<uint64_t> WinEnd;

  Samples(uint64_t T0, size_t Windows)
      : T0(T0), WinCount(Windows, 0), WinEnd(Windows, 0) {}
  void add(uint64_t Start, uint64_t End) {
    LatMs.push_back(static_cast<float>(static_cast<double>(End - Start) / 1e6));
    size_t Win = std::min(WinCount.size() - 1,
                          static_cast<size_t>(static_cast<double>(End - T0) /
                                              1e9 / WindowSeconds));
    ++WinCount[Win];
    WinEnd[Win] = std::max(WinEnd[Win], End);
  }
};

/// Runs \p PerWorker requests (0 = until \p DeadlineNs) on every worker.
/// \p Smp (optional, one per worker) receives the timings; \p Logs
/// (optional, one per worker) the spans.
Tally replay(Server &S, size_t PerWorker, uint64_t DeadlineNs,
             std::vector<Samples> *Smp, std::vector<SpanLog> *Logs) {
  std::vector<Tally> T(Workers);
  EnginePool::PoolResult PR = S.Pool->run([&](Engine &E, size_t W) {
    SpanLog Off;
    SpanLog &Log = Logs ? (*Logs)[W] : Off;
    ScopedSpan Task(Log, "pool.task", 0);
    Request Rq;
    for (size_t N = 0; PerWorker ? N < PerWorker : nowNs() < DeadlineNs;
         ++N) {
      uint64_t Id = (static_cast<uint64_t>(W) << 40) | S.Sent[W];
      ScopedSpan ReqSpan(Log, "request", Id);
      S.Streams[W]->next(Rq);
      uint64_t T0 = nowNs();
      EvalResult R;
      {
        ScopedSpan Eval(Log, "engine.evalString", Id);
        R = E.evalString(Rq.Text, "<request>");
      }
      uint64_t T1 = nowNs();
      ++S.Sent[W];
      if (Smp)
        (*Smp)[W].add(T0, T1);
      bool Ok = matches(R, Rq.Want);
      T[W].record(Ok, Ok ? std::string() : describe(Rq, R));
    }
    EvalResult Done;
    Done.Ok = true;
    return Done;
  });
  S.Retries += PR.TotalRetries;
  Tally All;
  for (const Tally &X : T)
    All.merge(X);
  if (!PR.Ok)
    All.record(false, "pool run failed: " + PR.Error);
  return All;
}

/// Pool construction, library and program loading, then the prefill and
/// a warm-up (tier-up happens on the first requests).
Tally setUpServer(const ServeWorkload &WL, uint64_t Seed, Server &S) {
  Tally T;
  S.Pool = std::make_unique<EnginePool>(Workers, serveOptions());
  EnginePool::PoolResult Load = S.Pool->run([&](Engine &E, size_t) {
    EvalResult Last;
    Last.Ok = true;
    for (const std::string &Lib : WL.Libraries)
      if (!(Last = E.loadLibrary(Lib)))
        return Last;
    return E.evalString(WL.Program, "workload.scm");
  });
  T.record(Load.Ok, "loading the workload: " + Load.Error);
  // Requests are data: stop minting profile points for them, as serve does.
  for (size_t I = 0; I < S.Pool->size(); ++I)
    S.Pool->engine(I).setInstrumentation(false);
  S.Streams.clear();
  for (size_t W = 0; W < Workers; ++W)
    S.Streams.push_back(WL.stream(Seed, W));
  S.Sent.assign(Workers, 0);
  T.merge(replay(S, WL.PrefillRequests + WarmupRequests, 0, nullptr, nullptr));
  return T;
}

/// One timed closed-loop replay of \p Seconds. Checks the pool-wide
/// accounting: the per-worker request counts sum to the number attempted,
/// and each worker's heap saw one boundary collection per request.
Phase2E timedReplay(Server &S, double Seconds, std::vector<SpanLog> *Logs,
                    Tally &T) {
  Phase2E Out;
  std::vector<uint64_t> SentBefore = S.Sent;
  std::vector<uint64_t> CollectBefore;
  for (size_t W = 0; W < Workers; ++W)
    CollectBefore.push_back(
        S.Pool->engine(W).context().TheHeap.allocStats().Collections);
  size_t NumWindows =
      std::max<size_t>(1, static_cast<size_t>(Seconds / WindowSeconds));
  uint64_t T0 = nowNs();
  std::vector<Samples> Smp(Workers, Samples(T0, NumWindows));
  Tally Requests = replay(S, 0, T0 + static_cast<uint64_t>(Seconds * 1e9),
                          &Smp, Logs);
  Out.WallS = static_cast<double>(nowNs() - T0) / 1e9;
  T.merge(Requests);
  // A window's length runs from the previous window's last completion to
  // its own, so its rate counts exactly the requests completed between.
  uint64_t Prev = T0;
  for (size_t I = 0; I < NumWindows; ++I) {
    size_t Count = 0;
    uint64_t End = 0;
    for (const Samples &Sm : Smp) {
      Count += Sm.WinCount[I];
      End = std::max(End, Sm.WinEnd[I]);
    }
    if (!Count)
      continue;
    Out.addWindow(Count, static_cast<double>(End - Prev) / 1e9);
    Prev = End;
  }
  uint64_t SentSum = 0;
  for (size_t W = 0; W < Workers; ++W) {
    std::vector<float> &Lat = Smp[W].LatMs;
    std::printf("  worker %zu: %zu requests, p50 %.4f ms, p90 %.4f ms\n", W,
                Lat.size(), quantile(Lat, 0.5), quantile(Lat, 0.9));
    Out.LatMs.insert(Out.LatMs.end(), Lat.begin(), Lat.end());
    uint64_t Sent = S.Sent[W] - SentBefore[W];
    SentSum += Sent;
    uint64_t Collected =
        S.Pool->engine(W).context().TheHeap.allocStats().Collections -
        CollectBefore[W];
    T.record(Sent == Lat.size() && Collected == Sent,
             "worker " + std::to_string(W) + " accounting: " +
                 std::to_string(Lat.size()) + " timed, " +
                 std::to_string(Sent) + " sent, " + std::to_string(Collected) +
                 " boundary collections");
  }
  T.record(SentSum == Requests.Attempted,
           "per-worker request counts sum to " + std::to_string(SentSum) +
               ", not the " + std::to_string(Requests.Attempted) +
               " attempted");
  return Out;
}

//===----------------------------------------------------------------------===//
// build-3pass
//===----------------------------------------------------------------------===//

struct Builder {
  BuildInput In;
  ThreePassConfig Config;
  std::string HitsExpr; ///< "(vector hits-0 ...)"
};

/// Checks every hits-I counter of \p P against the C++ model.
bool hitsMatch(OptimizedProgram &P, const Builder &B, std::string &Why) {
  EvalResult R = P.E->evalString(B.HitsExpr, "<check>");
  if (!R.Ok || !R.V.isVector()) {
    Why = "reading hits: " + (R.Ok ? std::string("not a vector") : R.Error);
    return false;
  }
  const std::vector<Value> &V = R.V.asVector()->Elems;
  for (size_t I = 0; I < B.In.Hits.size(); ++I)
    if (I >= V.size() || !V[I].isFixnum() || V[I].asFixnum() != B.In.Hits[I]) {
      Why = "hits-" + std::to_string(I) + " differs from the model";
      return false;
    }
  return true;
}

/// One three-pass build plus the first run of its output. Returns the
/// build's wall time in seconds.
double buildOnce(Builder &B, OptimizedProgram &Out, SpanLog &Log, uint64_t Id,
                 Tally &T) {
  std::string Err;
  uint64_t T0 = nowNs();
  bool Ok;
  {
    ScopedSpan Build(Log, "build", Id);
    {
      ScopedSpan P(Log, "threepass.pass1", Id);
      Ok = runPassOne(B.Config, Err);
    }
    if (Ok) {
      ScopedSpan P(Log, "threepass.pass2", Id);
      Ok = runPassTwo(B.Config, Err);
    }
    if (Ok) {
      ScopedSpan P(Log, "threepass.pass3", Id);
      Ok = runPassThree(B.Config, Out, Err);
    }
  }
  double Secs = static_cast<double>(nowNs() - T0) / 1e9;
  T.record(Ok && Out.BlockProfileValid,
           "build: " + (Err.empty() ? "block profile invalid" : Err));
  if (Ok) {
    ScopedSpan Check(Log, "check", Id);
    EvalResult R = Out.E->evalString(B.In.Workload, "workload.scm");
    std::string Why = R.Ok ? "" : "first run: " + R.Error;
    T.record(R.Ok && hitsMatch(Out, B, Why), Why);
  }
  return Secs;
}

/// Builds and their runs.
struct BuildCycles {
  std::vector<double> BuildS; ///< one per build
  Phase2E Runs;               ///< WallS sums the run segments only
  LayerCounters RunStats;     ///< pass-3 engine stats over the runs
};

/// One three-pass build followed by WarmRunsPerBuild untimed and
/// RunsPerBuild timed runs of its program, every one checked. The
/// untimed runs keep the caches the build left cold out of the latency
/// tail. The program is dropped after its runs: pass-3 engines do not
/// reclaim, so one program re-run for a whole phase would grow without
/// bound.
void buildCycle(Builder &B, SpanLog &Log, Tally &T, uint64_t Build,
                BuildCycles &Into) {
  OptimizedProgram P;
  Into.BuildS.push_back(buildOnce(B, P, Log, Build, T));
  if (!P.E)
    return;
  for (size_t N = 0; N < WarmRunsPerBuild; ++N) {
    EvalResult R = P.E->evalString(B.In.Rerun, "<run>");
    std::string Why = R.Ok ? "" : "warm-up run: " + R.Error;
    T.record(R.Ok && hitsMatch(P, B, Why), Why);
  }
  P.E->resetStats();
  Heap::AllocStats Before = P.E->context().TheHeap.allocStats();
  uint64_t T0 = nowNs();
  for (size_t N = 0; N < RunsPerBuild; ++N) {
    uint64_t Id = Build * RunsPerBuild + N;
    ScopedSpan Req(Log, "run", Id);
    uint64_t R0 = nowNs();
    EvalResult R;
    {
      ScopedSpan Eval(Log, "engine.evalString", Id);
      R = P.E->evalString(B.In.Rerun, "<run>");
    }
    Into.Runs.LatMs.push_back(
        static_cast<float>(static_cast<double>(nowNs() - R0) / 1e6));
    std::string Why = R.Ok ? "" : "run: " + R.Error;
    T.record(R.Ok && hitsMatch(P, B, Why), Why);
  }
  double Secs = static_cast<double>(nowNs() - T0) / 1e9;
  Into.Runs.WallS += Secs;
  Into.Runs.addWindow(RunsPerBuild, Secs);
  Into.RunStats.addStats(P.E->stats());
  Into.RunStats.addAllocDelta(P.E->context().TheHeap.allocStats(), Before);
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

void printE2E(const char *Label, Phase2E &P, double SetupS) {
  std::printf("%s: %zu ops in %.3f s; throughput %.1f /s (median of %zu "
              "windows); latency p50 %.4f ms, p90 %.4f ms, p99 %.4f ms "
              "(n=%zu); setup %.4f s\n",
              Label, P.LatMs.size(), P.WallS, P.throughput(),
              P.WindowOps.size(), quantile(P.LatMs, 0.5),
              quantile(P.LatMs, 0.9), quantile(P.LatMs, 0.99), P.LatMs.size(),
              SetupS);
}

/// The gated end-to-end metrics. The p90 and p99 latencies are printed
/// with the sample count but not gated: on a shared host their run-to-run
/// spread reaches the largest bound allowed.
std::vector<Metric> endToEnd(Phase2E &P, double SetupS) {
  return {{"throughput_rps", P.throughput(), "1/s"},
          {"latency_p50_ms", quantile(P.LatMs, 0.5), "ms"},
          {"setup_s", SetupS, "s"},
          {"peak_rss_mib", peakRssMiB(), "MiB"}};
}

/// Per-layer metrics, normalized per operation (a request for serve-*, a
/// three-pass build for build-3pass). Spans supply the pool and pass
/// times; the engine counters supply the split inside each call.
std::vector<Metric> perLayer(const LayerCounters &C, double Ops,
                             const std::map<std::string, SpanTotals> &Spans,
                             unsigned Retries, double Overhead) {
  auto Per = [&](double V) { return LayerCounters::ratio(V, Ops); };
  auto SpanMs = [&](const char *Name, bool Self) {
    auto It = Spans.find(Name);
    if (It == Spans.end())
      return 0.0;
    return static_cast<double>(Self ? It->second.SelfNs : It->second.TotalNs) /
           1e6;
  };
  double EvalSelf =
      std::max(0.0, C.ms(Phase::Eval) - C.ms(Phase::TierCompile));
  return {
      {"reader.ms", Per(C.ms(Phase::Read)), "ms/op"},
      {"reader.forms", Per(C.PhaseEntries[size_t(Phase::Read)]), "1/op"},
      {"expander.ms", Per(C.ms(Phase::Expand)), "ms/op"},
      {"expander.macro_expansions", Per(C.count(Stat::MacroExpansions)), "1/op"},
      {"compile.ms", Per(C.ms(Phase::Compile)), "ms/op"},
      {"compile.nodes", Per(C.count(Stat::CompiledNodes)), "1/op"},
      {"compile.instrumented_nodes", Per(C.count(Stat::InstrumentedNodes)),
       "1/op"},
      {"profile.store_ms", Per(C.ms(Phase::ProfileStore)), "ms/op"},
      {"profile.load_ms", Per(C.ms(Phase::ProfileLoad)), "ms/op"},
      {"profile.fold_ms", Per(C.ms(Phase::CounterFold)), "ms/op"},
      {"profile.points_loaded", Per(C.count(Stat::ProfilePointsLoaded)), "1/op"},
      {"profile.queries", Per(C.count(Stat::ProfileQueries)), "1/op"},
      {"profile.counter_increments", Per(C.count(Stat::CounterIncrements)),
       "1/op"},
      {"eval.ms", Per(EvalSelf), "ms/op"},
      {"vm_compile.ms", Per(C.ms(Phase::VmCompile)), "ms/op"},
      {"tier.compile_ms", Per(C.ms(Phase::TierCompile)), "ms/op"},
      {"tier.ups", Per(C.count(Stat::TierUps)), "1/op"},
      {"tier.superinstructions_fused",
       Per(C.count(Stat::SuperinstructionsFused)), "1/op"},
      {"tier.inlines", Per(C.count(Stat::TierInlines)), "1/op"},
      {"tier.invalidations", Per(C.count(Stat::TierInvalidations)), "1/op"},
      {"tier.inline_fallback_ratio", C.inlineFallbackRatio(), "ratio"},
      {"bus.publishes", Per(C.count(Stat::BusPublishes)), "1/op"},
      {"bus.epochs", Per(C.count(Stat::BusEpochs)), "1/op"},
      {"bus.retier_promotions", Per(C.count(Stat::RetierPromotions)), "1/op"},
      {"bus.retier_demotions", Per(C.count(Stat::RetierDemotions)), "1/op"},
      {"bus.epoch_ratio", C.epochRatio(), "ratio"},
      {"heap.reclaim_ms", Per(C.ms(Phase::Reclaim)), "ms/op"},
      {"heap.reclaim_us_per_collection", C.reclaimUsPerCollection(), "us"},
      {"heap.collections", Per(C.HeapCollections), "1/op"},
      {"heap.major_collections", Per(C.HeapMajor), "1/op"},
      {"heap.bytes_allocated", Per(C.HeapAllocated), "B/op"},
      {"heap.bytes_evacuated", Per(C.HeapEvacuated), "B/op"},
      {"heap.survival_ratio", C.survivalRatio(), "ratio"},
      {"heap.reclaim_aborts", Per(C.HeapAborts), "1/op"},
      {"pool.busy_ms", Per(SpanMs("engine.evalString", false)), "ms/op"},
      {"pool.wait_ms", Per(SpanMs("pool.task", true) + SpanMs("request", true)),
       "ms/op"},
      {"pool.task_retries", static_cast<double>(Retries), "count"},
      {"threepass.pass1_ms", Per(SpanMs("threepass.pass1", false)), "ms/op"},
      {"threepass.pass2_ms", Per(SpanMs("threepass.pass2", false)), "ms/op"},
      {"threepass.pass3_ms", Per(SpanMs("threepass.pass3", false)), "ms/op"},
      {"trace.overhead_share", Overhead, "ratio"},
  };
}

/// The per-layer table: each layer's self time and share, then every
/// ratio with its base.
void printLayerTable(const LayerCounters &C, double Ops, const char *OpName,
                     const std::map<std::string, SpanTotals> &Spans) {
  std::printf("per-layer self time over %.0f %s(s):\n", Ops, OpName);
  std::printf("  %-26s %12s %12s %8s\n", "span", "count", "self ms",
              "ms/op");
  for (const auto &[Name, T] : Spans)
    std::printf("  %-26s %12llu %12.3f %8.4f\n", Name.c_str(),
                static_cast<unsigned long long>(T.Count),
                static_cast<double>(T.SelfNs) / 1e6,
                Ops > 0 ? static_cast<double>(T.SelfNs) / 1e6 / Ops : 0);
  std::printf("  %-26s %12s %12s %8s\n", "engine phase", "entries", "ms",
              "ms/op");
  for (size_t I = 0; I < NumPhases; ++I) {
    double Ms = C.PhaseNs[I] / 1e6;
    if (Ms == 0)
      continue;
    if (static_cast<Phase>(I) == Phase::Eval)
      Ms = std::max(0.0, Ms - C.ms(Phase::TierCompile));
    std::printf("  %-26s %12.0f %12.3f %8.4f%s\n",
                StatsRegistry::phaseName(static_cast<Phase>(I)),
                C.PhaseEntries[I], Ms, Ops > 0 ? Ms / Ops : 0,
                static_cast<Phase>(I) == Phase::Eval ? "  (minus tier-compile)"
                                                     : "");
  }
  std::printf("ratios with their bases:\n");
  std::printf("  heap.survival_ratio %.6g of %.4g B allocated\n",
              C.survivalRatio(), C.HeapAllocated);
  std::printf("  heap.reclaim_us_per_collection %.6g over %.0f collections\n",
              C.reclaimUsPerCollection(), C.HeapCollections);
  std::printf("  bus.epoch_ratio %.6g of %.0f publishes\n", C.epochRatio(),
              C.count(Stat::BusPublishes));
  std::printf("  tier.inline_fallback_ratio %.6g of %.0f inline attempts\n",
              C.inlineFallbackRatio(), C.inlineAttempts());
}

void printJson(bool Correct, const Tally &T, const std::vector<Metric> &Ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(T.Attempted),
              static_cast<unsigned long long>(T.Failed));
  for (size_t I = 0; I < Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                Ms[I].Unit.c_str());
  std::printf("}}\n");
}

void writeSpanFile(const Args &A, const std::vector<SpanLog> &Logs) {
  std::error_code EC;
  std::filesystem::create_directories(A.OutDir, EC);
  std::string Path = A.OutDir + "/spans-" + A.Workload + "-seed" +
                     std::to_string(A.Seed) + ".json";
  bool Ok = writeSpans(Logs, Path);
  std::printf("spans: %s%s\n", Path.c_str(), Ok ? "" : " (write failed)");
}

//===----------------------------------------------------------------------===//
// Drivers
//===----------------------------------------------------------------------===//

int runServe(const Args &A, const ServeWorkload &WL, Tally &T,
             std::vector<Metric> &Out) {
  std::printf("%s: receiver skew flips every %zu requests per worker, cache "
              "of %zu keys, %zu warm-up requests per worker\n",
              A.Workload.c_str(), FlipEvery, CacheKeys, WarmupRequests);
  // Set up repeatedly and report the median; the last server stays.
  Server S;
  std::vector<double> SetupS;
  uint64_t SetupEnd = nowNs() + static_cast<uint64_t>(SetupMinSeconds * 1e9);
  while (SetupS.size() < SetupMinReps ||
         (nowNs() < SetupEnd && SetupS.size() < SetupMaxReps)) {
    S = Server();
    uint64_t T0 = nowNs();
    T.merge(setUpServer(WL, A.Seed, S));
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }

  // --trace 1 alternates untraced and traced quarters, so warm-up and
  // drift fall on both sides of the overhead comparison. Engine stats
  // count only while enabled, i.e. in the traced quarters.
  size_t Slices = A.Trace ? 4 : 1;
  Phase2E Base, Traced;
  std::vector<SpanLog> Logs(Workers, SpanLog(true));
  LayerCounters C;
  unsigned RetriesBefore = S.Retries;
  for (size_t I = 0; I < Slices; ++I) {
    bool On = I % 2 == 1;
    std::vector<Heap::AllocStats> Before;
    for (size_t W = 0; W < Workers; ++W) {
      S.Pool->engine(W).context().Stats.enable(On);
      Before.push_back(S.Pool->engine(W).context().TheHeap.allocStats());
    }
    Phase2E P = timedReplay(S, A.Seconds / static_cast<double>(Slices),
                            On ? &Logs : nullptr, T);
    (On ? Traced : Base).append(P);
    for (size_t W = 0; On && W < Workers; ++W)
      C.addAllocDelta(S.Pool->engine(W).context().TheHeap.allocStats(),
                      Before[W]);
  }
  printE2E("untraced", Base, median(SetupS));
  if (!A.Trace) {
    Out = endToEnd(Base, median(SetupS));
    return 0;
  }
  printE2E("traced", Traced, median(SetupS));
  for (size_t W = 0; W < Workers; ++W)
    C.addStats(S.Pool->engine(W).stats());
  auto Spans = totalsByName(Logs);
  double Ops = static_cast<double>(Traced.LatMs.size());
  double Overhead =
      Traced.throughput() > 0 ? Base.throughput() / Traced.throughput() - 1
                              : 0;
  std::printf("tracing overhead: throughput %+.2f%%, p50 %+.2f%%, p90 "
              "%+.2f%%\n",
              -100 * Overhead / (1 + Overhead),
              100 * (quantile(Traced.LatMs, 0.5) / quantile(Base.LatMs, 0.5) - 1),
              100 * (quantile(Traced.LatMs, 0.9) / quantile(Base.LatMs, 0.9) - 1));
  for (size_t W = 0; W < Workers; ++W) {
    double Busy = 0, TaskMs = 0;
    for (const Span &Sp : Logs[W].spans()) {
      if (std::strcmp(Sp.Name, "engine.evalString") == 0)
        Busy += static_cast<double>(Sp.EndNs - Sp.StartNs) / 1e6;
      else if (std::strcmp(Sp.Name, "pool.task") == 0)
        TaskMs += static_cast<double>(Sp.EndNs - Sp.StartNs) / 1e6;
    }
    std::printf("worker %zu: busy %.3f ms, wait %.3f ms of %.3f ms\n", W, Busy,
                TaskMs - Busy, TaskMs);
  }
  printLayerTable(C, Ops, "request", Spans);
  writeSpanFile(A, Logs);
  Out = perLayer(C, Ops, Spans, S.Retries - RetriesBefore, Overhead);
  return 0;
}

int runBuild(const Args &A, Tally &T, std::vector<Metric> &Out) {
  Builder B;
  B.In = makeBuildInput(A.Seed);
  std::string Dir = A.OutDir + "/build-" + std::to_string(getpid());
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  B.Config.Libraries = B.In.Libraries;
  B.Config.ProgramSource = B.In.Program;
  B.Config.ProgramName = "dispatch.scm";
  B.Config.WorkloadSource = B.In.Workload;
  B.Config.SourceProfilePath = Dir + "/source.profile";
  B.Config.BlockProfilePath = Dir + "/block.profile";
  B.HitsExpr = "(vector";
  for (size_t I = 0; I < B.In.Hits.size(); ++I)
    B.HitsExpr += " hits-" + std::to_string(I);
  B.HitsExpr += ")";
  std::printf("build-3pass: %zu dispatchers, %zu calls, program %zu bytes, "
              "workload %zu bytes, %zu untimed and %zu timed runs per build\n",
              BuildDispatchers, BuildCalls, B.In.Program.size(),
              B.In.Workload.size(), WarmRunsPerBuild, RunsPerBuild);

  // --trace 1 alternates untraced and traced cycles; traced builds hand
  // back every pass's engine stats.
  SpanLog Off;
  std::vector<SpanLog> Logs(1, SpanLog(true));
  std::vector<ThreePassStageStats> Stages;
  BuildCycles Base, Traced;
  uint64_t Deadline = nowNs() + static_cast<uint64_t>(A.Seconds * 1e9);
  for (uint64_t Build = 0;
       nowNs() < Deadline || Base.BuildS.empty() ||
       (A.Trace && Traced.BuildS.empty());
       ++Build) {
    bool On = A.Trace && Build % 2 == 1;
    B.Config.StageStatsOut = On ? &Stages : nullptr;
    buildCycle(B, On ? Logs[0] : Off, T, Build, On ? Traced : Base);
  }
  std::filesystem::remove_all(Dir, EC);
  printE2E("untraced", Base.Runs, median(Base.BuildS));
  if (!A.Trace) {
    Out = endToEnd(Base.Runs, median(Base.BuildS));
    return 0;
  }
  printE2E("traced", Traced.Runs, median(Traced.BuildS));
  double Overhead = median(Traced.BuildS) / median(Base.BuildS) - 1;
  std::printf("tracing overhead: build %+.2f%%, run p50 %+.2f%%\n",
              100 * Overhead,
              100 * (quantile(Traced.Runs.LatMs, 0.5) /
                         quantile(Base.Runs.LatMs, 0.5) -
                     1));
  LayerCounters C;
  for (const ThreePassStageStats &St : Stages)
    C.addRendered(St.Rendered);
  double Builds = static_cast<double>(Traced.BuildS.size());
  double Runs = static_cast<double>(Traced.Runs.LatMs.size());
  auto Spans = totalsByName(Logs);
  printLayerTable(C, Builds, "build", Spans);
  std::printf("pass-3 program runs (%.0f): eval %.4f ms/run, read %.4f "
              "ms/run, %.0f B allocated/run\n",
              Runs, Traced.RunStats.ms(Phase::Eval) / Runs,
              Traced.RunStats.ms(Phase::Read) / Runs,
              Traced.RunStats.HeapAllocated / Runs);
  writeSpanFile(A, Logs);
  // Per-layer figures are per build; the runs' spans are not part of it.
  Spans.erase("run");
  Spans.erase("engine.evalString");
  Out = perLayer(C, Builds, Spans, 0, Overhead);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: pgmp_perfbench --workload serve-mix|serve-cache|"
               "build-3pass --seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 64;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    std::string Val = Argv[++I];
    if (Arg == "--workload")
      A.Workload = Val;
    else if (Arg == "--seed")
      A.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      A.Seconds = std::strtod(Val.c_str(), nullptr);
    else if (Arg == "--trace")
      A.Trace = Val == "1";
    else if (Arg == "--out-dir")
      A.OutDir = Val;
    else
      return usage();
  }
  if (!(A.Seconds > 0))
    return usage();

  std::printf("workload %s, seed %llu, %.3g s, trace %d, %zu workers\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0, Workers);
  Tally T;
  std::vector<Metric> Metrics;
  int Rc;
  if (A.Workload == "serve-mix")
    Rc = runServe(A, *makeServeMix(), T, Metrics);
  else if (A.Workload == "serve-cache")
    Rc = runServe(A, *makeServeCache(), T, Metrics);
  else if (A.Workload == "build-3pass")
    Rc = runBuild(A, T, Metrics);
  else
    return usage();

  double FailedShare =
      T.Attempted ? static_cast<double>(T.Failed) / static_cast<double>(T.Attempted)
                  : 1;
  std::printf("failed_share %.6g (%llu of %llu operations)\n", FailedShare,
              static_cast<unsigned long long>(T.Failed),
              static_cast<unsigned long long>(T.Attempted));
  if (T.Failed)
    std::printf("first failure: %s\n", T.FirstError.c_str());
  for (const Metric &M : Metrics)
    std::printf("  %-32s %.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  bool Correct = Rc == 0 && T.Failed == 0 && T.Attempted > 0;
  printJson(Correct, T, Metrics);
  return Correct ? 0 : 1;
}
