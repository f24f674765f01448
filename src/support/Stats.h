//===- support/Stats.h - Pipeline self-metrics ----------------*- C++ -*-===//
///
/// \file
/// Observability for the pipeline itself: per-phase wall-clock timers
/// (read / expand / compile / eval / counter-fold / profile I/O) and
/// profiler self-metric counters (instrumented-vs-total compiles,
/// annotate-expr calls, dataset merges, counter increments, ...). The
/// paper argues profile data must be a first-class, inspectable input to
/// compilation; the same standard applied to our own pipeline means the
/// cost of profiling — Section 4's instrumentation overhead — is a
/// measured number, not folklore.
///
/// Everything is near-zero cost when disabled: counters are a single
/// predictable branch, and ScopedPhase reads the clock only when stats or
/// tracing is actually on. Nothing here is threaded through the per-node
/// evaluator hot loop — phases wrap top-level pipeline stages only.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_SUPPORT_STATS_H
#define PGMP_SUPPORT_STATS_H

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pgmp {

class TraceSink;

/// X-macro of the pipeline stages with an accumulated wall-clock timer:
/// identifier, stable report name. Row order is the (pgmp-stats) and
/// --stats order.
#define PGMP_PHASES(X)                                                         \
  X(Read, "read")                 /* reader: text -> syntax */                 \
  X(Expand, "expand")             /* hygienic expansion + transformers */      \
  X(Compile, "compile")           /* core syntax -> Expr IR */                 \
  X(VmCompile, "vm-compile")      /* Expr IR -> bytecode */                    \
  X(Eval, "eval")                 /* interpreter / VM execution */             \
  X(CounterFold, "counter-fold")  /* live counters -> profile database */      \
  X(ProfileStore, "profile-store") /* serialize + atomically write */          \
  X(ProfileLoad, "profile-load")  /* read + parse + merge a profile */         \
  X(TierCompile, "tier-compile")  /* hot lambdas -> bytecode (tier-up) */      \
  X(Reclaim, "reclaim")           /* boundary region reclamation */            \
  X(Bus, "bus")                   /* bus publish + epoch apply */

/// X-macro of the profiler self-metric counters: identifier, stable
/// report name, in report order.
#define PGMP_STATS(X)                                                          \
  X(CompiledUnits, "compiled-units")         /* top-level forms compiled */    \
  X(CompiledNodes, "compiled-nodes")         /* Expr nodes built */            \
  X(InstrumentedNodes, "instrumented-nodes") /* nodes with a counter */        \
  X(MacroExpansions, "macro-expansions")     /* transformer invocations */     \
  X(AnnotateExprCalls, "annotate-expr-calls") /* C++ or Scheme level */        \
  X(PointsCreated, "profile-points-created") /* make-profile-point calls */    \
  X(ProfileQueries, "profile-queries")       /* profile-query(*) calls */      \
  X(DatasetMerges, "dataset-merges")         /* data sets folded/loaded */     \
  X(CounterIncrements, "counter-increments") /* bumps, summed at fold */       \
  X(ProfileStores, "profile-stores")         /* store-profile attempts */      \
  X(ProfileLoads, "profile-loads")           /* load-profile attempts */       \
  X(ProfilePointsLoaded, "profile-points-loaded") /* records merged */         \
  X(CounterShards, "counter-shards")         /* per-thread shards created */   \
  X(ShardMerges, "shard-merges")             /* shard pages aggregated */      \
  X(TierUps, "tier-ups")                     /* lambdas given bytecode */      \
  X(TierCompileFails, "tier-compile-fails")  /* rejected tier-ups */           \
  X(TierPremarkedHot, "tier-premarked-hot")  /* hot from a loaded profile */   \
  X(GuardTrips, "guard-trips")               /* runs an ExecGuard aborted */   \
  X(TaskRetries, "task-retries")             /* EnginePool task re-runs */     \
  X(BusPublishes, "bus-publishes")           /* snapshots sent to the bus */   \
  X(BusEpochs, "bus-epochs")                 /* bus epochs applied */          \
  X(RetierPromotions, "retier-promotions")   /* marked hot by an epoch */      \
  X(RetierDemotions, "retier-demotions")     /* stale-hot demoted */           \
  X(SuperinstructionsFused, "superinstructions-fused") /* at tier-up */        \
  X(TierInlines, "tier-inlines")             /* calls inlined at tier-up */    \
  X(TierInlineFallbacks, "tier-inline-fallbacks") /* inlines over a cap */     \
  X(FusionEpochs, "fusion-epochs")           /* fusion re-selections */        \
  X(TierInvalidations, "tier-invalidations") /* bodies a fusion epoch drops */ \
  X(Reclaims, "reclaims")                    /* boundary reclamations run */   \
  X(ReclaimAborts, "reclaim-aborts")         /* evac alloc failures */         \
  X(ReclaimPolicyEpochs, "reclaim-policy-epochs") /* policy re-selections */

#define PGMP_STATS_ENUM(Id, Name) Id,
#define PGMP_STATS_COUNT(Id, Name) +1
enum class Phase : uint8_t { PGMP_PHASES(PGMP_STATS_ENUM) };
inline constexpr size_t NumPhases = 0 PGMP_PHASES(PGMP_STATS_COUNT);
enum class Stat : uint8_t { PGMP_STATS(PGMP_STATS_ENUM) };
inline constexpr size_t NumStats = 0 PGMP_STATS(PGMP_STATS_COUNT);
#undef PGMP_STATS_ENUM
#undef PGMP_STATS_COUNT

/// Monotonic clock in nanoseconds (steady_clock).
uint64_t statsNowNanos();

/// Accumulates phase timings and self-metric counters for one Context.
/// Disabled by default; when disabled, bump() and addPhaseTime() are
/// no-ops behind one branch and nothing reads the clock.
class StatsRegistry {
public:
  void enable(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  void bump(Stat S, uint64_t N = 1) {
    if (Enabled)
      Counts[static_cast<size_t>(S)] += N;
  }
  uint64_t count(Stat S) const { return Counts[static_cast<size_t>(S)]; }

  void addPhaseTime(Phase P, uint64_t Nanos) {
    if (!Enabled)
      return;
    PhaseAccum &A = Phases[static_cast<size_t>(P)];
    A.Nanos += Nanos;
    ++A.Entries;
  }
  uint64_t phaseNanos(Phase P) const {
    return Phases[static_cast<size_t>(P)].Nanos;
  }
  uint64_t phaseEntries(Phase P) const {
    return Phases[static_cast<size_t>(P)].Entries;
  }

  /// Zeroes all counters and timers; keeps the enabled flag.
  void reset();

  /// Callback appending externally owned (name, value) rows — used by the
  /// Context to expose the heap's always-on allocation counters through
  /// the same snapshot/render surface without the allocator paying a
  /// stats-enabled branch. \p Source is the opaque provider pointer.
  using ExtraStatsFn = void (*)(const void *Source,
                                std::vector<std::pair<std::string, uint64_t>> &);

  /// Registers (or clears, with nullptr) the extra-stats provider. The
  /// provider must outlive the registry's snapshot()/render() calls.
  void setExtraSource(ExtraStatsFn Fn, const void *Source) {
    ExtraFn = Fn;
    ExtraSource = Source;
  }

  /// Deterministically ordered (name, value) pairs: every counter, then
  /// per-phase entry counts and nanoseconds, then any extra-source rows.
  /// Feeds (pgmp-stats) and the --stats report.
  std::vector<std::pair<std::string, uint64_t>> snapshot() const;

  /// Adds \p O into this registry: counters and phase timers slot by
  /// slot, extra-source rows by name in first-seen order (a heap lists
  /// only its non-zero kinds and sites). An EnginePool's --stats table is
  /// a fresh registry with every worker merged in.
  void merge(const StatsRegistry &O);

  /// Human-readable multi-line summary (counters + phase timings + any
  /// non-zero extra-source rows).
  std::string render() const;

  static const char *phaseName(Phase P);
  static const char *statName(Stat S);

private:
  /// Merged rows, then the extra source's own rows.
  std::vector<std::pair<std::string, uint64_t>> extraRows() const;

  struct PhaseAccum {
    uint64_t Nanos = 0;
    uint64_t Entries = 0;
  };
  bool Enabled = false;
  std::array<uint64_t, NumStats> Counts{};
  std::array<PhaseAccum, NumPhases> Phases{};
  /// Extra-source rows folded in by merge().
  std::vector<std::pair<std::string, uint64_t>> MergedExtra;
  ExtraStatsFn ExtraFn = nullptr;
  const void *ExtraSource = nullptr;
};

/// RAII phase timer: accumulates into a StatsRegistry and (optionally)
/// emits one Chrome trace_event per scope. Reads the clock only when
/// stats or tracing is enabled, so a disabled pipeline pays one branch
/// per phase boundary, not per expression.
class ScopedPhase {
public:
  ScopedPhase(StatsRegistry &Stats, TraceSink *Trace, Phase P);
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase &) = delete;
  ScopedPhase &operator=(const ScopedPhase &) = delete;

private:
  StatsRegistry &Stats;
  TraceSink *Trace;
  Phase P;
  uint64_t StartNs = 0;
  bool Active;
};

} // namespace pgmp

#endif // PGMP_SUPPORT_STATS_H
