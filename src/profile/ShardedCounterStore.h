//===- profile/ShardedCounterStore.h - Parallel counters ------*- C++ -*-===//
///
/// \file
/// The engine's execution counters: one 64-bit counter per profile
/// point, kept as one counter *page* (shard) per incrementing thread, so
/// the per-hit cost stays a single memory increment on thread-private
/// memory — no atomics, no false sharing, no lock on the hot path. The
/// paper's profiling model (one counter bump per hit, Section 4.1)
/// survives parallel workloads unchanged.
///
/// ## Contract
///
/// - `counterFor(Src)` returns a pointer that stays valid until clear(),
///   and instrumented code bumps it with a plain `++*p`. The pointer
///   refers to the *calling thread's* shard slot for `Src`; each thread
///   that compiles instrumented code gets its own page. Registration
///   (the cold path, compile time only) takes a mutex; increments (the
///   hot path) are lock-free.
///
/// - Aggregation (`count`, `maxCount`, `totalIncrements`, `snapshot`)
///   sums the slot across all shards. It is *epoch-based*: aggregate only
///   at a quiescent point, i.e. after every incrementing thread has been
///   joined with (or otherwise synchronized against) the aggregating
///   thread. EnginePool joins its workers before merging, which is what
///   makes the whole scheme ThreadSanitizer-clean without per-increment
///   atomics. `reset()` ends the current epoch: counters drop to zero,
///   registrations and previously returned pointers stay valid.
///
/// - `snapshot()` returns (point, summed count) pairs in registration
///   order, so ProfileDatabase::addDataset produces bit-identical weights
///   whether the counts were collected on one thread or sixteen.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_PROFILE_SHARDEDCOUNTERSTORE_H
#define PGMP_PROFILE_SHARDEDCOUNTERSTORE_H

#include "profile/SourceObject.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace pgmp {

class StatsRegistry;

/// Per-thread sharded counters for one profiled (possibly parallel)
/// execution. See the file comment for the threading contract.
class ShardedCounterStore {
public:
  ShardedCounterStore();
  ~ShardedCounterStore();
  ShardedCounterStore(const ShardedCounterStore &) = delete;
  ShardedCounterStore &operator=(const ShardedCounterStore &) = delete;

  /// Returns a stable pointer to the *calling thread's* counter slot for
  /// \p Src, creating the registration and/or this thread's shard on
  /// first use. Safe to call from any thread.
  uint64_t *counterFor(const SourceObject *Src);

  /// Count for \p Src summed over all shards, or 0 if never instrumented.
  /// Requires quiescence (see file comment).
  uint64_t count(const SourceObject *Src) const;

  /// Largest aggregated counter value (0 when empty) — the weight
  /// denominator. Requires quiescence.
  uint64_t maxCount() const;

  /// Sum of all counter values across all shards — the total number of
  /// instrumented-code counter bumps this epoch. Requires quiescence.
  uint64_t totalIncrements() const;

  /// All (point, summed count) pairs, in registration order. Requires
  /// quiescence.
  std::vector<std::pair<const SourceObject *, uint64_t>> snapshot() const;

  /// Ends the current epoch: zeroes every slot in every shard. Keeps
  /// registrations, shards, and previously returned pointers valid.
  void reset();

  /// Drops all registrations and shards. Invalidates every pointer
  /// counterFor ever returned; only safe when no instrumented code that
  /// holds them can run again.
  void clear();

  size_t size() const;      ///< number of registered profile points
  size_t numShards() const; ///< shards (incrementing threads) this epoch
  uint64_t epoch() const;   ///< epochs ended so far (reset() count)

  /// Optional self-metrics sink: shard creations and shard-merge
  /// operations are bumped on \p S (Stat::CounterShards / ShardMerges).
  void setStats(StatsRegistry *S) { Stats = S; }

private:
  /// One thread's counter page. A deque grows without moving existing
  /// slots, which is what keeps counterFor's pointers stable.
  struct Shard {
    std::deque<uint64_t> Slots;
  };

  /// Returns the calling thread's shard, creating and registering it on
  /// first use. Caller holds Mu.
  Shard &localShardLocked();

  /// Aggregated value of slot \p Slot across all shards. Caller holds Mu.
  uint64_t sumSlotLocked(size_t Slot) const;

  mutable std::mutex Mu;
  std::vector<std::unique_ptr<Shard>> Shards;
  std::vector<const SourceObject *> Order;
  std::unordered_map<const SourceObject *, size_t> Index;
  uint64_t Epoch = 0;
  /// Distinguishes this store (and its lifetime generation) in the
  /// per-thread shard registry; never reused, so a dead store's stale
  /// thread-local entries can never resolve to a live store's shards.
  const uint64_t StoreId;
  uint64_t Generation = 0; ///< bumped by clear() to orphan old shards
  StatsRegistry *Stats = nullptr;
};

} // namespace pgmp

#endif // PGMP_PROFILE_SHARDEDCOUNTERSTORE_H
