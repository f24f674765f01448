//===- profile/ProfileBus.h - Continuous profile aggregation --*- C++ -*-===//
///
/// \file
/// The hub of the continuous profiling service: running engines
/// periodically *publish* their sharded-counter totals to a ProfileBus,
/// which maintains a windowed, exponentially-decaying view of where the
/// hits are landing *right now* and republishes it as a monotonically
/// versioned **epoch** whenever the hot set shifts enough to matter.
/// Subscribing engines poll the (atomic) version at their ExecGuard poll
/// point and re-evaluate tier decisions mid-run — the ROADMAP's
/// "continuous profiling service with online re-tiering".
///
/// ## Model
///
/// - A *publisher* is one engine (one counter store). Publishes carry
///   cumulative totals; the bus differences consecutive publishes
///   internally, so publishing never perturbs the live counters and the
///   end-of-run fold stays byte-identical to a run with the bus off.
/// - A point's key crosses the bus once: intern() gives it a dense
///   *slot*, and publishes thereafter carry (slot, total) rows. The
///   point's place in key order ("file:begin-end", lexicographic) is
///   fixed at intern time too, so one beat — decay, delta, top-K
///   partial select, epoch build — is O(points) arithmetic with no
///   string work.
/// - The decayed estimate of point p after a publish is
///       decayed[p] = decayed[p] * alpha + delta[p],
///   with alpha = 2^(-1 / DecayHalfLife): a point's contribution halves
///   after DecayHalfLife further publishes reach the bus. The window is
///   therefore measured in *publishes*, which keeps the math independent
///   of wall clock and deterministic under test.
/// - The *hot set* is the top-K points by decayed estimate (K =
///   HotSetK, ties broken by point key). When the symmetric difference
///   between the current hot set and the one last published, divided by
///   the larger of the two sizes, reaches RetierThreshold, the bus builds
///   a new ProfileEpoch — every point with a live decayed estimate, with
///   weight = decayed / max-decayed — and bumps the version.
///
/// ## Threading
///
/// publish() and epoch() take one internal mutex; version() is a relaxed
/// atomic read so the subscriber fast path ("anything new?") costs one
/// load. Epochs are immutable shared_ptr payloads: a subscriber can hold
/// one while the bus publishes the next — publish-during-query never
/// tears. The happens-before edge for the epoch contents is the mutex in
/// epoch(); the version counter is published with release/acquire so a
/// reader that observes version N and then calls epoch() sees rows at
/// least as new as N.
///
/// Points cross the bus by *value* (BusPointKey mirrors SourceObject
/// identity) because each engine interns its own SourceObjects. Epoch
/// rows carry their slot, so a subscriber re-interns each point into its
/// own table once (first sight) and maps slots afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_PROFILE_PROFILEBUS_H
#define PGMP_PROFILE_PROFILEBUS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pgmp {

/// Engine-independent identity of one profile point (the fields of a
/// SourceObject, by value). Hashable so the bus can intern slots.
struct BusPointKey {
  std::string File;
  uint32_t Begin = 0;
  uint32_t End = 0;
  uint32_t Line = 1;
  uint32_t Column = 1;
  bool Generated = false;

  bool operator==(const BusPointKey &O) const {
    return Begin == O.Begin && End == O.End && File == O.File;
  }
  /// "file:begin-end", the same shape as SourceObject::key().
  std::string describe() const;
};

struct BusPointKeyHash {
  size_t operator()(const BusPointKey &K) const {
    size_t H = std::hash<std::string>()(K.File);
    H ^= (static_cast<size_t>(K.Begin) * 0x9E3779B97F4A7C15ull) ^
         (static_cast<size_t>(K.End) << 17);
    return H;
  }
};

/// One row of a published epoch: a point, its decayed weight in [0,1]
/// (normalized by the epoch's hottest point), and its raw cumulative
/// count across all publishers.
struct ProfileEpochRow {
  BusPointKey Key;
  double Weight = 0;
  uint64_t Count = 0;
  uint32_t Slot = 0; ///< the point's bus slot (ProfileBus::intern)
};

/// An immutable published profile epoch. Rows are sorted by point key so
/// two identical aggregation states render identical epochs.
struct ProfileEpoch {
  uint64_t Version = 0;
  std::vector<ProfileEpochRow> Rows;
};

struct ProfileBusOptions {
  /// Publishes after which a point's decayed contribution halves.
  double DecayHalfLife = 8.0;
  /// Hot-set churn fraction (symmetric difference / larger set) at or
  /// above which a new epoch is published.
  double RetierThreshold = 0.25;
  /// Size of the tracked hot set.
  size_t HotSetK = 16;
};

/// In-process aggregator for continuous profiling. See file comment.
class ProfileBus {
public:
  /// Cumulative (slot, total) rows; slots come from intern().
  using SlotRows = std::vector<std::pair<uint32_t, uint64_t>>;
  /// Cumulative (point, total) rows, interned on every publish: the
  /// convenience form for tests and one-off publishers.
  using TotalsRows = std::vector<std::pair<BusPointKey, uint64_t>>;

  explicit ProfileBus(const ProfileBusOptions &Opts = {});

  /// Registers one publishing engine; returns its publisher id.
  uint64_t addPublisher();

  /// The slot of \p Key, assigned on first sight and stable for the
  /// bus's lifetime. Publishers cache it per point.
  uint32_t intern(const BusPointKey &Key);

  /// Publishes \p Totals (cumulative counts) for \p Publisher. Totals
  /// lower than the previous publish are treated as a counter reset (the
  /// engine folded its counters) and re-based. Returns the bus version
  /// after aggregation — possibly freshly bumped.
  uint64_t publish(uint64_t Publisher, const SlotRows &Totals);
  uint64_t publish(uint64_t Publisher, const TotalsRows &Totals);

  /// Current epoch version; 0 until the first epoch is published.
  /// Subscribers poll this (one atomic load) before fetching the epoch.
  uint64_t version() const { return Ver.load(std::memory_order_acquire); }

  /// The current epoch, or nullptr before the first publication. The
  /// returned payload is immutable and safe to hold across publishes.
  std::shared_ptr<const ProfileEpoch> epoch() const;

  //===--------------------------------------------------------------------===//
  // Observability
  //===--------------------------------------------------------------------===//

  uint64_t publishes() const;       ///< publish() calls aggregated
  uint64_t epochsPublished() const; ///< versions ever bumped (== version())
  size_t numPoints() const;         ///< distinct points ever seen

private:
  /// Aggregation state of one point.
  struct PointState {
    BusPointKey Key;
    double Decayed = 0;
    uint64_t Total = 0;
    uint32_t Rank = 0; ///< position of Key.describe() in KeyOrder
  };

  uint32_t internLocked(const BusPointKey &Key);

  /// Recomputes the hot set and publishes a new epoch when it churned
  /// past the threshold. Caller holds Mu.
  void maybePublishEpochLocked();

  const ProfileBusOptions Opts;
  const double Alpha; ///< per-publish decay factor 2^(-1/DecayHalfLife)

  mutable std::mutex Mu;
  std::vector<PointState> Points;
  std::unordered_map<BusPointKey, uint32_t, BusPointKeyHash> Index;
  /// Slots sorted by describe(), with the strings they sort by; touched
  /// only when a point is first interned.
  std::vector<uint32_t> KeyOrder;
  std::vector<std::string> KeyOrderNames;
  /// Scratch for the hot-set select, kept to avoid a per-beat allocation.
  std::vector<uint32_t> Live;
  /// Per publisher: last seen cumulative total per point slot.
  std::vector<std::vector<uint64_t>> LastTotals;
  /// Point slots of the hot set in the last published epoch, ascending.
  std::vector<uint32_t> PublishedHotSet;
  std::shared_ptr<const ProfileEpoch> Current;
  uint64_t NumPublishes = 0;

  std::atomic<uint64_t> Ver{0};
};

} // namespace pgmp

#endif // PGMP_PROFILE_PROFILEBUS_H
