//===- profile/ProfileBus.cpp ---------------------------------------------===//

#include "profile/ProfileBus.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace pgmp;

std::string BusPointKey::describe() const {
  return File + ":" + std::to_string(Begin) + "-" + std::to_string(End);
}

ProfileBus::ProfileBus(const ProfileBusOptions &O)
    : Opts(O),
      Alpha(O.DecayHalfLife > 0 ? std::exp2(-1.0 / O.DecayHalfLife) : 0.0) {}

uint64_t ProfileBus::addPublisher() {
  std::lock_guard<std::mutex> Lock(Mu);
  LastTotals.emplace_back();
  return LastTotals.size() - 1;
}

uint32_t ProfileBus::intern(const BusPointKey &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  return internLocked(Key);
}

uint32_t ProfileBus::internLocked(const BusPointKey &Key) {
  auto [It, Inserted] =
      Index.try_emplace(Key, static_cast<uint32_t>(Points.size()));
  if (!Inserted)
    return It->second;
  uint32_t Slot = It->second;
  // Place the point in key order once; every later comparison is by rank.
  std::string Name = Key.describe();
  size_t Pos = std::lower_bound(KeyOrderNames.begin(), KeyOrderNames.end(),
                                Name) -
               KeyOrderNames.begin();
  KeyOrderNames.insert(KeyOrderNames.begin() + Pos, std::move(Name));
  KeyOrder.insert(KeyOrder.begin() + Pos, Slot);
  Points.push_back(PointState{Key, 0.0, 0, 0});
  for (size_t R = Pos; R < KeyOrder.size(); ++R)
    Points[KeyOrder[R]].Rank = static_cast<uint32_t>(R);
  return Slot;
}

uint64_t ProfileBus::publish(uint64_t Publisher, const TotalsRows &Totals) {
  SlotRows Rows;
  Rows.reserve(Totals.size());
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const auto &[Key, Total] : Totals)
      Rows.emplace_back(internLocked(Key), Total);
  }
  return publish(Publisher, Rows);
}

uint64_t ProfileBus::publish(uint64_t Publisher, const SlotRows &Totals) {
  std::lock_guard<std::mutex> Lock(Mu);
  assert(Publisher < LastTotals.size() && "publish from unregistered engine");
  std::vector<uint64_t> &Last = LastTotals[Publisher];
  if (Last.size() < Points.size())
    Last.resize(Points.size(), 0);

  // Decay first: the whole accumulator ages by one publish, then this
  // publish's deltas land at full strength. Points absent from Totals
  // (registered by other engines) decay toward zero and eventually fall
  // out of the hot set — that is the "stale hot mark" path.
  for (PointState &P : Points)
    P.Decayed *= Alpha;

  for (const auto &[Slot, Total] : Totals) {
    assert(Slot < Points.size() && "publish of an uninterned slot");
    // Counters only grow between publishes; a lower total means the
    // engine folded (reset) its counters, so the whole total is new.
    uint64_t Delta = Total >= Last[Slot] ? Total - Last[Slot] : Total;
    Last[Slot] = Total;
    Points[Slot].Decayed += static_cast<double>(Delta);
    Points[Slot].Total += Delta;
  }

  ++NumPublishes;
  maybePublishEpochLocked();
  return Ver.load(std::memory_order_relaxed);
}

void ProfileBus::maybePublishEpochLocked() {
  // Current hot set: top-K slots by decayed estimate (desc), key order
  // (asc) as the deterministic tiebreak. Slots that decayed to ~nothing
  // never qualify, so an idle point cannot linger in the hot set.
  Live.clear();
  for (uint32_t I = 0; I < Points.size(); ++I)
    if (Points[I].Decayed > 1e-9)
      Live.push_back(I);
  if (Live.empty())
    return;
  size_t K = std::min(Opts.HotSetK, Live.size());
  std::partial_sort(Live.begin(), Live.begin() + K, Live.end(),
                    [&](uint32_t A, uint32_t B) {
                      if (Points[A].Decayed != Points[B].Decayed)
                        return Points[A].Decayed > Points[B].Decayed;
                      return Points[A].Rank < Points[B].Rank;
                    });
  std::vector<uint32_t> Hot(Live.begin(), Live.begin() + K);
  std::sort(Hot.begin(), Hot.end());

  // Churn = |symmetric difference| / max(|old|, |new|). First nonempty
  // hot set always publishes (PublishedHotSet empty → churn 1).
  size_t Common = 0;
  for (size_t I = 0, J = 0; I < PublishedHotSet.size() && J < Hot.size();) {
    if (PublishedHotSet[I] < Hot[J])
      ++I;
    else if (Hot[J] < PublishedHotSet[I])
      ++J;
    else
      ++Common, ++I, ++J;
  }
  size_t Larger = std::max(PublishedHotSet.size(), Hot.size());
  size_t SymDiff = PublishedHotSet.size() + Hot.size() - 2 * Common;
  double Churn = static_cast<double>(SymDiff) / Larger;
  if (!PublishedHotSet.empty() && Churn < Opts.RetierThreshold)
    return;

  // Build the epoch: every live point in key order, weight normalized by
  // the hottest.
  double MaxDecayed = 0;
  for (const PointState &P : Points)
    MaxDecayed = std::max(MaxDecayed, P.Decayed);
  auto Epoch = std::make_shared<ProfileEpoch>();
  Epoch->Rows.reserve(Live.size());
  for (uint32_t Slot : KeyOrder) {
    const PointState &P = Points[Slot];
    if (P.Decayed <= 1e-9)
      continue;
    Epoch->Rows.push_back(
        ProfileEpochRow{P.Key, P.Decayed / MaxDecayed, P.Total, Slot});
  }

  PublishedHotSet = std::move(Hot);
  Epoch->Version = Ver.load(std::memory_order_relaxed) + 1;
  Current = std::move(Epoch);
  // Release pairs with the acquire in version(): a subscriber that sees
  // the new version will also see the epoch pointer via the mutex in
  // epoch().
  Ver.store(Current->Version, std::memory_order_release);
}

std::shared_ptr<const ProfileEpoch> ProfileBus::epoch() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Current;
}

uint64_t ProfileBus::publishes() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return NumPublishes;
}

uint64_t ProfileBus::epochsPublished() const {
  return Ver.load(std::memory_order_acquire);
}

size_t ProfileBus::numPoints() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Points.size();
}
