//===- support/FaultInjector.cpp ------------------------------------------===//

#include "support/FaultInjector.h"

#include <atomic>

using namespace pgmp;
using faultinject::Point;

namespace {

/// Process-global armed state. Two atomics instead of one struct under a
/// mutex: shouldFail sits on pipeline paths that pool workers run
/// concurrently, and the disarmed fast path must stay a single relaxed
/// load.
std::atomic<uint8_t> ArmedPoint{static_cast<uint8_t>(Point::None)};
std::atomic<int64_t> HitsUntilFire{0};

} // namespace

void pgmp::faultinject::arm(Point P, uint64_t Skip) {
  // Order matters for concurrent shouldFail callers: publish the
  // countdown before the point so no thread can fire on a stale count.
  HitsUntilFire.store(static_cast<int64_t>(Skip) + 1,
                      std::memory_order_relaxed);
  ArmedPoint.store(static_cast<uint8_t>(P), std::memory_order_release);
}

void pgmp::faultinject::disarm() {
  ArmedPoint.store(static_cast<uint8_t>(Point::None),
                   std::memory_order_release);
}

bool pgmp::faultinject::armed() {
  return ArmedPoint.load(std::memory_order_acquire) !=
         static_cast<uint8_t>(Point::None);
}

bool pgmp::faultinject::shouldFail(Point P) {
  if (ArmedPoint.load(std::memory_order_acquire) != static_cast<uint8_t>(P))
    return false;
  // Exactly one hitter reaches zero; it disarms the point and fires.
  if (HitsUntilFire.fetch_sub(1, std::memory_order_acq_rel) != 1)
    return false;
  disarm();
  return true;
}

const char *pgmp::faultinject::pointName(Point P) {
#define PGMP_FAULT_POINT_NAME(Id, Name) Name,
  static constexpr const char *Names[] = {
      PGMP_FAULT_POINTS(PGMP_FAULT_POINT_NAME)};
#undef PGMP_FAULT_POINT_NAME
  return Names[static_cast<size_t>(P)];
}

Point pgmp::faultinject::parsePoint(std::string_view Name) {
  for (size_t I = 1; I < NumPoints; ++I) {
    Point P = static_cast<Point>(I);
    if (Name == pointName(P))
      return P;
  }
  return Point::None;
}
