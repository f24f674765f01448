//===- support/FaultInjector.h - General fault-injection harness -*- C++ -*-===//
///
/// \file
/// Named fault points at the pipeline's phase boundaries, generalizing
/// the one-shot byte-level iofault hooks of support/AtomicFile.h one
/// layer up: where iofault breaks a single writeFileAtomic call mid-write,
/// a faultinject Point makes a whole phase (read, expand, compile,
/// tier-compile, profile store/load) or an arena chunk acquisition fail
/// cleanly, so tests — and `pgmpi --inject-fault` — can prove that every
/// stage of the system recovers instead of crashing or corrupting state.
///
/// Arming is one-shot with an optional skip count: `arm(P, N)` makes the
/// (N+1)-th hit of point P fire, then the injector disarms itself, so a
/// leaked arm can never poison later operations. The state is a pair of
/// atomics — pool worker threads may hit points concurrently and exactly
/// one of them consumes the fault.
///
/// What firing means is decided at the call site: phase points raise a
/// SchemeError ("injected fault at <point>"), the Alloc point raises a
/// GuardTrip with GuardKind::Heap (an out-of-memory dress rehearsal), and
/// the profile points surface as failed ProfileOpResults with counters
/// preserved — each point exercises the recovery path its phase really
/// has.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_SUPPORT_FAULTINJECTOR_H
#define PGMP_SUPPORT_FAULTINJECTOR_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pgmp {
namespace faultinject {

/// The named fault points. Phase points fire at the start of their phase
/// for one top-level form; Alloc fires in Heap::allocateSlow (chunk
/// acquisition, i.e. a simulated malloc failure); the profile points fire
/// before any state is mutated. Rows: identifier, stable name.
#define PGMP_FAULT_POINTS(X)                                                   \
  X(None, "none")                                                              \
  X(Read, "read")                 /* reader: next top-level form */            \
  X(Expand, "expand")             /* hygienic expansion of one form */         \
  X(Compile, "compile")           /* core syntax -> Expr IR */                 \
  X(TierCompile, "tier-compile")  /* tier-up (recovers interpreted) */         \
  X(ProfileStore, "profile-store") /* storeProfile, before serializing */      \
  X(ProfileLoad, "profile-load")  /* loadProfile, before reading */            \
  X(Alloc, "alloc")               /* arena chunk acquisition */

enum class Point : uint8_t {
#define PGMP_FAULT_POINT_ENUM(Id, Name) Id,
  PGMP_FAULT_POINTS(PGMP_FAULT_POINT_ENUM)
#undef PGMP_FAULT_POINT_ENUM
};
#define PGMP_FAULT_POINT_COUNT(Id, Name) +1
inline constexpr size_t NumPoints = 0 PGMP_FAULT_POINTS(PGMP_FAULT_POINT_COUNT);
#undef PGMP_FAULT_POINT_COUNT

/// Arms point \p P: its (Skip+1)-th hit fires, then the injector
/// disarms. Re-arming overwrites any pending fault.
void arm(Point P, uint64_t Skip = 0);

/// Clears any armed fault.
void disarm();

/// True while a fault is armed (not yet consumed).
bool armed();

/// Called by instrumented call sites: returns true exactly once, on the
/// armed point's firing hit (consuming the fault). Thread-safe; at most
/// one caller observes true per arm().
bool shouldFail(Point P);

/// Stable lower-case name ("read", "expand", ..., "alloc").
const char *pointName(Point P);

/// Parses a point name as printed by pointName; Point::None on no match.
Point parsePoint(std::string_view Name);

} // namespace faultinject
} // namespace pgmp

#endif // PGMP_SUPPORT_FAULTINJECTOR_H
