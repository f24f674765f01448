//===- perfbench/src/Workloads.h - Seeded inputs and their answers -*- C++ -*-===//
///
/// \file
/// The benchmark's input generators. Every workload is a pure function of
/// the command-line seed: the engine receives only the generated program
/// text and request strings, and every request carries the value a C++
/// model of the same computation says it must return, so a wrong answer
/// is caught without trusting the engine under test.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What a request must evaluate to: an exact integer, or a real compared
/// with a relative tolerance (the shape areas sum flonums).
struct Expected {
  bool Real = false;
  int64_t Int = 0;
  double Dbl = 0;
};

struct Request {
  std::string Text;
  Expected Want;
};

/// One serve client's request stream. Requests depend only on the seed,
/// the worker index and the position in the stream; a stream carries the
/// model state (the serve-cache contents) its answers depend on.
class RequestStream {
public:
  virtual ~RequestStream() = default;
  virtual void next(Request &Out) = 0;
};

/// A `pgmpi serve`-style workload: libraries and a program every worker
/// loads instrumented, then a per-worker stream of requests.
struct ServeWorkload {
  std::vector<std::string> Libraries;
  std::string Program;
  /// Leading requests of every stream that belong to set-up (the cache
  /// prefill), not to the measured replay.
  size_t PrefillRequests = 0;
  virtual ~ServeWorkload() = default;
  virtual std::unique_ptr<RequestStream> stream(uint64_t Seed,
                                                size_t Worker) const = 0;
};

/// Requests mix the Fig. 5 parser, Circle/Square receiver dispatch whose
/// class skew flips every FlipEvery requests, and a nested numeric loop.
std::unique_ptr<ServeWorkload> makeServeMix();

/// Requests put, get and build temporaries against a per-worker `equal`
/// hashtable cache holding CacheKeys keys.
std::unique_ptr<ServeWorkload> makeServeCache();

/// The Section 4.3 input: a generated program of `case` dispatchers, each
/// with a `method` call site, and a workload that drives them.
struct BuildInput {
  std::vector<std::string> Libraries;
  std::string Program;
  /// Defines the call vector, resets the counters and runs it once; what
  /// passes 1 and 2 evaluate.
  std::string Workload;
  /// Re-runs the already defined call vector on a built program.
  std::string Rerun;
  /// hits-I after one run of the workload, from the C++ model.
  std::vector<int64_t> Hits;
};

BuildInput makeBuildInput(uint64_t Seed);

/// Input sizes; every run prints them with its results.
inline constexpr size_t FlipEvery = 4096;
inline constexpr size_t CacheKeys = 512;
inline constexpr size_t BuildDispatchers = 48;
inline constexpr size_t BuildCalls = 144;

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
