//===- perfbench/src/Spans.h - In-memory spans for the traced run -*- C++ -*-===//
///
/// \file
/// Spans recorded by the benchmark around its calls into the library
/// (EnginePool::run, Engine::evalString, runPassOne/Two/Three). Each
/// thread owns one SpanLog, so recording takes no lock; the logs are
/// merged after the threads are joined. A span has a name, start, end,
/// parent and the id of the request (or build) it belongs to. Nothing is
/// recorded when the log is off, which is how the untraced runs use it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

uint64_t nowNs();

struct Span {
  const char *Name;    ///< a string literal
  int32_t Parent;      ///< index in the same log, -1 for a root
  uint64_t Req;        ///< request or build id shared by its spans
  uint64_t StartNs = 0, EndNs = 0;
};

class SpanLog {
public:
  explicit SpanLog(bool On = false) : On(On) {}
  bool on() const { return On; }

  /// Opens a span under the innermost open one; returns its index (or -1
  /// when the log is off).
  int32_t begin(const char *Name, uint64_t Req);
  void end(int32_t Id);

  const std::vector<Span> &spans() const { return Spans; }

private:
  bool On;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};

/// Closes the span on scope exit.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &L, const char *Name, uint64_t Req)
      : L(L), Id(L.begin(Name, Req)) {}
  ~ScopedSpan() { L.end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog &L;
  int32_t Id;
};

/// Per-name totals: span count, summed duration, and self time (duration
/// minus the part covered by child spans).
struct SpanTotals {
  uint64_t Count = 0;
  uint64_t TotalNs = 0;
  uint64_t SelfNs = 0;
};

std::map<std::string, SpanTotals> totalsByName(const std::vector<SpanLog> &Logs);

/// Writes every span as Chrome trace_event JSON ("ph":"X", one tid per
/// log, parent and request id in args). Returns false on I/O failure.
bool writeSpans(const std::vector<SpanLog> &Logs, const std::string &Path);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
