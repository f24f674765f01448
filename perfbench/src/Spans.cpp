//===- perfbench/src/Spans.cpp --------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

using namespace perfbench;

uint64_t perfbench::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int32_t SpanLog::begin(const char *Name, uint64_t Req) {
  if (!On)
    return -1;
  int32_t Parent = Open.empty() ? -1 : Open.back();
  Spans.push_back(Span{Name, Parent, Req, nowNs(), 0});
  int32_t Id = static_cast<int32_t>(Spans.size() - 1);
  Open.push_back(Id);
  return Id;
}

void SpanLog::end(int32_t Id) {
  if (Id < 0)
    return;
  Spans[static_cast<size_t>(Id)].EndNs = nowNs();
  Open.pop_back();
}

std::map<std::string, SpanTotals>
perfbench::totalsByName(const std::vector<SpanLog> &Logs) {
  std::map<std::string, SpanTotals> Out;
  for (const SpanLog &L : Logs) {
    const std::vector<Span> &S = L.spans();
    // Children of one parent never overlap (one thread, properly nested),
    // so a parent's self time is its duration minus its children's.
    std::vector<uint64_t> ChildNs(S.size(), 0);
    for (const Span &Sp : S)
      if (Sp.Parent >= 0)
        ChildNs[static_cast<size_t>(Sp.Parent)] += Sp.EndNs - Sp.StartNs;
    for (size_t I = 0; I < S.size(); ++I) {
      SpanTotals &T = Out[S[I].Name];
      uint64_t Dur = S[I].EndNs - S[I].StartNs;
      ++T.Count;
      T.TotalNs += Dur;
      T.SelfNs += Dur - ChildNs[I];
    }
  }
  return Out;
}

bool perfbench::writeSpans(const std::vector<SpanLog> &Logs,
                           const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Base = UINT64_MAX;
  for (const SpanLog &L : Logs)
    for (const Span &S : L.spans())
      Base = std::min(Base, S.StartNs);
  std::fputs("{\"traceEvents\":[\n", F);
  bool First = true;
  for (size_t T = 0; T < Logs.size(); ++T) {
    const std::vector<Span> &S = Logs[T].spans();
    for (size_t I = 0; I < S.size(); ++I) {
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"req\":%llu}}",
                   First ? "" : ",\n", S[I].Name, T,
                   static_cast<double>(S[I].StartNs - Base) / 1e3,
                   static_cast<double>(S[I].EndNs - S[I].StartNs) / 1e3, I,
                   S[I].Parent, static_cast<unsigned long long>(S[I].Req));
      First = false;
    }
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}
