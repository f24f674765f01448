//===- support/Stats.cpp --------------------------------------------------===//

#include "support/Stats.h"

#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

using namespace pgmp;

uint64_t pgmp::statsNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#define PGMP_STATS_NAME(Id, Name) Name,
static constexpr const char *PhaseNames[] = {PGMP_PHASES(PGMP_STATS_NAME)};
static constexpr const char *StatNames[] = {PGMP_STATS(PGMP_STATS_NAME)};
#undef PGMP_STATS_NAME

const char *StatsRegistry::phaseName(Phase P) {
  return PhaseNames[static_cast<size_t>(P)];
}

const char *StatsRegistry::statName(Stat S) {
  return StatNames[static_cast<size_t>(S)];
}

void StatsRegistry::reset() {
  Counts.fill(0);
  Phases.fill(PhaseAccum{});
}

std::vector<std::pair<std::string, uint64_t>> StatsRegistry::snapshot() const {
  std::vector<std::pair<std::string, uint64_t>> Out;
  Out.reserve(NumStats + 2 * NumPhases);
  for (size_t I = 0; I < NumStats; ++I)
    Out.emplace_back(statName(static_cast<Stat>(I)), Counts[I]);
  for (size_t I = 0; I < NumPhases; ++I) {
    std::string Name = phaseName(static_cast<Phase>(I));
    Out.emplace_back(Name + "-entries", Phases[I].Entries);
    Out.emplace_back(Name + "-ns", Phases[I].Nanos);
  }
  for (auto &Row : extraRows())
    Out.push_back(std::move(Row));
  return Out;
}

std::vector<std::pair<std::string, uint64_t>>
StatsRegistry::extraRows() const {
  std::vector<std::pair<std::string, uint64_t>> Out = MergedExtra;
  if (ExtraFn)
    ExtraFn(ExtraSource, Out);
  return Out;
}

void StatsRegistry::merge(const StatsRegistry &O) {
  for (size_t I = 0; I < NumStats; ++I)
    Counts[I] += O.Counts[I];
  for (size_t I = 0; I < NumPhases; ++I) {
    Phases[I].Nanos += O.Phases[I].Nanos;
    Phases[I].Entries += O.Phases[I].Entries;
  }
  for (const auto &[Name, N] : O.extraRows()) {
    auto It = std::find_if(MergedExtra.begin(), MergedExtra.end(),
                           [&](const auto &Row) { return Row.first == Name; });
    if (It == MergedExtra.end())
      MergedExtra.emplace_back(Name, N);
    else
      It->second += N;
  }
}

std::string StatsRegistry::render() const {
  std::string Out = "pipeline stats:\n";
  char Buf[128];
  for (size_t I = 0; I < NumPhases; ++I) {
    if (!Phases[I].Entries)
      continue;
    std::snprintf(Buf, sizeof(Buf), "  phase %-14s %8llu entries %12.3f ms\n",
                  phaseName(static_cast<Phase>(I)),
                  static_cast<unsigned long long>(Phases[I].Entries),
                  static_cast<double>(Phases[I].Nanos) / 1e6);
    Out += Buf;
  }
  for (size_t I = 0; I < NumStats; ++I) {
    if (!Counts[I])
      continue;
    std::snprintf(Buf, sizeof(Buf), "  %-22s %12llu\n",
                  statName(static_cast<Stat>(I)),
                  static_cast<unsigned long long>(Counts[I]));
    Out += Buf;
  }
  for (const auto &[Name, N] : extraRows()) {
    if (!N)
      continue;
    std::snprintf(Buf, sizeof(Buf), "  %-22s %12llu\n", Name.c_str(),
                  static_cast<unsigned long long>(N));
    Out += Buf;
  }
  return Out;
}

ScopedPhase::ScopedPhase(StatsRegistry &Stats, TraceSink *Trace, Phase P)
    : Stats(Stats), Trace(Trace && Trace->enabled() ? Trace : nullptr), P(P),
      Active(Stats.enabled() || this->Trace) {
  if (Active)
    StartNs = statsNowNanos();
}

ScopedPhase::~ScopedPhase() {
  if (!Active)
    return;
  uint64_t EndNs = statsNowNanos();
  Stats.addPhaseTime(P, EndNs - StartNs);
  if (Trace)
    Trace->record(StatsRegistry::phaseName(P), "pipeline", StartNs, EndNs);
}
