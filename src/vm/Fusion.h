//===- vm/Fusion.h - Profile-selected superinstruction fusion -*- C++ -*-===//
///
/// \file
/// Superinstruction fusion for the tier-up compiler: adjacent hot opcode
/// pairs are rewritten into single fused dispatches against a per-epoch
/// FusionTable. The candidate set is static (the dominant pairs measured
/// on BenchTieredExec and the case-study kernels); *which* candidates are
/// enabled is profile-selected — TierBackend::fuse() re-weighs every
/// candidate from the block profiles observed so far and re-tiers stale
/// code when the selection changes.
///
/// The hard invariant is counter fidelity: fusion only pairs literally
/// adjacent non-profile instructions, so ProfileSrc/ProfileBlock bumps are
/// never moved, merged, or skipped — an instrumented run produces
/// byte-identical profiles with fusion on or off. structuralHash() hashes
/// fused ops as their expansion (expandInstr) for the same reason: fusion
/// must be invisible to block-profile validation.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_VM_FUSION_H
#define PGMP_VM_FUSION_H

#include "vm/Bytecode.h"

#include <cstddef>
#include <cstdint>

namespace pgmp {

/// One fusion candidate: the fused op whose components (its opcode-table
/// row) are rewritten into it when adjacent in a block. Wide (round-2)
/// entries name the base candidates they compose via Dep1/Dep2 — their
/// enablement derives from the bases' mask bits instead of carrying bits
/// of their own.
struct FusionCandidate {
  Op Fused;
  const char *Name;  ///< stable label for reports and stats
  int8_t Dep1 = -1;  ///< base candidate this wide op composes (or -1)
  int8_t Dep2 = -1;  ///< second base candidate (or -1)
};

/// Number of opcode-table rows with packing \p P.
constexpr size_t numFusedOps(OpPack P) {
  size_t N = 0;
  for (const OpInfo &Info : OpTable)
    N += Info.Pack == P;
  return N;
}

/// Number of profile-selected candidate pairs — the Pair-packed fused
/// ops, which come first in the candidate table (indexes the weights
/// array and the table mask). The census and the pgmpi report speak in
/// these.
constexpr size_t NumFusionCandidates = numFusedOps(OpPack::Pair);

/// Total candidate table size: the selected pairs plus the wide round-2
/// entries derived from them — one candidate per fused op.
constexpr size_t NumFusionOps =
    NumFusionCandidates + numFusedOps(OpPack::Wide);

/// The static candidate table, indexed 0..NumFusionOps-1.
const FusionCandidate &fusionCandidate(size_t I);

static_assert(NumFusionCandidates < 32, "one mask bit per selected candidate");

/// Mask with every candidate enabled (the default selection used until
/// block profiles say otherwise).
constexpr uint32_t AllFusionsMask = (1u << NumFusionCandidates) - 1;

/// The per-epoch fusion selection. One lives on the VM's TierBackend;
/// Epoch bumps only when the enabled set actually changes, which is what
/// lets invalidation skip work on quiet epochs. Wide candidates
/// (NumFusionCandidates <= C < NumFusionOps) are enabled exactly when
/// every base candidate they compose is.
struct FusionTable {
  uint64_t Epoch = 1;
  uint32_t Mask = AllFusionsMask;
  bool enabled(size_t Candidate) const;
};

/// Candidate index fused by the adjacent pair (I then J), or -1 when the
/// pair is not fusable (profile ops never are; LocalRef only at depth 0).
int matchFusedPair(const Instr &I, const Instr &J);

/// Builds the fused instruction for candidate \p Candidate over the
/// matched pair (I, J).
Instr buildFusedInstr(size_t Candidate, const Instr &I, const Instr &J);

/// Writes the one-level unfused expansion of \p I into \p Out (1 or 2
/// entries); returns the count. A wide op expands into its two fused
/// components. Non-fused instructions expand to themselves. A direct
/// lookup of the opcode table's row for I.K.
size_t expandInstr(const Instr &I, Instr Out[2]);

/// Appends the fully raw expansion of \p I to \p Out: expandInstr
/// applied to fixpoint, so wide ops flatten through their fused
/// components. structuralHash and the pair census use this — fusion at
/// any depth must be invisible to both.
void flattenInstr(const Instr &I, std::vector<Instr> &Out);

/// Rewrites every block of \p Fn against \p Table: greedy left-to-right,
/// non-overlapping, enabled candidates only. Call before linearize().
/// Returns the number of pairs fused.
size_t fuseFunction(VmFunction &Fn, const FusionTable &Table);

/// One fusable adjacency of a compiled function — counting already-fused
/// ops as their expansion, so fused code still votes for its pairs: the
/// block it sits in and the base candidate it votes for.
struct PairSite {
  const Block *B;
  uint32_t Candidate;
};

/// Appends \p Fn's pair sites to \p Out in block and code order. A
/// compiled function's sites never change, so a caller that re-weighs
/// the census often (TierBackend::fuse() at every epoch) computes them
/// once and reads only the block counts afterwards.
void appendPairSites(const VmFunction &Fn, std::vector<PairSite> &Out);

/// Accumulates the census of \p Sites into \p Weights (size
/// NumFusionCandidates) and \p Total, each site weighted by its block's
/// ProfileCount when \p UseBlockCounts, else by \p FlatWeight.
/// TierBackend::fuse() uses block counts; the pgmpi report table weighs a
/// whole function by its source-profile weight.
void accumulatePairCensus(const std::vector<PairSite> &Sites,
                          bool UseBlockCounts, double FlatWeight,
                          double Weights[], double &Total);

} // namespace pgmp

#endif // PGMP_VM_FUSION_H
