//===- vm/Fusion.cpp ------------------------------------------------------===//

#include "vm/Fusion.h"

#include <cassert>

using namespace pgmp;

// The candidate order is load-bearing: it indexes FusionTable::Mask and
// the census weight arrays, and BENCH_PR8.json / the pgmpi report table
// name candidates by these labels. Entries past NumFusionCandidates are
// the wide round-2 pairs; their Dep fields name the base candidates
// whose mask bits gate them.
static const FusionCandidate Candidates[NumFusionOps] = {
    {Op::LocalLocal, "local+local"},
    {Op::LocalConst, "local+const"},
    {Op::GlobalLocal, "global+local"},
    {Op::GlobalConst, "global+const"},
    {Op::LocalCall, "local+call"},
    {Op::ConstCall, "const+call"},
    {Op::CallBranchFalse, "call+brf"},
    // Wide pairs. GlobalLocal+ConstCall is a whole (op x const) call,
    // GlobalLocal+LocalCall a whole (op x y) call — the two shapes every
    // counted loop's step and accumulate expressions take. The Peek pairs
    // only occur in inlined bodies, where parameters live on the operand
    // stack; Peek itself is not a round-1 product, so those entries
    // depend only on the candidate that produced their fused half.
    {Op::GlobalLocalConstCall, "g.local+c.call", 2, 5},
    {Op::GlobalLocalLocalCall, "g.local+l.call", 2, 4},
    {Op::GlobalConstPeek, "g.const+peek", 3, -1},
    {Op::PeekCall, "peek+call", -1, -1},
    // Guard pairs: only the tier-up inliner emits guard ops, and it
    // always brackets an inlined body with GuardEnter-after-the-last-arg
    // and GuardLeave-then-Squash. The fused handlers still charge the
    // guard in the guarded instantiation, so fuel accounting is
    // unchanged; in the common unguarded build these erase two pure
    // dispatch overheads per inlined call.
    {Op::GuardEnterGlobal, "genter+global", -1, -1},
    {Op::GuardLeaveSquash, "gleave+squash", -1, -1},
};

const FusionCandidate &pgmp::fusionCandidate(size_t I) {
  assert(I < NumFusionOps && "fusion candidate index out of range");
  return Candidates[I];
}

bool FusionTable::enabled(size_t Candidate) const {
  if (Candidate < NumFusionCandidates)
    return (Mask >> Candidate) & 1u;
  // A wide candidate rides on its bases: it can only be selected where
  // the profile already selected every base pair it composes.
  const FusionCandidate &Cand = Candidates[Candidate];
  if (!Mask)
    return false;
  if (Cand.Dep1 >= 0 && !((Mask >> Cand.Dep1) & 1u))
    return false;
  if (Cand.Dep2 >= 0 && !((Mask >> Cand.Dep2) & 1u))
    return false;
  return true;
}

/// Payloads must pack into 16 bits each for a wide fusion; real cell,
/// slot, pool, and arity indices are far below this in practice.
static bool packsWide(const Instr &I) {
  return I.A >= 0 && I.A <= 0xFFFF && I.B >= 0 && I.B <= 0xFFFF;
}

/// The fused payload of a Pair component: a local's slot (its depth is
/// pinned to 0), else operand A (cell, pool, or arg-count index).
static int32_t pairPayload(const Instr &In) {
  return opInfo(In.K).Arg == OpArg::Local ? In.B : In.A;
}

int pgmp::matchFusedPair(const Instr &I, const Instr &J) {
  for (size_t C = 0; C < NumFusionOps; ++C) {
    const OpInfo &F = opInfo(Candidates[C].Fused);
    if (I.K != F.First || J.K != F.Second)
      continue;
    if (F.Pack == OpPack::Wide && !(packsWide(I) && packsWide(J)))
      continue;
    // Only depth-0 locals fuse: the fused operand encodes a Slots0 index
    // and nothing else, and depth-0 covers every hot loop we measured.
    if ((opInfo(I.K).Arg == OpArg::Local && I.A != 0) ||
        (opInfo(J.K).Arg == OpArg::Local && J.A != 0))
      continue;
    return static_cast<int>(C);
  }
  return -1;
}

Instr pgmp::buildFusedInstr(size_t Candidate, const Instr &I, const Instr &J) {
  Op Fused = Candidates[Candidate].Fused;
  if (opInfo(Fused).Pack == OpPack::Wide) {
    // Both components keep their full (A, B) payloads, 16 bits each —
    // matchFusedPair rejected anything that wouldn't fit.
    assert(packsWide(I) && packsWide(J) && "wide fusion payload overflow");
    return Instr{Fused, (I.A << 16) | I.B, (J.A << 16) | J.B};
  }
  return Instr{Fused, pairPayload(I), pairPayload(J)};
}

size_t pgmp::expandInstr(const Instr &I, Instr Out[2]) {
  const OpInfo &F = opInfo(I.K);
  switch (F.Pack) {
  case OpPack::None:
    Out[0] = I;
    return 1;
  case OpPack::Wide:
    Out[0] = Instr{F.First, I.A >> 16, I.A & 0xFFFF};
    Out[1] = Instr{F.Second, I.B >> 16, I.B & 0xFFFF};
    return 2;
  case OpPack::Pair: {
    auto Component = [](Op K, int32_t Payload) {
      return opInfo(K).Arg == OpArg::Local ? Instr{K, 0, Payload}
                                           : Instr{K, Payload, 0};
    };
    Out[0] = Component(F.First, I.A);
    Out[1] = Component(F.Second, I.B);
    return 2;
  }
  }
  return 0;
}

void pgmp::flattenInstr(const Instr &I, std::vector<Instr> &Out) {
  Instr Exp[2];
  if (expandInstr(I, Exp) == 1) {
    Out.push_back(Exp[0]);
    return;
  }
  // Two levels at most: wide ops expand into round-1 products, which
  // expand into raw ops.
  flattenInstr(Exp[0], Out);
  flattenInstr(Exp[1], Out);
}

size_t pgmp::fuseFunction(VmFunction &Fn, const FusionTable &Table) {
  if (!Table.Mask)
    return 0;
  size_t Fused = 0;
  for (Block &B : Fn.Blocks) {
    // Greedy left-to-right, non-overlapping, to fixpoint: the first pass
    // fuses raw pairs, the second pairs round-1 products into wide ops.
    // Nothing composes a wide op further, so this converges in two
    // passes, but the loop is written as a fixpoint for robustness.
    bool Changed = true;
    while (Changed) {
      Changed = false;
      std::vector<Instr> Out;
      Out.reserve(B.Code.size());
      size_t I = 0;
      while (I < B.Code.size()) {
        if (I + 1 < B.Code.size()) {
          int C = matchFusedPair(B.Code[I], B.Code[I + 1]);
          if (C >= 0 && Table.enabled(static_cast<size_t>(C))) {
            Out.push_back(buildFusedInstr(static_cast<size_t>(C), B.Code[I],
                                          B.Code[I + 1]));
            I += 2;
            ++Fused;
            Changed = true;
            continue;
          }
        }
        Out.push_back(B.Code[I]);
        ++I;
      }
      B.Code = std::move(Out);
    }
  }
  return Fused;
}

void pgmp::appendPairSites(const VmFunction &Fn, std::vector<PairSite> &Out) {
  std::vector<Instr> Flat;
  for (const Block &B : Fn.Blocks) {
    // Expand fused ops back to components; ProfileSrc stays in the
    // stream as a fusion barrier (matching what fuseFunction can actually
    // pair), only the block-entry ProfileBlock is dropped.
    Flat.clear();
    for (const Instr &I : B.Code) {
      if (I.K == Op::ProfileBlock)
        continue;
      flattenInstr(I, Flat);
    }
    for (size_t I = 0; I + 1 < Flat.size(); ++I) {
      int C = matchFusedPair(Flat[I], Flat[I + 1]);
      // Only base candidates carry census weight; a raw stream can never
      // match a wide pair anyway, but keep the bound explicit.
      if (C < 0 || C >= static_cast<int>(NumFusionCandidates))
        continue;
      Out.push_back(PairSite{&B, static_cast<uint32_t>(C)});
    }
  }
}

void pgmp::accumulatePairCensus(const std::vector<PairSite> &Sites,
                                bool UseBlockCounts, double FlatWeight,
                                double Weights[], double &Total) {
  for (const PairSite &S : Sites) {
    double W = UseBlockCounts ? static_cast<double>(S.B->ProfileCount)
                              : FlatWeight;
    if (W <= 0)
      continue;
    Weights[S.Candidate] += W;
    Total += W;
  }
}
