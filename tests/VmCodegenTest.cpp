//===- tests/VmCodegenTest.cpp - Superinstruction fusion + inlining -------===//
//
// The VM codegen contract (superinstruction fusion and tier-up inlining
// behind the TierBackend API):
//   - results are identical with the codegen features on or off, and the
//     structural hash of every tiered body is too — fusion at any depth
//     (round-1 pairs and wide round-2 ops) must be invisible to
//     block-profile validation;
//   - *counter fidelity*: instrumented runs store byte-identical profiles
//     with fusion+inlining on or off, sequentially and across an
//     8-worker EnginePool merge — fused dispatches bump the exact same
//     sharded-store counters as their unfused expansion;
//   - inlining respects its size cap: an over-cap callee falls back to a
//     guarded call (TierInlineFallbacks) and still computes the same
//     value;
//   - a fusion-table epoch change invalidates bodies compiled against the
//     stale table (TierInvalidations); they re-tier lazily and keep
//     computing the same values;
//   - the opcode table is self-consistent (unique mnemonics, one fusion
//     candidate per fused op, expansions that round-trip and carry the
//     fused op's stack effect), and structuralHash is pinned to golden
//     values so a reordered row cannot silently invalidate stored block
//     profiles.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/EnginePool.h"
#include "interp/Expr.h"
#include "interp/TierBackend.h"
#include "support/AtomicFile.h"
#include "vm/Bytecode.h"
#include "vm/Fusion.h"
#include "vm/Vm.h"

#include <set>
#include <sstream>
#include <vector>

using namespace pgmp;
using namespace pgmp::testutil;

namespace {

std::string slurp(const std::string &Path) {
  std::string Out, Err;
  EXPECT_EQ(readFileAll(Path, Out, Err), FileReadStatus::Ok) << Err;
  return Out;
}

EngineOptions withCodegen(bool On, bool Instrument = false,
                          bool Stats = false) {
  EngineOptions Opts;
  Opts.Tier.Mode = TierMode::Always;
  Opts.Tier.Fusion = On;
  Opts.Tier.Inline = On;
  Opts.Instrument = Instrument;
  Opts.StatsEnabled = Stats;
  return Opts;
}

// A mono-caller helper (inline candidate), counted loops whose step and
// accumulate expressions fuse into wide superinstructions, and a
// non-tail cross-closure call (triangle from sum-upto).
const char *Program =
    "(define (poly x) (+ (* 3 x x) (* -2 x) 7))\n"
    "(define (work n)\n"
    "  (let loop ([i 0] [acc 0])\n"
    "    (if (= i n) acc (loop (+ i 1) (+ acc (poly i))))))\n"
    "(define (triangle k)\n"
    "  (let loop ([i 0] [acc 0])\n"
    "    (if (= i k) acc (loop (+ i 1) (+ acc i)))))\n"
    "(define (sum-upto n)\n"
    "  (let loop ([i 0] [acc 0])\n"
    "    (if (= i n) acc (loop (+ i 1) (+ acc (triangle 10))))))\n";
const char *ProgramName = "codegen.scm";
const char *Workload = "(list (work 100) (sum-upto 50) (poly 9))";

//===----------------------------------------------------------------------===//
// Results and codegen activity
//===----------------------------------------------------------------------===//

TEST(VmCodegen, ResultsIdenticalAndCodegenFires) {
  Engine Off(withCodegen(false));
  ASSERT_TRUE(Off.evalString(Program, ProgramName).Ok);
  std::string Expected = evalOk(Off, Workload);

  Engine On(withCodegen(true, /*Instrument=*/false, /*Stats=*/true));
  ASSERT_TRUE(On.evalString(Program, ProgramName).Ok);
  EXPECT_EQ(evalOk(On, Workload), Expected);
  EXPECT_GE(On.stats().count(Stat::SuperinstructionsFused), 1u)
      << "the counted loops must fuse at least one pair";
  EXPECT_GE(On.stats().count(Stat::TierInlines), 1u)
      << "poly is a mono-caller and must inline into work's loop";
}

TEST(VmCodegen, StructuralHashIdenticalFusionOnOff) {
  // The same source tiers to the same structural hash whether the fusion
  // table was applied or not: fused ops hash as their raw expansion.
  auto HashesOf = [](bool On) {
    Engine E(withCodegen(On));
    EXPECT_TRUE(E.evalString(Program, ProgramName).Ok);
    EXPECT_TRUE(E.evalString(Workload, "workload.scm").Ok);
    std::vector<uint64_t> Hashes;
    for (const LambdaExpr *L : E.context().TierLambdas)
      if (L->Tiered)
        Hashes.push_back(L->Tiered->structuralHash());
    return Hashes;
  };
  std::vector<uint64_t> On = HashesOf(true), Off = HashesOf(false);
  ASSERT_FALSE(On.empty());
  EXPECT_EQ(On, Off);
}

TEST(VmCodegen, WideFusionRoundtripsToRawStream) {
  // fuseFunction to fixpoint, then flattening every instruction, must
  // reproduce the original raw stream exactly — the core of both the
  // hash and the counter-fidelity invariants. The stream below is the
  // shape of a counted loop's step expression: (op x const) and
  // (op x y) calls land as wide ops.
  VmFunction Fn;
  Fn.Blocks.emplace_back();
  std::vector<Instr> Raw = {
      {Op::GlobalRef, 0, 0}, {Op::LocalRef, 0, 0}, {Op::Const, 1, 0},
      {Op::Call, 2, 0},      {Op::GlobalRef, 0, 0}, {Op::LocalRef, 0, 1},
      {Op::LocalRef, 0, 0},  {Op::Call, 2, 0},      {Op::TailCall, 2, 0},
  };
  Fn.Blocks[0].Code = Raw;
  FusionTable Table;
  EXPECT_GE(fuseFunction(Fn, Table), 4u);
  // The two whole subexpressions collapse into one dispatch each.
  ASSERT_EQ(Fn.Blocks[0].Code.size(), 3u);
  EXPECT_EQ(Fn.Blocks[0].Code[0].K, Op::GlobalLocalConstCall);
  EXPECT_EQ(Fn.Blocks[0].Code[1].K, Op::GlobalLocalLocalCall);
  std::vector<Instr> Flat;
  for (const Instr &I : Fn.Blocks[0].Code)
    flattenInstr(I, Flat);
  ASSERT_EQ(Flat.size(), Raw.size());
  for (size_t I = 0; I < Raw.size(); ++I) {
    EXPECT_EQ(Flat[I].K, Raw[I].K) << "at " << I;
    EXPECT_EQ(Flat[I].A, Raw[I].A) << "at " << I;
    EXPECT_EQ(Flat[I].B, Raw[I].B) << "at " << I;
  }
}

//===----------------------------------------------------------------------===//
// Counter fidelity
//===----------------------------------------------------------------------===//

std::string storeCodegenProfile(bool On, TierMode Mode,
                                const std::string &Path) {
  EngineOptions Opts = withCodegen(On, /*Instrument=*/true);
  Opts.Tier.Mode = Mode;
  Engine E(Opts);
  EXPECT_TRUE(E.evalString(Program, ProgramName).Ok);
  EXPECT_TRUE(E.evalString(Workload, "workload.scm").Ok);
  ProfileOpResult St = E.storeProfile(Path);
  EXPECT_TRUE(St) << St.Error;
  return slurp(Path);
}

TEST(VmCodegen, ProfilesByteIdenticalFusionOnOff) {
  std::string On = storeCodegenProfile(true, TierMode::Always,
                                       tempPath("on.profile"));
  ASSERT_FALSE(On.empty());
  EXPECT_EQ(On, storeCodegenProfile(false, TierMode::Always,
                                    tempPath("off.profile")))
      << "fused dispatches must bump the same counters as their expansion";
  EXPECT_EQ(On, storeCodegenProfile(false, TierMode::Off,
                                    tempPath("interp.profile")))
      << "and the same counters as the tree-walking interpreter";
}

TEST(VmCodegen, ProfilesByteIdenticalFusionOnOffJobs8) {
  // The same invariant across an 8-worker pool merge, the shape
  // `pgmpi run --jobs 8` produces: fused and unfused pools must store
  // byte-identical merged profiles.
  constexpr size_t Jobs = 8;
  auto RunPool = [](bool On, const std::string &Path) {
    EnginePool Pool(Jobs, withCodegen(On, /*Instrument=*/true));
    EnginePool::PoolResult R = Pool.run([](Engine &E, size_t) {
      EvalResult Load = E.evalString(Program, ProgramName);
      if (!Load)
        return Load;
      return E.evalString(Workload, "workload.scm");
    });
    ASSERT_TRUE(R.Ok) << R.Error;
    ProfileOpResult St = Pool.storeMergedProfile(Path);
    ASSERT_TRUE(St) << St.Error;
  };
  std::string OnPath = tempPath("on8.profile");
  std::string OffPath = tempPath("off8.profile");
  RunPool(true, OnPath);
  RunPool(false, OffPath);
  std::string A = slurp(OnPath), B = slurp(OffPath);
  ASSERT_FALSE(A.empty());
  EXPECT_EQ(A, B) << "merged profiles must not depend on VM codegen";
}

//===----------------------------------------------------------------------===//
// Inline caps
//===----------------------------------------------------------------------===//

TEST(VmCodegen, InlineCapFallsBackToGuardedCall) {
  EngineOptions Opts = withCodegen(true, /*Instrument=*/false,
                                   /*Stats=*/true);
  // A cap this small rejects even poly's body; the call site must fall
  // back to an ordinary call and still compute the same value.
  Opts.Tier.InlineMaxOps = 1;
  Engine E(Opts);
  ASSERT_TRUE(E.evalString(Program, ProgramName).Ok);
  std::string Capped = evalOk(E, Workload);
  EXPECT_GE(E.stats().count(Stat::TierInlineFallbacks), 1u)
      << "poly's body exceeds the one-op cap";
  EXPECT_EQ(E.stats().count(Stat::TierInlines), 0u);

  Engine Off(withCodegen(false));
  ASSERT_TRUE(Off.evalString(Program, ProgramName).Ok);
  EXPECT_EQ(Capped, evalOk(Off, Workload));
}

//===----------------------------------------------------------------------===//
// Epoch invalidation
//===----------------------------------------------------------------------===//

TEST(VmCodegen, FusionEpochChangeInvalidatesAndRetiers) {
  Engine E(withCodegen(true, /*Instrument=*/false, /*Stats=*/true));
  ASSERT_TRUE(E.evalString(Program, ProgramName).Ok);
  std::string Expected = evalOk(E, Workload);
  uint64_t TierUpsBefore = E.stats().count(Stat::TierUps);
  ASSERT_GE(TierUpsBefore, 1u);

  // Flip the policy so the backend's next re-selection lands on a
  // different mask (empty, here): the epoch bumps and every body
  // compiled against the old table is dropped.
  Context &Ctx = E.context();
  Ctx.Tier.Fusion = false;
  uint64_t Epoch = Ctx.Backend->fuse(Ctx);
  size_t Dropped = Ctx.Backend->invalidateEpoch(Ctx, Epoch);
  EXPECT_GE(Dropped, 1u);
  EXPECT_GE(E.stats().count(Stat::FusionEpochs), 1u);
  EXPECT_GE(E.stats().count(Stat::TierInvalidations), Dropped);

  // Invalidated lambdas re-tier lazily against the new (empty) table and
  // keep computing the same values.
  EXPECT_EQ(evalOk(E, Workload), Expected);
  EXPECT_GT(E.stats().count(Stat::TierUps), TierUpsBefore)
      << "dropped bodies must re-tier on their next invocation";

  // A second re-selection with unchanged policy is a quiet epoch: the
  // mask is already empty, so nothing is invalidated.
  uint64_t Epoch2 = Ctx.Backend->fuse(Ctx);
  EXPECT_EQ(Epoch2, Epoch);
  EXPECT_EQ(Ctx.Backend->invalidateEpoch(Ctx, Epoch2), 0u);
}

//===----------------------------------------------------------------------===//
// Opcode table invariants
//===----------------------------------------------------------------------===//

TEST(OpcodeTable, MnemonicsAreUniqueAndNamed) {
  // Read back through disassemble(), the surface debugging and golden
  // tests use: one instruction of every opcode, one line each.
  VmFunction Fn;
  Fn.Blocks.emplace_back();
  for (size_t K = 0; K < NumOps; ++K)
    Fn.Blocks[0].Code.push_back(Instr{static_cast<Op>(K), 0, 0});
  std::istringstream Lines(disassemble(Fn));
  std::string Line;
  std::getline(Lines, Line); // function header
  std::getline(Lines, Line); // block header
  std::set<std::string> Seen;
  for (size_t K = 0; K < NumOps; ++K) {
    ASSERT_TRUE(std::getline(Lines, Line)) << "op " << K;
    std::string Name;
    std::istringstream(Line) >> Name;
    EXPECT_FALSE(Name.empty()) << "op " << K;
    EXPECT_NE(Name, "?") << "op " << K;
    EXPECT_TRUE(Seen.insert(Name).second) << "duplicate mnemonic " << Name;
  }
}

TEST(OpcodeTable, EveryFusedOpHasExactlyOneCandidate) {
  // Profile-selected (Pair) candidates first, then the wide ones whose
  // enablement derives from them.
  std::set<Op> Candidates;
  for (size_t C = 0; C < NumFusionOps; ++C) {
    Op Fused = fusionCandidate(C).Fused;
    EXPECT_EQ(opInfo(Fused).Pack,
              C < NumFusionCandidates ? OpPack::Pair : OpPack::Wide)
        << fusionCandidate(C).Name;
    EXPECT_TRUE(Candidates.insert(Fused).second) << fusionCandidate(C).Name;
  }
  size_t FusedRows = 0;
  for (size_t K = 0; K < NumOps; ++K)
    FusedRows += opInfo(static_cast<Op>(K)).Pack != OpPack::None;
  EXPECT_EQ(FusedRows, Candidates.size());
}

/// A canonical instruction of kind \p K: raw ops carry a payload in the
/// field their fused forms keep (a local's slot, else A), fused ops are
/// built from canonical components through their candidate.
Instr sampleInstr(Op K) {
  const OpInfo &Info = opInfo(K);
  if (Info.Pack == OpPack::None)
    return Info.Arg == OpArg::Local ? Instr{K, 0, 2} : Instr{K, 3, 0};
  for (size_t C = 0; C < NumFusionOps; ++C)
    if (fusionCandidate(C).Fused == K)
      return buildFusedInstr(C, sampleInstr(Info.First),
                             sampleInstr(Info.Second));
  ADD_FAILURE() << "no candidate builds " << Info.Mnemonic;
  return Instr{K, 0, 0};
}

TEST(OpcodeTable, FusedOpsRoundTripThroughTheirCandidates) {
  for (size_t C = 0; C < NumFusionOps; ++C) {
    const FusionCandidate &Cand = fusionCandidate(C);
    const OpInfo &Info = opInfo(Cand.Fused);
    Instr I = sampleInstr(Info.First), J = sampleInstr(Info.Second);
    EXPECT_EQ(matchFusedPair(I, J), static_cast<int>(C)) << Cand.Name;
    Instr Fused = buildFusedInstr(C, I, J);
    EXPECT_EQ(Fused.K, Cand.Fused) << Cand.Name;
    Instr Out[2];
    ASSERT_EQ(expandInstr(Fused, Out), 2u) << Cand.Name;
    for (const auto &[Got, Want] : {std::pair{Out[0], I}, {Out[1], J}}) {
      EXPECT_EQ(Got.K, Want.K) << Cand.Name;
      EXPECT_EQ(Got.A, Want.A) << Cand.Name;
      EXPECT_EQ(Got.B, Want.B) << Cand.Name;
    }
  }
}

TEST(OpcodeTable, FusedStackEffectIsSumOfExpansion) {
  for (size_t K = 0; K < NumOps; ++K) {
    if (opInfo(static_cast<Op>(K)).Pack == OpPack::None)
      continue;
    Instr Fused = sampleInstr(static_cast<Op>(K));
    std::vector<Instr> Flat;
    flattenInstr(Fused, Flat);
    int32_t Sum = 0;
    for (const Instr &I : Flat) {
      EXPECT_EQ(opInfo(I.K).Pack, OpPack::None);
      Sum += stackEffect(I);
    }
    EXPECT_EQ(stackEffect(Fused), Sum) << opInfo(Fused.K).Mnemonic;
  }
}

// Stored block profiles are validated against structuralHash, which mixes
// raw opcode numbers: these values were recorded before the opcode table
// was generated from one X-macro, and must never change silently.
TEST(OpcodeTable, StructuralHashGoldenRawCompile) {
  Engine E;
  VmRunner Runner(E);
  VmCompileOptions Opts;
  Opts.ProfileBlocks = true;
  ASSERT_TRUE(Runner
                  .evalString("(define k 3)\n"
                              "(define (f n) (if (< n 2) 'small\n"
                              "  (begin (set! k (- n 1))\n"
                              "         (list n \"s\" k (lambda () n)))))\n"
                              "(f 5)",
                              "golden.scm", Opts)
                  .Ok);
  const VmFunction *F = nullptr;
  for (auto &Fn : Runner.lastModule()->Functions)
    if (Fn->Name == "f")
      F = Fn.get();
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->structuralHash(), 0x92029d9b80910c11ull) << disassemble(*F);
}

TEST(OpcodeTable, StructuralHashGoldenFusedAndInlined) {
  // work's loop body tiers with wide superinstructions and poly inlined
  // (GlobalIs, Peek, Squash, guard ops), so this pins every row kind.
  Engine E(withCodegen(true));
  ASSERT_TRUE(E.evalString(Program, ProgramName).Ok);
  ASSERT_TRUE(E.evalString(Workload, "workload.scm").Ok);
  const VmFunction *Loop = nullptr;
  for (const LambdaExpr *L : E.context().TierLambdas)
    if (L->Tiered && L->Tiered->Name == "work")
      Loop = L->Tiered->Owner->Functions.back().get();
  ASSERT_NE(Loop, nullptr);
  std::set<Op> Kinds;
  for (const Block &B : Loop->Blocks)
    for (const Instr &I : B.Code)
      Kinds.insert(I.K);
  EXPECT_TRUE(Kinds.count(Op::GlobalIs) && Kinds.count(Op::PeekCall))
      << disassemble(*Loop);
  EXPECT_EQ(Loop->structuralHash(), 0xfc50f0aa2050adfcull)
      << disassemble(*Loop);
}

} // namespace
