//===- vm/Bytecode.h - Stack bytecode with basic blocks -------*- C++ -*-===//
///
/// \file
/// The block-level substrate of Section 4.3: expanded core forms compile
/// to a stack bytecode organized into basic blocks. Blocks carry
/// execution counters (block-level profiling), and a separate pass
/// reorders blocks and flips branch polarity from those counters — the
/// "traditional low-level PGO" that the paper's three-pass protocol keeps
/// consistent with source-level PGMP.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_VM_BYTECODE_H
#define PGMP_VM_BYTECODE_H

#include "syntax/Heap.h"
#include "syntax/Value.h"

#include <memory>
#include <string>
#include <vector>

namespace pgmp {

struct SourceObject;

/// The opcode table: one row per opcode, in encoding order. Every opcode
/// fact lives here — the enum, NumOps, the VM's jump table, the
/// disassembler's mnemonics, stack effects, what structuralHash mixes for
/// an operand, and the expansion of every superinstruction. The numbering
/// is a file-format fact (structuralHash mixes raw opcode numbers, and
/// stored block profiles are checked against it), so rows are appended,
/// never reordered.
///
///   RAW(Id, Mnemonic, Push, PopA, Arg, Flags)
///     stack effect Push - PopA * A; Arg is the OpArg kind of operand A;
///     Flags are OpEndsBlock / OpJumpsToA.
///   FUSED(Id, Mnemonic, Pack, First, Second)
///     a superinstruction (vm/Fusion.h): First then Second in one
///     dispatch, operands packed per OpPack. Its stack effect, hash and
///     census vote are those of its expansion. None of them absorbs a
///     Profile* op, so the counter stream of fused code is identical to
///     its unfused expansion by construction.
#define PGMP_OPCODES(RAW, FUSED)                                               \
  RAW(Const, "const", 1, 0, Pool, 0) /* push Pool[A] */                       \
  RAW(LocalRef, "local", 1, 0, Local, 0) /* push depth A, slot B */           \
  RAW(GlobalRef, "global", 1, 0, Cell, 0) /* push *Cells[A] or raise */      \
  RAW(SetLocal, "set-local", 0, 0, Local, 0) /* pop into A/B; push void */    \
  RAW(SetGlobal, "set-global", 0, 0, Cell, 0) /* pop into *Cells[A] */        \
  RAW(DefineGlobal, "def-global", 0, 0, Cell, 0) /* ditto, no bound check */  \
  RAW(MakeClosure, "closure", 1, 0, Value, 0) /* closure over function A */   \
  RAW(Call, "call", 0, 1, Value, 0) /* call with A args below fn */           \
  RAW(TailCall, "tailcall", -1, 1, Value, OpEndsBlock) /* reuse invocation */ \
  RAW(Jump, "jump", 0, 0, Value, OpEndsBlock | OpJumpsToA) /* to block A */   \
  RAW(BranchFalse, "brf", -1, 0, Value, OpEndsBlock | OpJumpsToA)             \
  RAW(BranchTrue, "brt", -1, 0, Value, OpEndsBlock | OpJumpsToA)              \
  RAW(Return, "return", -1, 0, Value, OpEndsBlock) /* pop return value */     \
  RAW(Pop, "pop", -1, 0, Value, 0) /* drop top of stack */                    \
  RAW(ProfileBlock, "profile", 0, 0, Counter, 0) /* bump block counter A */   \
  RAW(ProfileSrc, "profile-src", 0, 0, Counter, 0) /* bump SrcCounters[A] */  \
  FUSED(LocalLocal, "local-local", Pair, LocalRef, LocalRef)                  \
  FUSED(LocalConst, "local-const", Pair, LocalRef, Const)                     \
  FUSED(GlobalLocal, "global-local", Pair, GlobalRef, LocalRef)               \
  FUSED(GlobalConst, "global-const", Pair, GlobalRef, Const)                  \
  FUSED(LocalCall, "local-call", Pair, LocalRef, Call)                        \
  FUSED(ConstCall, "const-call", Pair, Const, Call)                           \
  FUSED(CallBranchFalse, "call-brf", Pair, Call, BranchFalse)                 \
  /* Tier-up inlining (BytecodeCompiler): an inlined callee's parameters */  \
  /* live on the operand stack; the guard ops mirror the interpreter's */    \
  /* per-application ExecGuard charges exactly. GlobalIs's A is a cell */    \
  /* and B a pool index, but both hash as plain values. */                   \
  RAW(Peek, "peek", 1, 0, Value, 0) /* push Stack[Sp-1-A] */                  \
  RAW(Squash, "squash", 0, 1, Value, 0) /* keep top, drop A beneath */        \
  RAW(GlobalIs, "global-is", 1, 0, Value, 0) /* #t iff *Cells[A] eq? B */     \
  RAW(GuardEnter, "guard-enter", 0, 0, Value, 0) /* ExecGuard::enterCall */   \
  RAW(GuardLeave, "guard-leave", 0, 0, Value, 0) /* ExecGuard::leaveCall */   \
  FUSED(GlobalLocalConstCall, "global-local-const-call", Wide, GlobalLocal,   \
        ConstCall)                                                             \
  FUSED(GlobalLocalLocalCall, "global-local-local-call", Wide, GlobalLocal,   \
        LocalCall)                                                             \
  FUSED(GlobalConstPeek, "global-const-peek", Wide, GlobalConst, Peek)        \
  FUSED(PeekCall, "peek-call", Wide, Peek, Call)                              \
  FUSED(GuardEnterGlobal, "guard-enter-global", Wide, GuardEnter, GlobalRef)  \
  FUSED(GuardLeaveSquash, "guard-leave-squash", Wide, GuardLeave, Squash)

enum class Op : uint8_t {
#define PGMP_OP_ENUM(Id, ...) Id,
  PGMP_OPCODES(PGMP_OP_ENUM, PGMP_OP_ENUM)
#undef PGMP_OP_ENUM
};

/// Number of opcodes (rows of the table).
#define PGMP_OP_COUNT(...) +1
inline constexpr size_t NumOps = 0 PGMP_OPCODES(PGMP_OP_COUNT, PGMP_OP_COUNT);
#undef PGMP_OP_COUNT

/// What operand A denotes. structuralHash mixes what a Pool or Cell
/// operand names rather than its index (indices are allocated in
/// encounter order, so two different compiles can share an index
/// sequence), skips Counter ops entirely so instrumented and final
/// builds of the same source compare equal, and mixes raw A and B for
/// the rest.
enum class OpArg : uint8_t {
  Value,   ///< plain values: arity, block id, stack offset, function index
  Local,   ///< A = frame depth, B = slot; fuses only at depth 0
  Pool,    ///< A indexes VmFunction::Pool
  Cell,    ///< A indexes VmFunction::Cells / CellNames
  Counter, ///< A indexes a profile counter
};

/// Control-flow flags of a raw opcode.
enum : uint8_t {
  OpEndsBlock = 1, ///< only ever a block's last instruction
  OpJumpsToA = 2,  ///< operand A names a successor block
};

/// How a superinstruction packs its components' operands.
enum class OpPack : uint8_t {
  None, ///< a raw op
  Pair, ///< A = first component's payload, B = second's (LocalRef's
        ///< payload is its slot B; its depth is 0)
  Wide, ///< A = (firstA << 16) | firstB, B = (secondA << 16) | secondB;
        ///< pairs with payloads past 16 bits do not fuse
};

/// One row of the opcode table.
struct OpInfo {
  const char *Mnemonic;
  int8_t Push;     ///< raw ops: constant part of the stack effect
  int8_t PopA;     ///< raw ops: slots popped per unit of operand A
  OpArg Arg;       ///< raw ops: what operand A denotes
  uint8_t Flags;   ///< raw ops: OpEndsBlock / OpJumpsToA
  OpPack Pack;     ///< None for raw ops
  Op First, Second; ///< fused ops: the components (raw ops: themselves)
};

inline constexpr OpInfo OpTable[] = {
#define PGMP_OP_RAW_ROW(Id, Mnemonic, Push, PopA, Arg, Flags)                  \
  {Mnemonic, Push, PopA, OpArg::Arg, Flags, OpPack::None, Op::Id, Op::Id},
#define PGMP_OP_FUSED_ROW(Id, Mnemonic, Pack, First, Second)                   \
  {Mnemonic, 0, 0, OpArg::Value, 0, OpPack::Pack, Op::First, Op::Second},
    PGMP_OPCODES(PGMP_OP_RAW_ROW, PGMP_OP_FUSED_ROW)
#undef PGMP_OP_RAW_ROW
#undef PGMP_OP_FUSED_ROW
};

constexpr const OpInfo &opInfo(Op K) {
  return OpTable[static_cast<size_t>(K)];
}

/// True when \p K (for a fused op: its last component) ends a block.
constexpr bool opEndsBlock(Op K) {
  const OpInfo &Info = opInfo(K);
  return Info.Pack == OpPack::None ? (Info.Flags & OpEndsBlock) != 0
                                   : opEndsBlock(Info.Second);
}

struct Instr {
  Op K;
  int32_t A = 0;
  int32_t B = 0;
};

/// Net operand-stack effect of \p I: the row's Push - PopA * A for a raw
/// op, the sum over the expansion for a fused one.
int32_t stackEffect(const Instr &I);

/// One basic block: straight-line code ending in a terminator (Jump,
/// Return, or a conditional branch followed by fallthrough).
struct Block {
  std::vector<Instr> Code;
  /// Fallthrough successor (block id), or -1 when the block ends in an
  /// unconditional terminator.
  int32_t FallThrough = -1;
  /// Execution count from block-level profiling.
  uint64_t ProfileCount = 0;
};

/// One compiled procedure (or top-level thunk).
class VmFunction {
public:
  std::string Name;
  class VmModule *Owner = nullptr;
  uint32_t NumParams = 0;
  bool HasRest = false;
  uint32_t FrameSlots = 0;
  const SourceObject *Src = nullptr;

  std::vector<Block> Blocks; ///< block 0 is the entry
  std::vector<Value> Pool;
  std::vector<Value *> Cells;
  std::vector<Symbol *> CellNames;
  std::vector<VmFunction *> SubFunctions; ///< for MakeClosure

  /// Source-expression counters referenced by ProfileSrc instructions.
  /// These point into the engine's sharded counter store — the *same*
  /// counters the interpreter bumps — which is what keeps instrumented
  /// profiles byte-identical across tier modes.
  std::vector<uint64_t *> SrcCounters;

  /// Worst-case operand-stack depth of any path through the function
  /// (filled by linearize()); lets the VM run on a fixed-size buffer.
  uint32_t MaxStack = 0;

  /// True when invocations need no heap frame: no MakeClosure can capture
  /// it, no rest list is consed, and the few parameters fit the VM's
  /// inline local buffer. Locals then live on the C++ stack and calls
  /// allocate nothing (filled by linearize()).
  bool Frameless = false;

  /// Emission order of blocks; changed by the block-reordering PGO.
  std::vector<uint32_t> Layout;

  /// Linearized code (filled by linearize()).
  std::vector<Instr> Linear;
  std::vector<int32_t> BlockStart; ///< pc of each block id in Linear

  /// Rebuilds Linear/BlockStart from Blocks and Layout, inserting
  /// explicit jumps where the layout breaks a fallthrough. Also refreshes
  /// MaxStack.
  void linearize();

  /// Recomputes MaxStack from the block graph (called by linearize()).
  void computeMaxStack();

  /// Sum of all block counters (for tests).
  uint64_t totalBlockCount() const;

  /// Fingerprint of the block structure and code, ignoring ProfileBlock
  /// and ProfileSrc instructions so instrumented and final builds of the
  /// same source compare equal. Used to detect invalidated block
  /// profiles.
  uint64_t structuralHash() const;
};

/// A compilation unit: one function per lambda plus the top-level thunk.
class VmModule {
public:
  std::vector<std::unique_ptr<VmFunction>> Functions;
  VmFunction *Top = nullptr;

  VmFunction *newFunction() {
    Functions.push_back(std::make_unique<VmFunction>());
    Functions.back()->Owner = this;
    return Functions.back().get();
  }

  /// Dynamic execution statistics of the whole module's last runs.
  struct Stats {
    uint64_t InstructionsExecuted = 0;
    uint64_t JumpsTaken = 0; ///< non-fallthrough control transfers
  };
  Stats RunStats;

  void resetStats() { RunStats = Stats(); }
  void resetBlockCounts();
};

/// A closure over a VM function (mirrors interp Closure).
class VmClosure : public Obj {
public:
  VmClosure(const VmFunction *Fn, EnvObj *Captured)
      : Obj(ValueKind::VmClosure), Fn(Fn), Captured(Captured) {}
  const VmFunction *Fn;
  EnvObj *Captured;
};

/// Typed accessor for VmClosure values.
inline VmClosure *asVmClosure(const Value &V) {
  assert(V.isVmClosure() && "value kind mismatch in asVmClosure");
  return static_cast<VmClosure *>(V.obj());
}

/// Renders a function's blocks for debugging and golden tests.
std::string disassemble(const VmFunction &Fn);

} // namespace pgmp

#endif // PGMP_VM_BYTECODE_H
