//===- vm/BytecodeCompiler.cpp --------------------------------------------===//

#include "vm/BytecodeCompiler.h"

#include "support/Diagnostics.h"

using namespace pgmp;

void CallSiteCensus::build(const std::vector<const LambdaExpr *> &Lambdas) {
  Sites.clear();
  NumLambdas = Lambdas.size();
  for (const LambdaExpr *L : Lambdas) {
    // Walk L's own body only — nested lambdas are separate census
    // entries, and the enclosing lambda of a call site is the innermost.
    std::vector<const Expr *> Work{L->Body};
    while (!Work.empty()) {
      const Expr *E = Work.back();
      Work.pop_back();
      if (!E || E->K == ExprKind::Lambda)
        continue;
      switch (E->K) {
      case ExprKind::If: {
        const auto *I = static_cast<const IfExpr *>(E);
        Work.insert(Work.end(), {I->Test, I->Then, I->Else});
        break;
      }
      case ExprKind::Begin:
        for (const Expr *S : static_cast<const BeginExpr *>(E)->Body)
          Work.push_back(S);
        break;
      case ExprKind::SetLocal:
        Work.push_back(static_cast<const SetLocalExpr *>(E)->Val);
        break;
      case ExprKind::SetGlobal:
        Work.push_back(static_cast<const SetGlobalExpr *>(E)->Val);
        break;
      case ExprKind::DefineGlobal:
        Work.push_back(static_cast<const DefineGlobalExpr *>(E)->Val);
        break;
      case ExprKind::Call: {
        const auto *C = static_cast<const CallExpr *>(E);
        if (C->Fn->K == ExprKind::GlobalRef) {
          const auto *G = static_cast<const GlobalRefExpr *>(C->Fn);
          auto &Callers = Sites[G->Cell];
          bool Seen = false;
          for (const LambdaExpr *Prev : Callers)
            Seen |= Prev == L;
          if (!Seen)
            Callers.push_back(L);
        } else {
          Work.push_back(C->Fn);
        }
        for (const Expr *A : C->Args)
          Work.push_back(A);
        break;
      }
      default:
        break;
      }
    }
  }
}

bool CallSiteCensus::monoCaller(const Value *Cell, const LambdaExpr *Caller,
                                const LambdaExpr *Callee) const {
  auto It = Sites.find(Cell);
  if (It == Sites.end())
    return false;
  for (const LambdaExpr *Site : It->second)
    if (Site != Caller && Site != Callee)
      return false;
  return true;
}

namespace {

class FnBuilder {
public:
  FnBuilder(VmModule &Module, VmFunction *Fn, const VmCompileOptions &Opts)
      : Module(Module), Fn(Fn), Opts(Opts) {
    Current = newBlock();
    (void)this->Module;
  }

  uint32_t newBlock() {
    Fn->Blocks.push_back(Block());
    uint32_t Id = static_cast<uint32_t>(Fn->Blocks.size() - 1);
    if (Opts.ProfileBlocks)
      Fn->Blocks[Id].Code.push_back(
          Instr{Op::ProfileBlock, static_cast<int32_t>(Id), 0});
    return Id;
  }

  void emit(Instr I) {
    assert(!opEndsBlock(I.K) && "terminator emitted mid-block");
    Fn->Blocks[Current].Code.push_back(I);
    CurDepth += stackEffect(I);
  }

  /// Ends the current block with \p Term; conditional terminators get
  /// \p FallThrough as their not-taken successor.
  void terminate(Instr Term, int32_t FallThrough = -1) {
    assert(opEndsBlock(Term.K) && "block ended by a non-terminator");
    Fn->Blocks[Current].Code.push_back(Term);
    Fn->Blocks[Current].FallThrough = FallThrough;
    CurDepth += stackEffect(Term);
  }

  void switchTo(uint32_t BlockId) { Current = BlockId; }

  /// Resets the depth tracker when switching to a block whose entry depth
  /// differs from the fall-off depth of the previously built one (join
  /// blocks, else branches).
  void setDepth(int32_t D) { CurDepth = D; }

  int32_t poolConst(Value V) {
    Fn->Pool.push_back(V);
    return static_cast<int32_t>(Fn->Pool.size() - 1);
  }

  int32_t cell(Value *C, Symbol *Name) {
    for (size_t I = 0; I < Fn->Cells.size(); ++I)
      if (Fn->Cells[I] == C)
        return static_cast<int32_t>(I);
    Fn->Cells.push_back(C);
    Fn->CellNames.push_back(Name);
    return static_cast<int32_t>(Fn->Cells.size() - 1);
  }

  int32_t srcCounter(uint64_t *C) {
    for (size_t I = 0; I < Fn->SrcCounters.size(); ++I)
      if (Fn->SrcCounters[I] == C)
        return static_cast<int32_t>(I);
    Fn->SrcCounters.push_back(C);
    return static_cast<int32_t>(Fn->SrcCounters.size() - 1);
  }

  VmModule &Module;
  VmFunction *Fn;
  const VmCompileOptions &Opts;
  uint32_t Current = 0;
  /// Operand-stack depth after the last instruction emitted into the
  /// current block, relative to function entry (0). Only consumed by the
  /// inliner's Peek addressing, but maintained unconditionally — it is
  /// two adds per emit.
  int32_t CurDepth = 0;
};

class VmCompiler {
public:
  VmCompiler(Context &Ctx, VmModule &Module, const VmCompileOptions &Opts)
      : Ctx(Ctx), Module(Module), Opts(Opts) {}

  VmFunction *compileFunction(const LambdaExpr *L, const std::string &Name,
                              const Expr *Body) {
    VmFunction *Fn = Module.newFunction();
    if (L) {
      Fn->Name = L->Name.empty() ? Name : L->Name;
      Fn->NumParams = static_cast<uint32_t>(L->Params.size());
      Fn->HasRest = L->HasRest;
      Fn->FrameSlots = static_cast<uint32_t>(L->numSlots());
      Fn->Src = L->Src;
    } else {
      Fn->Name = Name;
    }
    // Inline state is per function: a nested lambda compiles with a fresh
    // frame stack and is its own caller for the census.
    const LambdaExpr *SavedLambda = CurLambda;
    std::vector<InlineFrame> SavedFrames = std::move(InlineFrames);
    CurLambda = L;
    InlineFrames.clear();
    FnBuilder B(Module, Fn, Opts);
    compile(B, Body, /*Tail=*/true);
    B.terminate(Instr{Op::Return, 0, 0});
    CurLambda = SavedLambda;
    InlineFrames = std::move(SavedFrames);
    if (Opts.Fusion) {
      size_t N = fuseFunction(*Fn, *Opts.Fusion);
      if (N)
        Ctx.Stats.bump(Stat::SuperinstructionsFused, N);
    }
    Fn->linearize();
    return Fn;
  }

private:
  [[noreturn]] void unsupported(const char *What) {
    raiseError(std::string("vm: ") + What +
               " cannot appear in runtime code");
  }

  void compile(FnBuilder &B, const Expr *E, bool Tail) {
    // The interpreter bumps a node's counter on entry, before any child
    // evaluates; emitting the bump first reproduces that order exactly.
    if (Opts.ProfileSources && E->Counter)
      B.emit(Instr{Op::ProfileSrc, B.srcCounter(E->Counter), 0});
    switch (E->K) {
    case ExprKind::Const:
      B.emit(Instr{Op::Const,
                   B.poolConst(static_cast<const ConstExpr *>(E)->V), 0});
      return;
    case ExprKind::LocalRef: {
      const auto *R = static_cast<const LocalRefExpr *>(E);
      if (!InlineFrames.empty()) {
        // Inside an inlined body every local is a parameter of the
        // innermost inlined callee (the eligibility walk rejected
        // anything deeper), and those live on the operand stack at
        // ArgBase - NumParams + Index.
        assert(R->Depth == 0 && "deep local ref survived inline check");
        const InlineFrame &F = InlineFrames.back();
        int32_t Slot = F.ArgBase -
                       static_cast<int32_t>(F.Callee->Params.size()) +
                       static_cast<int32_t>(R->Index);
        assert(Slot >= 0 && Slot < B.CurDepth && "inline peek out of range");
        B.emit(Instr{Op::Peek, B.CurDepth - 1 - Slot, 0});
        return;
      }
      B.emit(Instr{Op::LocalRef, static_cast<int32_t>(R->Depth),
                   static_cast<int32_t>(R->Index)});
      return;
    }
    case ExprKind::GlobalRef: {
      const auto *R = static_cast<const GlobalRefExpr *>(E);
      B.emit(Instr{Op::GlobalRef, B.cell(R->Cell, R->Name), 0});
      return;
    }
    case ExprKind::If: {
      const auto *I = static_cast<const IfExpr *>(E);
      compile(B, I->Test, /*Tail=*/false);
      uint32_t ThenBlk = B.newBlock();
      uint32_t ElseBlk = B.newBlock();
      uint32_t JoinBlk = B.newBlock();
      B.terminate(Instr{Op::BranchFalse, static_cast<int32_t>(ElseBlk), 0},
                  static_cast<int32_t>(ThenBlk));
      int32_t D0 = B.CurDepth; // entry depth of both arms
      B.switchTo(ThenBlk);
      compile(B, I->Then, Tail);
      B.terminate(Instr{Op::Jump, static_cast<int32_t>(JoinBlk), 0});
      B.switchTo(ElseBlk);
      B.setDepth(D0);
      compile(B, I->Else, Tail);
      B.terminate(Instr{Op::Jump, static_cast<int32_t>(JoinBlk), 0});
      B.switchTo(JoinBlk);
      B.setDepth(D0 + 1);
      return;
    }
    case ExprKind::Lambda: {
      const auto *L = static_cast<const LambdaExpr *>(E);
      VmFunction *Sub = compileFunction(L, "<lambda>", L->Body);
      B.Fn->SubFunctions.push_back(Sub);
      B.emit(Instr{Op::MakeClosure,
                   static_cast<int32_t>(B.Fn->SubFunctions.size() - 1), 0});
      return;
    }
    case ExprKind::Begin: {
      const auto *Bg = static_cast<const BeginExpr *>(E);
      for (size_t I = 0; I + 1 < Bg->Body.size(); ++I) {
        compile(B, Bg->Body[I], /*Tail=*/false);
        B.emit(Instr{Op::Pop, 0, 0});
      }
      compile(B, Bg->Body.back(), Tail);
      return;
    }
    case ExprKind::SetLocal: {
      const auto *S = static_cast<const SetLocalExpr *>(E);
      compile(B, S->Val, /*Tail=*/false);
      B.emit(Instr{Op::SetLocal, static_cast<int32_t>(S->Depth),
                   static_cast<int32_t>(S->Index)});
      return;
    }
    case ExprKind::SetGlobal: {
      const auto *S = static_cast<const SetGlobalExpr *>(E);
      compile(B, S->Val, /*Tail=*/false);
      B.emit(Instr{Op::SetGlobal, B.cell(S->Cell, S->Name), 0});
      return;
    }
    case ExprKind::DefineGlobal: {
      const auto *D = static_cast<const DefineGlobalExpr *>(E);
      compile(B, D->Val, /*Tail=*/false);
      B.emit(Instr{Op::DefineGlobal, B.cell(D->Cell, D->Name), 0});
      return;
    }
    case ExprKind::Call: {
      const auto *C = static_cast<const CallExpr *>(E);
      bool IsTail = Tail && C->Tail && InlineFrames.empty();
      if (!IsTail && tryInlineCall(B, C))
        return;
      compile(B, C->Fn, /*Tail=*/false);
      for (const Expr *Arg : C->Args)
        compile(B, Arg, /*Tail=*/false);
      int32_t N = static_cast<int32_t>(C->Args.size());
      if (IsTail) {
        B.terminate(Instr{Op::TailCall, N, 0});
        // Code may syntactically continue after a tail call (e.g. the
        // join block of an if); start a fresh block for it. Treat its
        // depth as if a call result had been pushed so a join fed by
        // both a tail call and a plain arm stays consistent.
        uint32_t Cont = B.newBlock();
        B.switchTo(Cont);
        B.setDepth(B.CurDepth + 1);
      } else {
        B.emit(Instr{Op::Call, N, 0});
      }
      return;
    }
    case ExprKind::SyntaxCase:
      unsupported("syntax-case");
    case ExprKind::Template:
      unsupported("syntax templates");
    }
  }

  /// Shape walk for inline candidates: within \p Budget nodes, no frame
  /// escapes (Lambda needs MakeClosure's heap frame), no local mutation,
  /// no references outside the parameter frame, no phase-1 nodes.
  static bool inlinableBody(const Expr *E, uint32_t Budget, uint32_t &Nodes) {
    if (++Nodes > Budget)
      return false;
    switch (E->K) {
    case ExprKind::Const:
    case ExprKind::GlobalRef:
      return true;
    case ExprKind::LocalRef:
      return static_cast<const LocalRefExpr *>(E)->Depth == 0;
    case ExprKind::If: {
      const auto *I = static_cast<const IfExpr *>(E);
      return inlinableBody(I->Test, Budget, Nodes) &&
             inlinableBody(I->Then, Budget, Nodes) &&
             inlinableBody(I->Else, Budget, Nodes);
    }
    case ExprKind::Begin: {
      for (const Expr *S : static_cast<const BeginExpr *>(E)->Body)
        if (!inlinableBody(S, Budget, Nodes))
          return false;
      return true;
    }
    case ExprKind::SetGlobal:
      return inlinableBody(static_cast<const SetGlobalExpr *>(E)->Val, Budget,
                           Nodes);
    case ExprKind::Call: {
      const auto *C = static_cast<const CallExpr *>(E);
      if (!inlinableBody(C->Fn, Budget, Nodes))
        return false;
      for (const Expr *A : C->Args)
        if (!inlinableBody(A, Budget, Nodes))
          return false;
      return true;
    }
    default: // Lambda, SetLocal, DefineGlobal, SyntaxCase, Template
      return false;
    }
  }

  /// Profile-guided inlining of one non-tail call site. Emits nothing and
  /// returns false unless the callee is a hot mono-caller global closure
  /// within the policy caps; the emitted fast path re-checks the binding
  /// with a GlobalIs identity guard and the slow path is a plain call, so
  /// a rebound global (or a cap trip at compile time) degrades cleanly.
  bool tryInlineCall(FnBuilder &B, const CallExpr *C) {
    if (!Opts.Inlining || !Opts.Inlining->Inline || !Opts.Census)
      return false;
    if (C->Fn->K != ExprKind::GlobalRef)
      return false;
    const auto *G = static_cast<const GlobalRefExpr *>(C->Fn);
    Value Bound = *G->Cell;
    if (!Bound.isClosure())
      return false;
    Closure *Cl = Bound.asClosure();
    const LambdaExpr *Callee = Cl->Template;
    if (Callee->HasRest || Callee->Params.size() != C->Args.size() ||
        Callee->TierBlocked)
      return false;
    // Only bodies the tier policy already considers hot are worth the
    // code growth; everything colder stays a plain call.
    const TierPolicy &P = *Opts.Inlining;
    bool Hot = P.Mode == TierMode::Always || Callee->TierHot ||
               Callee->Tiered != nullptr || Callee->TierInvokes >= P.Threshold;
    if (!Hot)
      return false;
    if (!Opts.Census->monoCaller(G->Cell, CurLambda, Callee))
      return false;
    uint32_t Nodes = 0;
    if (InlineFrames.size() >= P.InlineMaxDepth ||
        !inlinableBody(Callee->Body, P.InlineMaxOps, Nodes)) {
      // Eligible but capped: record the fallback and emit a plain call.
      Ctx.Stats.bump(Stat::TierInlineFallbacks);
      return false;
    }

    // Counter fidelity: the call node's counter was already bumped by our
    // caller (compile() emits it before dispatching on kind); the
    // fn-position GlobalRef node bumps here, before the paths split, so
    // it counts exactly once no matter which path runs. Argument nodes
    // are compiled into BOTH paths but only one path executes.
    if (Opts.ProfileSources && G->Counter)
      B.emit(Instr{Op::ProfileSrc, B.srcCounter(G->Counter), 0});
    int32_t CellIdx = B.cell(G->Cell, G->Name);
    int32_t SnapIdx = B.poolConst(Bound);
    uint32_t FastBlk = B.newBlock();
    uint32_t SlowBlk = B.newBlock();
    uint32_t JoinBlk = B.newBlock();
    // The guard reads the cell before the arguments evaluate — the same
    // order the interpreter evaluates fn-then-args — so an argument that
    // rebinds the global still calls the old closure this time.
    B.emit(Instr{Op::GlobalIs, CellIdx, SnapIdx});
    B.terminate(Instr{Op::BranchFalse, static_cast<int32_t>(SlowBlk), 0},
                static_cast<int32_t>(FastBlk));
    int32_t D0 = B.CurDepth;

    B.switchTo(FastBlk);
    for (const Expr *Arg : C->Args)
      compile(B, Arg, /*Tail=*/false);
    // GuardEnter/GuardLeave mirror the interpreter's per-application
    // ExecGuard charges (fuel + depth), keeping guard budgets identical
    // across inlining — including the non-RAII unwind behavior on raise.
    B.emit(Instr{Op::GuardEnter, 0, 0});
    InlineFrames.push_back(InlineFrame{Callee, B.CurDepth});
    compile(B, Callee->Body, /*Tail=*/false);
    InlineFrames.pop_back();
    B.emit(Instr{Op::GuardLeave, 0, 0});
    B.emit(Instr{Op::Squash, static_cast<int32_t>(C->Args.size()), 0});
    B.terminate(Instr{Op::Jump, static_cast<int32_t>(JoinBlk), 0});

    B.switchTo(SlowBlk);
    B.setDepth(D0);
    // Raw GlobalRef: the fn node's counter already bumped above, and an
    // unbound cell raises here exactly as an un-inlined compile would.
    B.emit(Instr{Op::GlobalRef, CellIdx, 0});
    for (const Expr *Arg : C->Args)
      compile(B, Arg, /*Tail=*/false);
    B.emit(Instr{Op::Call, static_cast<int32_t>(C->Args.size()), 0});
    B.terminate(Instr{Op::Jump, static_cast<int32_t>(JoinBlk), 0});

    B.switchTo(JoinBlk);
    B.setDepth(D0 + 1);
    Ctx.Stats.bump(Stat::TierInlines);
    return true;
  }

  struct InlineFrame {
    const LambdaExpr *Callee;
    int32_t ArgBase; ///< operand-stack depth just after the arguments
  };

  Context &Ctx;
  VmModule &Module;
  VmCompileOptions Opts;
  const LambdaExpr *CurLambda = nullptr;   ///< lambda being compiled
  std::vector<InlineFrame> InlineFrames;   ///< active inline nesting
};

} // namespace

VmFunction *pgmp::compileExprToVm(Context &Ctx, const Expr *Root,
                                  VmModule &Module,
                                  const VmCompileOptions &Opts) {
  VmCompiler C(Ctx, Module, Opts);
  VmFunction *Top = C.compileFunction(nullptr, "<top>", Root);
  if (!Module.Top)
    Module.Top = Top;
  return Top;
}

VmFunction *pgmp::compileLambdaToVm(Context &Ctx, const LambdaExpr *L,
                                    VmModule &Module,
                                    const VmCompileOptions &Opts) {
  VmCompiler C(Ctx, Module, Opts);
  return C.compileFunction(L, "<tiered>", L->Body);
}
