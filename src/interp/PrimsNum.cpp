//===- interp/PrimsNum.cpp - Arithmetic -----------------------------------===//

#include "interp/Prims.h"
#include "interp/PrimsCommon.h"
#include "support/Text.h"

#include <cmath>
#include <cstdint>

using namespace pgmp;
using namespace pgmp::prims;

namespace {

bool bothFixnum(const Value &A, const Value &B) {
  return A.isFixnum() && B.isFixnum();
}

Value primAdd(Context &, Value *A, size_t N) {
  int64_t IAcc = 0;
  bool Exact = true;
  double DAcc = 0;
  for (size_t I = 0; I < N; ++I) {
    double D = wantNumber("+", A[I]);
    if (Exact && A[I].isFixnum())
      IAcc += A[I].asFixnum();
    else if (Exact) {
      Exact = false;
      DAcc = static_cast<double>(IAcc) + D;
    } else
      DAcc += D;
  }
  return Exact ? Value::fixnum(IAcc) : Value::flonum(DAcc);
}

Value primSub(Context &, Value *A, size_t N) {
  if (N == 1) {
    if (A[0].isFixnum())
      return Value::fixnum(-A[0].asFixnum());
    return Value::flonum(-wantNumber("-", A[0]));
  }
  bool Exact = A[0].isFixnum();
  int64_t IAcc = Exact ? A[0].asFixnum() : 0;
  double DAcc = Exact ? 0 : wantNumber("-", A[0]);
  for (size_t I = 1; I < N; ++I) {
    double D = wantNumber("-", A[I]);
    if (Exact && A[I].isFixnum())
      IAcc -= A[I].asFixnum();
    else if (Exact) {
      Exact = false;
      DAcc = static_cast<double>(IAcc) - D;
    } else
      DAcc -= D;
  }
  return Exact ? Value::fixnum(IAcc) : Value::flonum(DAcc);
}

Value primMul(Context &, Value *A, size_t N) {
  int64_t IAcc = 1;
  bool Exact = true;
  double DAcc = 1;
  for (size_t I = 0; I < N; ++I) {
    double D = wantNumber("*", A[I]);
    if (Exact && A[I].isFixnum())
      IAcc *= A[I].asFixnum();
    else if (Exact) {
      Exact = false;
      DAcc = static_cast<double>(IAcc) * D;
    } else
      DAcc *= D;
  }
  return Exact ? Value::fixnum(IAcc) : Value::flonum(DAcc);
}

Value primDiv(Context &, Value *A, size_t N) {
  if (N == 1) {
    double D = wantNumber("/", A[0]);
    if (D == 0)
      raiseError("/: division by zero");
    if (A[0].isFixnum() && (A[0].asFixnum() == 1 || A[0].asFixnum() == -1))
      return A[0];
    return Value::flonum(1.0 / D);
  }
  // Stay exact as long as every step divides evenly.
  bool Exact = A[0].isFixnum();
  int64_t IAcc = Exact ? A[0].asFixnum() : 0;
  double DAcc = wantNumber("/", A[0]);
  for (size_t I = 1; I < N; ++I) {
    double D = wantNumber("/", A[I]);
    if (D == 0)
      raiseError("/: division by zero");
    // INT64_MIN / -1 overflows (and traps in hardware); it takes the
    // flonum path like any inexact quotient.
    if (Exact && A[I].isFixnum() &&
        !(IAcc == INT64_MIN && A[I].asFixnum() == -1) &&
        IAcc % A[I].asFixnum() == 0) {
      IAcc /= A[I].asFixnum();
      DAcc = static_cast<double>(IAcc);
      continue;
    }
    if (Exact) {
      Exact = false;
      DAcc = static_cast<double>(IAcc);
    }
    DAcc /= D;
  }
  return Exact ? Value::fixnum(IAcc) : Value::flonum(DAcc);
}

template <typename Cmp> Value compareChain(const char *Name, Value *A,
                                           size_t N, Cmp Pred) {
  for (size_t I = 0; I + 1 < N; ++I)
    if (!Pred(wantNumber(Name, A[I]), wantNumber(Name, A[I + 1])))
      return Value::boolean(false);
  return Value::boolean(true);
}

Value primNumEq(Context &, Value *A, size_t N) {
  return compareChain("=", A, N, [](double X, double Y) { return X == Y; });
}
Value primLt(Context &, Value *A, size_t N) {
  return compareChain("<", A, N, [](double X, double Y) { return X < Y; });
}
Value primGt(Context &, Value *A, size_t N) {
  return compareChain(">", A, N, [](double X, double Y) { return X > Y; });
}
Value primLe(Context &, Value *A, size_t N) {
  return compareChain("<=", A, N, [](double X, double Y) { return X <= Y; });
}
Value primGe(Context &, Value *A, size_t N) {
  return compareChain(">=", A, N, [](double X, double Y) { return X >= Y; });
}

Value primQuotient(Context &, Value *A, size_t) {
  int64_t X = wantFixnum("quotient", A[0]);
  int64_t Y = wantFixnum("quotient", A[1]);
  if (Y == 0)
    raiseError("quotient: division by zero");
  // INT64_MIN / -1 has no fixnum result (and traps in hardware).
  if (X == INT64_MIN && Y == -1)
    raiseError("quotient: fixnum overflow");
  return Value::fixnum(X / Y);
}
Value primRemainder(Context &, Value *A, size_t) {
  int64_t X = wantFixnum("remainder", A[0]);
  int64_t Y = wantFixnum("remainder", A[1]);
  if (Y == 0)
    raiseError("remainder: division by zero");
  // X % -1 is always 0, but INT64_MIN % -1 traps in hardware.
  if (Y == -1)
    return Value::fixnum(0);
  return Value::fixnum(X % Y);
}
Value primModulo(Context &, Value *A, size_t) {
  int64_t X = wantFixnum("modulo", A[0]);
  int64_t Y = wantFixnum("modulo", A[1]);
  if (Y == 0)
    raiseError("modulo: division by zero");
  if (Y == -1) // as in remainder: INT64_MIN % -1 traps
    return Value::fixnum(0);
  int64_t R = X % Y;
  if (R != 0 && ((R < 0) != (Y < 0)))
    R += Y;
  return Value::fixnum(R);
}

Value primAbs(Context &, Value *A, size_t) {
  if (A[0].isFixnum()) {
    int64_t X = A[0].asFixnum();
    // |INT64_MIN| has no fixnum result (negating it is undefined).
    if (X == INT64_MIN)
      raiseError("abs: fixnum overflow");
    return Value::fixnum(X < 0 ? -X : X);
  }
  return Value::flonum(std::fabs(wantNumber("abs", A[0])));
}

Value primMin(Context &, Value *A, size_t N) {
  Value Best = A[0];
  double BestD = wantNumber("min", A[0]);
  for (size_t I = 1; I < N; ++I) {
    double D = wantNumber("min", A[I]);
    if (D < BestD) {
      Best = A[I];
      BestD = D;
    }
  }
  return Best;
}
Value primMax(Context &, Value *A, size_t N) {
  Value Best = A[0];
  double BestD = wantNumber("max", A[0]);
  for (size_t I = 1; I < N; ++I) {
    double D = wantNumber("max", A[I]);
    if (D > BestD) {
      Best = A[I];
      BestD = D;
    }
  }
  return Best;
}

Value primZeroP(Context &, Value *A, size_t) {
  return Value::boolean(wantNumber("zero?", A[0]) == 0);
}
Value primPositiveP(Context &, Value *A, size_t) {
  return Value::boolean(wantNumber("positive?", A[0]) > 0);
}
Value primNegativeP(Context &, Value *A, size_t) {
  return Value::boolean(wantNumber("negative?", A[0]) < 0);
}
Value primNumberP(Context &, Value *A, size_t) {
  return Value::boolean(A[0].isNumber());
}
Value primIntegerP(Context &, Value *A, size_t) {
  if (A[0].isFixnum())
    return Value::boolean(true);
  if (A[0].isFlonum())
    return Value::boolean(std::floor(A[0].asFlonum()) == A[0].asFlonum());
  return Value::boolean(false);
}
Value primRealP(Context &, Value *A, size_t) {
  return Value::boolean(A[0].isNumber());
}
Value primFixnumP(Context &, Value *A, size_t) {
  return Value::boolean(A[0].isFixnum());
}
Value primFlonumP(Context &, Value *A, size_t) {
  return Value::boolean(A[0].isFlonum());
}
Value primEvenP(Context &, Value *A, size_t) {
  return Value::boolean(wantFixnum("even?", A[0]) % 2 == 0);
}
Value primOddP(Context &, Value *A, size_t) {
  return Value::boolean(wantFixnum("odd?", A[0]) % 2 != 0);
}

Value primExactToInexact(Context &, Value *A, size_t) {
  return Value::flonum(wantNumber("exact->inexact", A[0]));
}
Value primInexactToExact(Context &, Value *A, size_t) {
  double D = wantNumber("inexact->exact", A[0]);
  return Value::fixnum(static_cast<int64_t>(D));
}

template <double (*F)(double)> Value round1(const char *Name, Value *A) {
  if (A[0].isFixnum())
    return A[0];
  return Value::flonum(F(wantNumber(Name, A[0])));
}
Value primFloor(Context &, Value *A, size_t) {
  return round1<std::floor>("floor", A);
}
Value primCeiling(Context &, Value *A, size_t) {
  return round1<std::ceil>("ceiling", A);
}
Value primRound(Context &, Value *A, size_t) {
  return round1<std::nearbyint>("round", A);
}
Value primTruncate(Context &, Value *A, size_t) {
  return round1<std::trunc>("truncate", A);
}

Value primSqrt(Context &, Value *A, size_t) {
  double D = wantNumber("sqrt", A[0]);
  if (D < 0)
    raiseError("sqrt: negative argument");
  double R = std::sqrt(D);
  if (A[0].isFixnum() && R == std::floor(R))
    return Value::fixnum(static_cast<int64_t>(R));
  return Value::flonum(R);
}

Value primExpt(Context &, Value *A, size_t) {
  if (bothFixnum(A[0], A[1]) && A[1].asFixnum() >= 0 &&
      A[1].asFixnum() < 63) {
    int64_t Base = A[0].asFixnum();
    int64_t Out = 1;
    for (int64_t I = 0; I < A[1].asFixnum(); ++I)
      Out *= Base;
    return Value::fixnum(Out);
  }
  return Value::flonum(
      std::pow(wantNumber("expt", A[0]), wantNumber("expt", A[1])));
}

Value primExp(Context &, Value *A, size_t) {
  return Value::flonum(std::exp(wantNumber("exp", A[0])));
}
Value primLog(Context &, Value *A, size_t) {
  return Value::flonum(std::log(wantNumber("log", A[0])));
}

Value primAdd1(Context &, Value *A, size_t) {
  if (A[0].isFixnum())
    return Value::fixnum(A[0].asFixnum() + 1);
  return Value::flonum(wantNumber("add1", A[0]) + 1);
}
Value primSub1(Context &, Value *A, size_t) {
  if (A[0].isFixnum())
    return Value::fixnum(A[0].asFixnum() - 1);
  return Value::flonum(wantNumber("sub1", A[0]) - 1);
}

Value primNumberToString(Context &Ctx, Value *A, size_t) {
  if (A[0].isFixnum())
    return Ctx.TheHeap.string(std::to_string(A[0].asFixnum()),
                              AllocSite::PrimString);
  return Ctx.TheHeap.string(formatFlonum(wantNumber("number->string", A[0])),
                            AllocSite::PrimString);
}

Value primStringToNumber(Context &Ctx, Value *A, size_t) {
  const std::string &S = wantString("string->number", A[0])->Text;
  int64_t I;
  if (parseInt64(S, I))
    return Value::fixnum(I);
  double D;
  if (parseDouble(S, D))
    return Value::flonum(D);
  (void)Ctx;
  return Value::boolean(false);
}

/// Deterministic RNG for Scheme-level workload generators (xorshift64*).
Value primRngSeed(Context &Ctx, Value *A, size_t) {
  int64_t S = wantFixnum("rng-seed!", A[0]);
  Ctx.RngState = static_cast<uint64_t>(S) | 1;
  return Value::undefined();
}
Value primRngNext(Context &Ctx, Value *A, size_t) {
  int64_t Bound = wantFixnum("rng-next", A[0]);
  if (Bound <= 0)
    raiseError("rng-next: bound must be positive");
  uint64_t X = Ctx.RngState;
  X ^= X >> 12;
  X ^= X << 25;
  X ^= X >> 27;
  Ctx.RngState = X;
  return Value::fixnum(
      static_cast<int64_t>((X * 0x2545F4914F6CDD1Dull) >> 1) % Bound);
}

} // namespace

void pgmp::installNumPrims(Context &Ctx) {
  Ctx.definePrimitive("+", 0, -1, primAdd);
  Ctx.definePrimitive("-", 1, -1, primSub);
  Ctx.definePrimitive("*", 0, -1, primMul);
  Ctx.definePrimitive("/", 1, -1, primDiv);
  Ctx.definePrimitive("=", 2, -1, primNumEq);
  Ctx.definePrimitive("<", 2, -1, primLt);
  Ctx.definePrimitive(">", 2, -1, primGt);
  Ctx.definePrimitive("<=", 2, -1, primLe);
  Ctx.definePrimitive(">=", 2, -1, primGe);
  Ctx.definePrimitive("quotient", 2, 2, primQuotient);
  Ctx.definePrimitive("remainder", 2, 2, primRemainder);
  Ctx.definePrimitive("modulo", 2, 2, primModulo);
  Ctx.definePrimitive("abs", 1, 1, primAbs);
  Ctx.definePrimitive("min", 1, -1, primMin);
  Ctx.definePrimitive("max", 1, -1, primMax);
  Ctx.definePrimitive("zero?", 1, 1, primZeroP);
  Ctx.definePrimitive("positive?", 1, 1, primPositiveP);
  Ctx.definePrimitive("negative?", 1, 1, primNegativeP);
  Ctx.definePrimitive("number?", 1, 1, primNumberP);
  Ctx.definePrimitive("integer?", 1, 1, primIntegerP);
  Ctx.definePrimitive("real?", 1, 1, primRealP);
  Ctx.definePrimitive("fixnum?", 1, 1, primFixnumP);
  Ctx.definePrimitive("flonum?", 1, 1, primFlonumP);
  Ctx.definePrimitive("even?", 1, 1, primEvenP);
  Ctx.definePrimitive("odd?", 1, 1, primOddP);
  Ctx.definePrimitive("exact->inexact", 1, 1, primExactToInexact);
  Ctx.definePrimitive("inexact->exact", 1, 1, primInexactToExact);
  Ctx.definePrimitive("floor", 1, 1, primFloor);
  Ctx.definePrimitive("ceiling", 1, 1, primCeiling);
  Ctx.definePrimitive("round", 1, 1, primRound);
  Ctx.definePrimitive("truncate", 1, 1, primTruncate);
  Ctx.definePrimitive("sqrt", 1, 1, primSqrt);
  Ctx.definePrimitive("expt", 2, 2, primExpt);
  Ctx.definePrimitive("exp", 1, 1, primExp);
  Ctx.definePrimitive("log", 1, 1, primLog);
  Ctx.definePrimitive("add1", 1, 1, primAdd1);
  Ctx.definePrimitive("sub1", 1, 1, primSub1);
  Ctx.definePrimitive("1+", 1, 1, primAdd1);
  Ctx.definePrimitive("1-", 1, 1, primSub1);
  Ctx.definePrimitive("number->string", 1, 1, primNumberToString);
  Ctx.definePrimitive("string->number", 1, 1, primStringToNumber);
  Ctx.definePrimitive("rng-seed!", 1, 1, primRngSeed);
  Ctx.definePrimitive("rng-next", 1, 1, primRngNext);
  Ctx.definePrimitive("sqr", 1, 1, [](Context &, Value *A, size_t) {
    if (A[0].isFixnum())
      return Value::fixnum(A[0].asFixnum() * A[0].asFixnum());
    double D = wantNumber("sqr", A[0]);
    return Value::flonum(D * D);
  });
}
