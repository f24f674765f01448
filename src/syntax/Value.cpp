//===- syntax/Value.cpp ---------------------------------------------------===//

#include "syntax/Value.h"

#include "syntax/Heap.h"
#include "syntax/SymbolTable.h"
#include "syntax/Syntax.h"

using namespace pgmp;

#define PGMP_DEFINE_AS(NAME, TYPE, PRED)                                       \
  TYPE *Value::NAME() const {                                                  \
    assert(PRED() && "value kind mismatch in " #NAME);                         \
    return static_cast<TYPE *>(Payload.O);                                     \
  }

PGMP_DEFINE_AS(asSymbol, Symbol, isSymbol)
PGMP_DEFINE_AS(asPair, Pair, isPair)
PGMP_DEFINE_AS(asString, StringObj, isString)
PGMP_DEFINE_AS(asVector, VectorObj, isVector)
PGMP_DEFINE_AS(asHash, HashTable, isHash)
PGMP_DEFINE_AS(asClosure, Closure, isClosure)
PGMP_DEFINE_AS(asPrimitive, Primitive, isPrimitive)
PGMP_DEFINE_AS(asSyntax, Syntax, isSyntax)
PGMP_DEFINE_AS(asBox, Box, isBox)

EnvObj *Value::asEnv() const {
  assert(K == ValueKind::Env && "value kind mismatch in asEnv");
  return static_cast<EnvObj *>(Payload.O);
}

#undef PGMP_DEFINE_AS

const char *pgmp::valueKindName(ValueKind K) {
#define PGMP_VALUE_KIND_NAME(Id, Name) Name,
  static constexpr const char *Names[] = {
      PGMP_VALUE_KINDS(PGMP_VALUE_KIND_NAME)};
#undef PGMP_VALUE_KIND_NAME
  return Names[static_cast<size_t>(K)];
}

bool pgmp::eqvValues(const Value &A, const Value &B) {
  // eq? already covers numbers and chars because they are immediates.
  return A == B;
}

bool pgmp::equalValues(const Value &A, const Value &B) {
  if (A == B)
    return true;
  if (A.kind() != B.kind())
    return false;
  switch (A.kind()) {
  case ValueKind::String:
    return A.asString()->Text == B.asString()->Text;
  case ValueKind::Pair:
    return equalValues(A.asPair()->Car, B.asPair()->Car) &&
           equalValues(A.asPair()->Cdr, B.asPair()->Cdr);
  case ValueKind::Vector: {
    const auto &EA = A.asVector()->Elems;
    const auto &EB = B.asVector()->Elems;
    if (EA.size() != EB.size())
      return false;
    for (size_t I = 0, E = EA.size(); I != E; ++I)
      if (!equalValues(EA[I], EB[I]))
        return false;
    return true;
  }
  default:
    return false;
  }
}

static uint64_t hashCombine(uint64_t A, uint64_t B) {
  return A ^ (B + 0x9e3779b97f4a7c15ull + (A << 6) + (A >> 2));
}

uint64_t pgmp::eqHash(const Value &V) {
  switch (V.kind()) {
  case ValueKind::Nil:
    return 0x11;
  case ValueKind::Eof:
    return 0x22;
  case ValueKind::Void:
    return 0x33;
  case ValueKind::Unbound:
    return 0x66;
  case ValueKind::Bool:
    return V.asBool() ? 0x44 : 0x55;
  case ValueKind::Fixnum:
    return hashCombine(1, static_cast<uint64_t>(V.asFixnum()));
  case ValueKind::Flonum: {
    double D = V.asFlonum();
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(D));
    __builtin_memcpy(&Bits, &D, sizeof(Bits));
    return hashCombine(2, Bits);
  }
  case ValueKind::Char:
    return hashCombine(3, V.asChar());
  default:
    return hashCombine(4, reinterpret_cast<uint64_t>(V.obj()));
  }
}

uint64_t pgmp::equalHash(const Value &V) {
  switch (V.kind()) {
  case ValueKind::String: {
    uint64_t H = 5;
    for (char C : V.asString()->Text)
      H = hashCombine(H, static_cast<uint8_t>(C));
    return H;
  }
  case ValueKind::Pair:
    return hashCombine(equalHash(V.asPair()->Car),
                       equalHash(V.asPair()->Cdr));
  case ValueKind::Vector: {
    uint64_t H = 7;
    for (const Value &E : V.asVector()->Elems)
      H = hashCombine(H, equalHash(E));
    return H;
  }
  case ValueKind::Symbol:
    // Symbols are interned; identity hash is stable and equal?-consistent.
    return hashCombine(6, V.asSymbol()->Id);
  default:
    return eqHash(V);
  }
}
