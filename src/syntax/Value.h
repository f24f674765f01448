//===- syntax/Value.h - Scheme value representation -----------*- C++ -*-===//
///
/// \file
/// The uniform value representation of the embedded Scheme system:
/// immediates (fixnum, flonum, char, bool, nil, eof, void) are stored
/// inline in a 16-byte Value; everything else is a heap Obj. Heap objects
/// live in a per-engine Heap and are freed when the engine dies (there is
/// no mid-evaluation collector; see DESIGN.md Section 6).
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_SYNTAX_VALUE_H
#define PGMP_SYNTAX_VALUE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pgmp {

class Obj;
class Symbol;
class Pair;
class StringObj;
class VectorObj;
class HashTable;
class Closure;
class Primitive;
class Syntax;
class Box;
class EnvObj;

/// Discriminator for Value, as an X-macro of identifier and stable
/// lower-case name. Heap kinds mirror the Obj subclass so type tests
/// never need to chase the pointer.
#define PGMP_VALUE_KINDS(X)                                                    \
  X(Nil, "nil") /* the empty list '() */                                       \
  X(Bool, "bool")                                                              \
  X(Fixnum, "fixnum") /* 64-bit signed integer */                              \
  X(Flonum, "flonum") /* IEEE double */                                        \
  X(Char, "char")     /* Unicode code point */                                 \
  X(Eof, "eof")                                                                \
  X(Void, "void")       /* unspecified value */                                \
  X(Unbound, "unbound") /* sentinel in not-yet-defined global cells */         \
  X(Symbol, "symbol")                                                          \
  X(String, "string")                                                          \
  X(Pair, "pair")                                                              \
  X(Vector, "vector")                                                          \
  X(Hash, "hash")                                                              \
  X(Closure, "closure")                                                        \
  X(VmClosure, "vm-closure") /* closure over a vm/ bytecode function */        \
  X(Primitive, "primitive")                                                    \
  X(Syntax, "syntax")                                                          \
  X(Box, "box")                                                                \
  X(Env, "env")

enum class ValueKind : uint8_t {
#define PGMP_VALUE_KIND_ENUM(Id, Name) Id,
  PGMP_VALUE_KINDS(PGMP_VALUE_KIND_ENUM)
#undef PGMP_VALUE_KIND_ENUM
};

/// Number of ValueKind discriminators (for kind-indexed tables such as
/// the heap's per-kind allocation counters).
#define PGMP_VALUE_KIND_COUNT(Id, Name) +1
inline constexpr size_t NumValueKinds =
    0 PGMP_VALUE_KINDS(PGMP_VALUE_KIND_COUNT);
#undef PGMP_VALUE_KIND_COUNT

/// Stable lower-case name of a kind ("pair", "vm-closure", ...) for
/// diagnostics and observability rows.
const char *valueKindName(ValueKind K);

/// A Scheme value: tag plus immediate payload or heap pointer.
class Value {
public:
  Value() : K(ValueKind::Void) { Payload.O = nullptr; }

  static Value nil() { return Value(ValueKind::Nil); }
  static Value undefined() { return Value(ValueKind::Void); }
  static Value eof() { return Value(ValueKind::Eof); }
  static Value unbound() { return Value(ValueKind::Unbound); }
  static Value boolean(bool B) {
    Value V(ValueKind::Bool);
    V.Payload.B = B;
    return V;
  }
  static Value fixnum(int64_t I) {
    Value V(ValueKind::Fixnum);
    V.Payload.I = I;
    return V;
  }
  static Value flonum(double D) {
    Value V(ValueKind::Flonum);
    V.Payload.D = D;
    return V;
  }
  static Value charval(uint32_t C) {
    Value V(ValueKind::Char);
    V.Payload.C = C;
    return V;
  }
  static Value object(ValueKind K, Obj *O) {
    Value V(K);
    V.Payload.O = O;
    return V;
  }

  ValueKind kind() const { return K; }

  bool isNil() const { return K == ValueKind::Nil; }
  bool isBool() const { return K == ValueKind::Bool; }
  bool isFixnum() const { return K == ValueKind::Fixnum; }
  bool isFlonum() const { return K == ValueKind::Flonum; }
  bool isNumber() const { return isFixnum() || isFlonum(); }
  bool isChar() const { return K == ValueKind::Char; }
  bool isEof() const { return K == ValueKind::Eof; }
  bool isVoid() const { return K == ValueKind::Void; }
  bool isUnbound() const { return K == ValueKind::Unbound; }
  bool isSymbol() const { return K == ValueKind::Symbol; }
  bool isString() const { return K == ValueKind::String; }
  bool isPair() const { return K == ValueKind::Pair; }
  bool isVector() const { return K == ValueKind::Vector; }
  bool isHash() const { return K == ValueKind::Hash; }
  bool isClosure() const { return K == ValueKind::Closure; }
  bool isVmClosure() const { return K == ValueKind::VmClosure; }
  bool isPrimitive() const { return K == ValueKind::Primitive; }
  bool isProcedure() const {
    return isClosure() || isPrimitive() || isVmClosure();
  }
  bool isSyntax() const { return K == ValueKind::Syntax; }
  bool isBox() const { return K == ValueKind::Box; }

  /// Everything but #f is true in conditionals.
  bool isTruthy() const { return !(K == ValueKind::Bool && !Payload.B); }

  bool asBool() const {
    assert(isBool() && "not a boolean");
    return Payload.B;
  }
  int64_t asFixnum() const {
    assert(isFixnum() && "not a fixnum");
    return Payload.I;
  }
  double asFlonum() const {
    assert(isFlonum() && "not a flonum");
    return Payload.D;
  }
  /// Numeric value as double regardless of exactness.
  double numberAsDouble() const {
    assert(isNumber() && "not a number");
    return isFixnum() ? static_cast<double>(Payload.I) : Payload.D;
  }
  uint32_t asChar() const {
    assert(isChar() && "not a char");
    return Payload.C;
  }
  Obj *obj() const {
    assert(static_cast<uint8_t>(K) >= static_cast<uint8_t>(ValueKind::Symbol));
    return Payload.O;
  }

  Symbol *asSymbol() const;
  Pair *asPair() const;
  StringObj *asString() const;
  VectorObj *asVector() const;
  HashTable *asHash() const;
  Closure *asClosure() const;
  Primitive *asPrimitive() const;
  Syntax *asSyntax() const;
  Box *asBox() const;
  EnvObj *asEnv() const;

  /// Pointer/immediate identity (Scheme eq?).
  friend bool operator==(const Value &A, const Value &B) {
    if (A.K != B.K)
      return false;
    switch (A.K) {
    case ValueKind::Nil:
    case ValueKind::Eof:
    case ValueKind::Void:
    case ValueKind::Unbound:
      return true;
    case ValueKind::Bool:
      return A.Payload.B == B.Payload.B;
    case ValueKind::Fixnum:
      return A.Payload.I == B.Payload.I;
    case ValueKind::Flonum:
      return A.Payload.D == B.Payload.D;
    case ValueKind::Char:
      return A.Payload.C == B.Payload.C;
    default:
      return A.Payload.O == B.Payload.O;
    }
  }

private:
  explicit Value(ValueKind K) : K(K) { Payload.O = nullptr; }

  /// Collector-only: rewrites the heap pointer of an already-heap-kinded
  /// value to its post-evacuation address (GcVisitor::value).
  friend class GcVisitor;
  void setObjForGc(Obj *O) {
    assert(static_cast<uint8_t>(K) >= static_cast<uint8_t>(ValueKind::Symbol));
    Payload.O = O;
  }

  ValueKind K;
  union {
    bool B;
    int64_t I;
    double D;
    uint32_t C;
    Obj *O;
  } Payload;
};

/// eq? — identity (what operator== implements).
inline bool eqValues(const Value &A, const Value &B) { return A == B; }

/// eqv? — eq? plus numeric/char equality within the same exactness.
bool eqvValues(const Value &A, const Value &B);

/// equal? — structural equality on pairs, vectors, and strings.
bool equalValues(const Value &A, const Value &B);

/// Hash consistent with equalValues (used by equal-hashtables).
uint64_t equalHash(const Value &V);

/// Hash consistent with eqValues.
uint64_t eqHash(const Value &V);

} // namespace pgmp

#endif // PGMP_SYNTAX_VALUE_H
