//===- tests/MatcherTest.cpp - Pattern matching via syntax-case -----------===//
//
// Exercises the matcher through the public macro surface with a
// parameterized sweep of (pattern, input, expected) triples, plus
// direct edge cases.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace pgmp;
using namespace pgmp::testutil;

namespace {

struct MatchCase {
  const char *Pattern;  ///< syntax-case pattern (without the macro head)
  const char *Input;    ///< arguments at the use site
  const char *Expected; ///< written result of the template, or "!" = no match
  const char *Template; ///< template evaluated on match
};

/// Prints the case by content so listed test names are the same in every
/// process (the default byte dump includes the string pointers).
void PrintTo(const MatchCase &C, std::ostream *OS) {
  *OS << "(_ " << C.Pattern << ") <- (m " << C.Input << ")";
}

class MatcherSweep : public ::testing::TestWithParam<MatchCase> {};

TEST_P(MatcherSweep, MatchesAsSpecified) {
  const MatchCase &C = GetParam();
  Engine E;
  // The macro's template is wrapped in (quote ...) so its expansion is
  // data, not code to re-expand.
  std::string Def = std::string("(define-syntax (m stx)") +
                    "  (syntax-case stx ()" + "    [(_ " + C.Pattern +
                    ") #'(quote " + C.Template + ")]" +
                    "    [_ #''no-match]))";
  ASSERT_TRUE(E.evalString(Def).Ok) << Def;
  EvalResult R = E.evalString(std::string("(m ") + C.Input + ")");
  if (std::string(C.Expected) == "!") {
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(writeToString(R.V), "no-match");
    return;
  }
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(writeToString(R.V), C.Expected)
      << "pattern " << C.Pattern << " input " << C.Input;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatcherSweep,
    ::testing::Values(
        // Plain variables and atoms.
        MatchCase{"a", "5", "5", "a"},
        MatchCase{"a b", "1 2", "(2 1)", "(b a)"},
        MatchCase{"a b", "1", "!", "a"},
        MatchCase{"1 a", "1 x", "x", "a"},
        MatchCase{"1 a", "2 x", "!", "a"},
        MatchCase{"#t a", "#t ok", "ok", "a"},
        MatchCase{"\"lit\" a", "\"lit\" ok", "ok", "a"},
        MatchCase{"\"lit\" a", "\"other\" ok", "!", "a"},
        MatchCase{"#\\q a", "#\\q ok", "ok", "a"},
        // Wildcards.
        MatchCase{"_ a", "ignored 7", "7", "a"},
        // Nested structure.
        MatchCase{"(a b) c", "(1 2) 3", "(1 2 3)", "(a b c)"},
        MatchCase{"(a (b c))", "(1 (2 3))", "(3 2 1)", "(c b a)"},
        MatchCase{"(a b)", "(1 2 3)", "!", "a"},
        MatchCase{"()", "()", "empty", "empty"},
        // Dotted patterns.
        MatchCase{"(a . r)", "(1 2 3)", "(1 (2 3))", "(a r)"},
        MatchCase{"(a . r)", "(1 . 2)", "(1 2)", "(a r)"},
        // Ellipsis basics.
        MatchCase{"(e ...)", "(1 2 3)", "(1 2 3)", "(e ...)"},
        MatchCase{"(e ...)", "()", "()", "(e ...)"},
        MatchCase{"(e ...) last", "(1 2) 9", "((1 2) 9)",
                  "((e ...) last)"},
        // Ellipsis with fixed tail inside the same list.
        MatchCase{"(e ... z)", "(1 2 3)", "((1 2) 3)", "((e ...) z)"},
        MatchCase{"(e ... z)", "(3)", "(() 3)", "((e ...) z)"},
        MatchCase{"(e ... z)", "()", "!", "z"},
        // Structured repetition.
        MatchCase{"((k v) ...)", "((a 1) (b 2))", "((a b) (1 2))",
                  "((k ...) (v ...))"},
        MatchCase{"((k v) ...)", "((a 1) (b))", "!", "k"},
        // Nested ellipsis.
        MatchCase{"((e ...) ...)", "((1 2) () (3))", "((1 2) () (3))",
                  "((e ...) ...)"},
        // Vector patterns.
        MatchCase{"#(a b)", "#(1 2)", "(1 2)", "(a b)"},
        MatchCase{"#(a b)", "#(1 2 3)", "!", "a"},
        MatchCase{"#(a b)", "(1 2)", "!", "a"}));

struct MatcherEdge : ::testing::Test {
  Engine E;
};

TEST_F(MatcherEdge, LiteralMatchingUsesFreeIdentifierEquality) {
  // A literal matches even when the use site writes it with different
  // (but unbound-equivalent) scopes; it does not match a use-site
  // identifier that is locally bound.
  ASSERT_TRUE(E.evalString("(define-syntax (has-else stx)"
                           "  (syntax-case stx (else)"
                           "    [(_ else) #''yes]"
                           "    [(_ x) #''no]))")
                  .Ok);
  EXPECT_EQ(evalOk(E, "(has-else else)"), "yes");
  EXPECT_EQ(evalOk(E, "(has-else other)"), "no");
  // `else` bound as a variable at the use site no longer matches the
  // unbound literal.
  EXPECT_EQ(evalOk(E, "(let ([else 1]) (has-else else))"), "no");
}

TEST_F(MatcherEdge, FenderRejectionFallsThrough) {
  ASSERT_TRUE(E.evalString(
                   "(define-syntax (small stx)"
                   "  (syntax-case stx ()"
                   "    [(_ n) (and (number? (syntax->datum #'n))"
                   "                (< (syntax->datum #'n) 10)) #''small]"
                   "    [(_ n) #''big]))")
                  .Ok);
  EXPECT_EQ(evalOk(E, "(small 5)"), "small");
  EXPECT_EQ(evalOk(E, "(small 50)"), "big");
}

TEST_F(MatcherEdge, NoClauseMatchesRaises) {
  ASSERT_TRUE(E.evalString("(define-syntax (pairs-only stx)"
                           "  (syntax-case stx ()"
                           "    [(_ (a b)) #'(cons a b)]))")
                  .Ok);
  EvalResult R = E.evalString("(pairs-only 5)");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("no matching syntax-case clause"),
            std::string::npos);
}

TEST_F(MatcherEdge, RaggedEllipsisLengthsRaise) {
  ASSERT_TRUE(E.evalString("(define-syntax (zip stx)"
                           "  (syntax-case stx ()"
                           "    [(_ (a ...) (b ...)) #'(quote ((a b) ...))]))")
                  .Ok);
  EvalResult R = E.evalString("(zip (1 2 3) (4 5))");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("ragged"), std::string::npos) << R.Error;
  // Equal lengths are fine.
  EXPECT_EQ(evalOk(E, "(zip (1 2) (3 4))"), "((1 3) (2 4))");
}

} // namespace
