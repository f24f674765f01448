//===- tests/SchemeSuiteTest.cpp - Scheme-level test suites ---------------===//
//
// Runs the .scm suites under tests/scheme/ through a fresh Engine each.
// A suite signals failure by raising (the check-* helpers in
// _helpers.scm do so with a descriptive message).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace pgmp;
using namespace pgmp::testutil;

#ifndef PGMP_SCHEME_DIR
#error "PGMP_SCHEME_DIR must be defined"
#endif

namespace {

/// tests/scheme lives next to scheme/ in the source tree.
std::string suiteDir() {
  std::string Root = PGMP_SCHEME_DIR; // <repo>/scheme
  return Root.substr(0, Root.rfind('/')) + "/tests/scheme";
}

struct Suite {
  const char *File;
  /// Case-study libraries to preload (empty-terminated).
  const char *Libs[8];
};

/// Prints the case by content so listed test names are the same in every
/// process (the default byte dump includes the string pointers).
void PrintTo(const Suite &S, std::ostream *OS) { *OS << S.File; }

class SchemeSuite : public ::testing::TestWithParam<Suite> {};

TEST_P(SchemeSuite, Passes) {
  const Suite &S = GetParam();
  Engine E;
  for (const char *const *L = S.Libs; *L; ++L)
    loadLib(E, *L);
  EvalResult Helpers = E.evalFile(suiteDir() + "/_helpers.scm");
  ASSERT_TRUE(Helpers.Ok) << Helpers.Error;
  EvalResult R = E.evalFile(suiteDir() + "/" + S.File);
  EXPECT_TRUE(R.Ok) << R.Error;
  // Sanity: the suite actually ran its checks.
  EvalResult N = E.evalString("checks-run");
  ASSERT_TRUE(N.Ok);
  EXPECT_GT(N.V.asFixnum(), 5) << "suite " << S.File << " ran few checks";
}

INSTANTIATE_TEST_SUITE_P(
    Files, SchemeSuite,
    ::testing::Values(
        Suite{"lists-suite.scm", {nullptr}},
        Suite{"numbers-suite.scm", {nullptr}},
        Suite{"strings-suite.scm", {nullptr}},
        Suite{"macros-suite.scm", {nullptr}},
        Suite{"pgmp-suite.scm", {nullptr}},
        Suite{"case-study-suite.scm",
              {"exclusive-cond", "pgmp-case", "object-system",
               "profiled-list", "profiled-seq", nullptr}}),
    [](const ::testing::TestParamInfo<Suite> &Info) {
      std::string Name = Info.param.File;
      Name = Name.substr(0, Name.find('.'));
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

} // namespace
