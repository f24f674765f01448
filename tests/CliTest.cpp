//===- tests/CliTest.cpp - pgmpi end-to-end exit-code contract ------------===//
//
// Drives the built pgmpi binary (PGMPI_BIN, wired by tests/CMakeLists.txt)
// and pins the documented exit-code contract:
//   0  success
//   1  failure (evaluation error, guard trip, all parallel tasks failed)
//   2  degraded (corrupt profile ignored; or some — not all — parallel
//      tasks failed and the merged profile covers the survivors)
//   64 usage errors (sysexits EX_USAGE, distinguishable from "degraded")
// plus the resource-guard flags and the hidden --inject-fault harness.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <sys/wait.h>

using namespace pgmp::testutil;

namespace {

/// Runs `pgmpi <Args>` with output discarded; returns the exit code, or
/// -1 if the process did not exit normally (signal, spawn failure).
int pgmpi(const std::string &Args) {
  std::string Cmd = std::string(PGMPI_BIN) + " " + Args + " >/dev/null 2>&1";
  int Status = std::system(Cmd.c_str());
  if (Status == -1 || !WIFEXITED(Status))
    return -1;
  return WEXITSTATUS(Status);
}

/// Runs `pgmpi <Args>` and returns its stdout and stderr combined; \p Exit
/// receives the exit code, or -1 if the process did not exit normally.
std::string pgmpiOutput(const std::string &Args, int &Exit) {
  std::string Cmd = std::string(PGMPI_BIN) + " " + Args + " 2>&1";
  std::string Out;
  Exit = -1;
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return Out;
  char Buf[4096];
  for (size_t N; (N = std::fread(Buf, 1, sizeof(Buf), P)) > 0;)
    Out.append(Buf, N);
  int Status = pclose(P);
  if (Status != -1 && WIFEXITED(Status))
    Exit = WEXITSTATUS(Status);
  return Out;
}

/// Value of the `--stats` counter row \p Name ("  name  value"), or -1
/// when the table has no such row.
int64_t statsRow(const std::string &Out, const std::string &Name) {
  std::istringstream Lines(Out);
  for (std::string Line; std::getline(Lines, Line);) {
    std::istringstream Words(Line);
    std::string Key, Extra;
    int64_t Value;
    if (Words >> Key >> Value && Key == Name && !(Words >> Extra))
      return Value;
  }
  return -1;
}

/// Writes \p Text to a test-unique file and returns its path.
std::string writeScript(const std::string &Suffix, const std::string &Text) {
  std::string Path = tempPath(Suffix);
  std::ofstream Out(Path, std::ios::trunc);
  Out << Text;
  EXPECT_TRUE(Out.good()) << Path;
  return Path;
}

const char *Workload = "(define (hot n) (if (zero? n) 'done (hot (- n 1))))\n"
                       "(hot 50)\n";

TEST(Cli, SuccessExitsZero) {
  EXPECT_EQ(pgmpi("-e '(+ 1 2)'"), 0);
  std::string Script = writeScript("ok.scm", Workload);
  EXPECT_EQ(pgmpi(Script), 0);
}

TEST(Cli, EvaluationErrorExitsOne) {
  EXPECT_EQ(pgmpi("-e '(this-is-unbound)'"), 1);
}

TEST(Cli, UsageErrorsExitSixtyFour) {
  EXPECT_EQ(pgmpi(""), 64) << "no input at all";
  EXPECT_EQ(pgmpi("--no-such-flag -e '(+ 1 2)'"), 64);
  EXPECT_EQ(pgmpi("--fuel 0 -e '(+ 1 2)'"), 64) << "guards need positive N";
  EXPECT_EQ(pgmpi("--fuel banana -e '(+ 1 2)'"), 64);
  EXPECT_EQ(pgmpi("--inject-fault no-such-point -e '(+ 1 2)'"), 64);
  EXPECT_EQ(pgmpi("--tier sideways -e '(+ 1 2)'"), 64);
  std::string Script = writeScript("usage.scm", Workload);
  EXPECT_EQ(pgmpi("run --jobs 2 " + Script), 64) << "run needs --profile-out";
  EXPECT_EQ(pgmpi("run --jobs 0 --profile-out /tmp/x.profile " + Script), 64);
}

TEST(Cli, GuardTripExitsOne) {
  EXPECT_EQ(pgmpi("--fuel 100 -e '(define (sp n) (sp (+ n 1))) (sp 0)'"), 1);
  EXPECT_EQ(pgmpi("--deadline-ms 20 -e '(define (sp n) (sp (+ n 1))) (sp 0)'"),
            1);
  EXPECT_EQ(pgmpi("--max-depth 10 -e "
                  "'(define (sum n) (if (zero? n) 0 (+ n (sum (- n 1))))) "
                  "(sum 1000)'"),
            1);
  // Generous budgets stay out of the way.
  EXPECT_EQ(pgmpi("--fuel 1000000 --max-depth 10000 --deadline-ms 60000 "
                  "-e '(+ 1 2)'"),
            0);
}

TEST(Cli, InjectedFaultExitsOne) {
  EXPECT_EQ(pgmpi("--inject-fault compile -e '(+ 1 2)'"), 1);
  EXPECT_EQ(pgmpi("--inject-fault read -e '(+ 1 2)'"), 1);
  // A skip count beyond every hit means the fault never fires.
  EXPECT_EQ(pgmpi("--inject-fault compile:100 -e '(+ 1 2)'"), 0);
}

TEST(Cli, CorruptProfileInputDegradesToExitTwo) {
  std::string Script = writeScript("work.scm", Workload);
  std::string Garbage = writeScript("bad.profile", "not a profile at all\n");
  // Non-strict: the corrupt profile is ignored with a warning and the run
  // proceeds unoptimized — exit 2 so build scripts can notice.
  EXPECT_EQ(pgmpi("--profile-in " + Garbage + " " + Script), 2);
  // Strict mode promotes the same input to a hard failure.
  EXPECT_EQ(pgmpi("--strict-profile --profile-in " + Garbage + " " + Script),
            1);
}

TEST(Cli, RunJobsStoresMergedProfileAndExitsZero) {
  std::string Script = writeScript("par.scm", Workload);
  std::string Profile = tempPath("merged.profile");
  EXPECT_EQ(pgmpi("run --jobs 2 --profile-out " + Profile + " " + Script), 0);
  EXPECT_EQ(pgmpi("report " + Profile), 0);
  EXPECT_EQ(pgmpi("profile-lint " + Profile), 0);
}

TEST(Cli, RunAllTasksFailedExitsOne) {
  std::string Script = writeScript("bad.scm", "(this-is-unbound)\n");
  std::string Profile = tempPath("none.profile");
  EXPECT_EQ(pgmpi("run --jobs 2 --retries 0 --profile-out " + Profile + " " +
                  Script),
            1);
}

TEST(Cli, RunPartialFailureExitsTwoAndRetrySavesIt) {
  // The injector is one-shot process-wide, so under --jobs 2 exactly one
  // worker consumes the fault. With retries disabled that task is
  // abandoned: the merged profile covers the survivor — exit 2. With the
  // default retry policy the task re-runs on a fresh worker (the fault is
  // spent) and the run is whole — exit 0.
  std::string Script = writeScript("par.scm", Workload);
  std::string Profile = tempPath("partial.profile");
  EXPECT_EQ(pgmpi("run --jobs 2 --retries 0 --inject-fault compile "
                  "--profile-out " +
                  Profile + " " + Script),
            2);
  EXPECT_EQ(pgmpi("report " + Profile), 0) << "survivor profile is usable";
  EXPECT_EQ(pgmpi("run --jobs 2 --inject-fault compile --profile-out " +
                  Profile + " " + Script),
            0);
}

TEST(Cli, RunGuardFlagsGovernWorkers) {
  std::string Script = writeScript("spin.scm",
                                   "(define (sp n) (sp (+ n 1)))\n(sp 0)\n");
  std::string Profile = tempPath("guard.profile");
  // Every worker trips the fuel guard -> all tasks failed -> exit 1.
  EXPECT_EQ(pgmpi("run --jobs 2 --retries 0 --fuel 1000 --profile-out " +
                  Profile + " " + Script),
            1);
}

TEST(Cli, RunStatsTableSumsEveryWorker) {
  // Every worker evaluates the whole script, so per-worker counters
  // double under --jobs 2: the table must be the pool's sum, not one
  // worker's.
  std::string Script = writeScript("stats.scm", Workload);
  std::string Profile = tempPath("stats.profile");
  int Exit1 = -1, Exit2 = -1;
  std::string One = pgmpiOutput(
      "run --jobs 1 --stats --profile-out " + Profile + " " + Script, Exit1);
  std::string Two = pgmpiOutput(
      "run --jobs 2 --stats --profile-out " + Profile + " " + Script, Exit2);
  ASSERT_EQ(Exit1, 0) << One;
  ASSERT_EQ(Exit2, 0) << Two;
  for (const char *Row :
       {"compiled-units", "compiled-nodes", "instrumented-nodes"}) {
    int64_t Single = statsRow(One, Row);
    ASSERT_GT(Single, 0) << Row << "\n" << One;
    EXPECT_EQ(statsRow(Two, Row), 2 * Single) << Row << "\n" << Two;
  }
}

/// The skew-flip workload and trace of the tier-1 serve gate, shortened.
std::string skewFlipArgs(const std::string &Extra) {
  std::string Work = writeScript(
      "skew.scm", "(define (work-a n) (if (= n 0) 0 (+ 1 (work-a (- n 1)))))\n"
                  "(define (work-b n) (if (= n 0) 0 (+ 2 (work-b (- n 1)))))\n"
                  "(define (req-a) (work-a 300))\n"
                  "(define (req-b) (work-b 300))\n");
  std::string Trace;
  for (int I = 0; I < 60; ++I)
    Trace += "(req-a)\n";
  for (int I = 0; I < 60; ++I)
    Trace += "(req-b)\n";
  std::string TracePath = writeScript("skew.txt", Trace);
  return "serve --replay " + TracePath + " --interval-charges 256 " + Extra +
         " " + Work;
}

TEST(Cli, ServeStatsTableAgreesWithSummary) {
  int Exit = -1;
  std::string Out = pgmpiOutput(skewFlipArgs("--jobs 2 --stats"), Exit);
  ASSERT_EQ(Exit, 0) << Out;
  unsigned long long Publishes = 0, Promotions = 0, Demotions = 0;
  size_t At = Out.find("pgmpi: serve: ");
  ASSERT_NE(At, std::string::npos) << Out;
  ASSERT_EQ(std::sscanf(Out.c_str() + At,
                        "pgmpi: serve: %*u request(s), %*u failed, %llu "
                        "publish(es), %*u epoch(s), %llu promotion(s), %llu "
                        "demotion(s)",
                        &Publishes, &Promotions, &Demotions),
            3)
      << Out;
  EXPECT_GT(Publishes, 0u) << Out;
  EXPECT_EQ(statsRow(Out, "bus-publishes"), static_cast<int64_t>(Publishes))
      << Out;
  EXPECT_EQ(std::max<int64_t>(statsRow(Out, "retier-promotions"), 0),
            static_cast<int64_t>(Promotions))
      << Out;
  EXPECT_EQ(std::max<int64_t>(statsRow(Out, "retier-demotions"), 0),
            static_cast<int64_t>(Demotions))
      << Out;
}

const char *MinFixnumDivByMinusOne =
    "(quotient (- 0 9223372036854775807 1) -1)";

TEST(Cli, FixnumDivisionOverflowIsAnErrorNotACrash) {
  // INT64_MIN / -1 traps in hardware (SIGFPE); it must surface as an
  // ordinary evaluation error in either tier.
  for (const char *Tier : {"off", "always"}) {
    std::string Args = std::string("--tier ") + Tier + " -e '(display " +
                       MinFixnumDivByMinusOne + ")'";
    int Exit = -1;
    std::string Out = pgmpiOutput(Args, Exit);
    EXPECT_EQ(Exit, 1) << Tier << "\n" << Out;
    EXPECT_NE(Out.find("fixnum overflow"), std::string::npos) << Out;
    Out = pgmpiOutput(std::string("--tier ") + Tier +
                          " -e '(define m (- 0 9223372036854775807 1)) "
                          "(display (list (remainder m -1) (modulo m -1)))'",
                      Exit);
    EXPECT_EQ(Exit, 0) << Tier << "\n" << Out;
    EXPECT_EQ(Out, "(0 0)") << Tier;
  }
}

TEST(Cli, ServeContainsFixnumOverflowToOneRequest) {
  std::string Work = writeScript("ok.scm", "(define (ok) 'ok)\n");
  std::string Trace = writeScript(
      "overflow.txt",
      std::string("(ok)\n") + MinFixnumDivByMinusOne + "\n(ok)\n");
  int Exit = -1;
  std::string Out =
      pgmpiOutput("serve --jobs 1 --replay " + Trace + " " + Work, Exit);
  EXPECT_EQ(Exit, 2) << "degraded: served, one request failed\n" << Out;
  EXPECT_NE(Out.find("3 request(s), 1 failed"), std::string::npos) << Out;
}

TEST(Cli, AbsOfMinFixnumIsAnErrorNotUndefinedBehaviour) {
  for (const char *Tier : {"off", "always"}) {
    int Exit = -1;
    std::string Out = pgmpiOutput(
        std::string("--tier ") + Tier +
            " -e '(display (abs (- 0 9223372036854775807 1)))'",
        Exit);
    EXPECT_EQ(Exit, 1) << Tier << "\n" << Out;
    EXPECT_NE(Out.find("abs: fixnum overflow"), std::string::npos) << Out;
  }
}

} // namespace
