//===- perfbench/src/Workloads.cpp ----------------------------------------===//

#include "Workloads.h"

#include "support/Rng.h"

#include <algorithm>
#include <map>
#include <numeric>

using namespace perfbench;
using pgmp::Rng;

static uint64_t streamSeed(uint64_t Seed, size_t Worker) {
  return Seed * 0x100000001b3ull + Worker * 0x9e3779b97f4a7c15ull + 1;
}

static Expected exactly(int64_t V) {
  Expected E;
  E.Int = V;
  return E;
}

//===----------------------------------------------------------------------===//
// serve-mix
//===----------------------------------------------------------------------===//

// The Fig. 5 parser dispatches through the profile-guided `case`; the
// Figs. 9-12 classes dispatch through `method`. Requests return integers
// (or a flonum area sum) so the C++ model can check them.
static const char *MixProgram = R"scm(
(define ws 0) (define dg 0) (define sp 0) (define ep 0) (define ot 0)
(define (parse c)
  (case c
    [(#\space #\tab) (set! ws (+ ws 1))]
    [(#\0 #\1 #\2 #\3 #\4 #\5 #\6 #\7 #\8 #\9) (set! dg (+ dg 1))]
    [(#\() (set! sp (+ sp 1))]
    [(#\)) (set! ep (+ ep 1))]
    [else (set! ot (+ ot 1))]))
(define (parse-req s)
  (set! ws 0) (set! dg 0) (set! sp 0) (set! ep 0) (set! ot 0)
  (for-each parse (string->list s))
  (+ ws (* 7 dg) (* 31 sp) (* 127 ep) (* 509 ot)))
(class Square ((length 0))
  (define-method (area this) (sqr (field this length))))
(class Circle ((radius 0))
  (define-method (area this)
    (* 3.141592653589793 (sqr (field this radius)))))
(define (make-shape tag size)
  (if (eq? tag 'c)
      (new-instance 'Circle (cons 'radius size))
      (new-instance 'Square (cons 'length size))))
(define (area-req spec)
  (let loop ([s spec] [acc 0])
    (if (null? s)
        acc
        (loop (cddr s)
              (+ acc (method (make-shape (car s) (cadr s)) area))))))
(define (loop-req n m)
  (let outer ([i 0] [acc 0])
    (if (= i n)
        acc
        (outer (+ i 1)
               (let inner ([j 0] [acc acc])
                 (if (= j m)
                     acc
                     (inner (+ j 1) (+ acc (modulo (* i j) 7)))))))))
)scm";

namespace {

class MixStream final : public RequestStream {
public:
  MixStream(uint64_t Seed, size_t Worker) : R(streamSeed(Seed, Worker)) {}

  void next(Request &Out) override {
    bool CircleHot = (N++ / FlipEvery) % 2 == 0;
    uint64_t Kind = R.below(100);
    if (Kind < 40)
      parse(Out);
    else if (Kind < 75)
      area(Out, CircleHot);
    else
      loop(Out);
  }

private:
  // Character classes in the Fig. 8 proportions (55 whitespace, 23 + 23
  // parens, 7 digits per 111), plus letters that fall to `else`.
  void parse(Request &Out) {
    size_t Len = 160 + R.below(320);
    int64_t Ws = 0, Dg = 0, Sp = 0, Ep = 0, Ot = 0;
    Out.Text = "(parse-req \"";
    for (size_t I = 0; I < Len; ++I) {
      uint64_t Roll = R.below(111);
      if (Roll < 55) {
        Out.Text += ' ';
        ++Ws;
      } else if (Roll < 78) {
        Out.Text += '(';
        ++Sp;
      } else if (Roll < 101) {
        Out.Text += ')';
        ++Ep;
      } else if (Roll < 108) {
        Out.Text += static_cast<char>('0' + R.below(10));
        ++Dg;
      } else {
        Out.Text += static_cast<char>('a' + R.below(26));
        ++Ot;
      }
    }
    Out.Text += "\")";
    Out.Want = exactly(Ws + 7 * Dg + 31 * Sp + 127 * Ep + 509 * Ot);
  }

  void area(Request &Out, bool CircleHot) {
    size_t K = 24 + R.below(49);
    double Acc = 0;
    Out.Text = "(area-req '(";
    for (size_t I = 0; I < K; ++I) {
      bool Circle = R.chance(CircleHot ? 0.9 : 0.1);
      int64_t Size = 1 + static_cast<int64_t>(R.below(9));
      Out.Text += Circle ? "c " : "s ";
      Out.Text += std::to_string(Size);
      Out.Text += ' ';
      Acc += Circle ? 3.141592653589793 * static_cast<double>(Size * Size)
                    : static_cast<double>(Size * Size);
    }
    Out.Text += "))";
    Out.Want.Real = true;
    Out.Want.Dbl = Acc;
  }

  void loop(Request &Out) {
    int64_t Nn = 16 + static_cast<int64_t>(R.below(33));
    int64_t M = 16 + static_cast<int64_t>(R.below(33));
    int64_t Sum = 0;
    for (int64_t I = 0; I < Nn; ++I)
      for (int64_t J = 0; J < M; ++J)
        Sum += (I * J) % 7;
    Out.Text = "(loop-req " + std::to_string(Nn) + " " + std::to_string(M) + ")";
    Out.Want = exactly(Sum);
  }

  Rng R;
  size_t N = 0;
};

struct ServeMix final : ServeWorkload {
  std::unique_ptr<RequestStream> stream(uint64_t Seed,
                                        size_t Worker) const override {
    return std::make_unique<MixStream>(Seed, Worker);
  }
};

} // namespace

std::unique_ptr<ServeWorkload> perfbench::makeServeMix() {
  auto W = std::make_unique<ServeMix>();
  W->Libraries = {"exclusive-cond", "pgmp-case", "object-system"};
  W->Program = MixProgram;
  return W;
}

//===----------------------------------------------------------------------===//
// serve-cache
//===----------------------------------------------------------------------===//

// cache-put! returns the length the key held before (-1 when absent), so
// every answer checks the model's view of the cache contents.
static const char *CacheProgram = R"scm(
(define cache (make-equal-hashtable))
(define (build-list n)
  (let loop ([i 0] [acc '()])
    (if (= i n) acc (loop (+ i 1) (cons i acc)))))
(define (cache-put! k n)
  (let ([old (hashtable-ref cache k #f)])
    (hashtable-set! cache k (build-list n))
    (if old (length old) -1)))
(define (cache-get k)
  (let ([v (hashtable-ref cache k #f)])
    (if v (length v) -1)))
(define (temp-req n)
  (let loop ([s (map (lambda (x) (* x x)) (build-list n))] [acc 0])
    (if (null? s) acc (loop (cdr s) (+ acc (car s))))))
)scm";

namespace {

class CacheStream final : public RequestStream {
public:
  CacheStream(uint64_t Seed, size_t Worker)
      : R(streamSeed(Seed, Worker) ^ 0xcacecacecaceull) {}

  void next(Request &Out) override {
    // The first CacheKeys requests fill the cache, one put per key.
    if (N < CacheKeys) {
      put(Out, N++);
      return;
    }
    ++N;
    // Gets are the majority, so the median request is a get rather than
    // the boundary between the cheap and the expensive kinds.
    uint64_t Kind = R.below(100);
    if (Kind < 60)
      get(Out, R.below(CacheKeys));
    else if (Kind < 85)
      put(Out, R.below(CacheKeys));
    else
      temp(Out);
  }

private:
  static std::string key(uint64_t K) { return "\"key-" + std::to_string(K) + "\""; }

  void put(Request &Out, uint64_t K) {
    int64_t Len = 16 + static_cast<int64_t>(R.below(64));
    auto It = Model.find(K);
    Out.Want = exactly(It == Model.end() ? -1 : It->second);
    Model[K] = Len;
    Out.Text = "(cache-put! " + key(K) + " " + std::to_string(Len) + ")";
  }

  void get(Request &Out, uint64_t K) {
    auto It = Model.find(K);
    Out.Want = exactly(It == Model.end() ? -1 : It->second);
    Out.Text = "(cache-get " + key(K) + ")";
  }

  void temp(Request &Out) {
    int64_t Len = 32 + static_cast<int64_t>(R.below(96));
    // Sum of i^2 for i in [0, Len).
    Out.Want = exactly((Len - 1) * Len * (2 * Len - 1) / 6);
    Out.Text = "(temp-req " + std::to_string(Len) + ")";
  }

  Rng R;
  size_t N = 0;
  std::map<uint64_t, int64_t> Model;
};

struct ServeCache final : ServeWorkload {
  std::unique_ptr<RequestStream> stream(uint64_t Seed,
                                        size_t Worker) const override {
    return std::make_unique<CacheStream>(Seed, Worker);
  }
};

} // namespace

std::unique_ptr<ServeWorkload> perfbench::makeServeCache() {
  auto W = std::make_unique<ServeCache>();
  W->Program = CacheProgram;
  W->PrefillRequests = CacheKeys;
  return W;
}

//===----------------------------------------------------------------------===//
// build-3pass
//===----------------------------------------------------------------------===//

namespace {

/// One generated dispatcher: which clause each character selects, what
/// each clause adds to hits-I, and which clause holds the method call.
struct Dispatcher {
  static constexpr int Else = 3;
  int ClauseOf[8];      ///< clause index per alphabet character
  int64_t Add[4];       ///< constant added per clause
  int MethodClause = 0; ///< this clause adds (method sh weight) instead
  int HotChar = 0;      ///< the character most calls pass
  double CircleShare = 0;
};

constexpr const char *Alphabet = "abcdefgh";
constexpr int64_t CircleWeight = 2 * 3; // (* 2 radius), radius 3
constexpr int64_t SquareWeight = 4 * 4; // (sqr length), length 4

} // namespace

BuildInput perfbench::makeBuildInput(uint64_t Seed) {
  // The seed draws the details (which characters share a clause, the
  // constants, each dispatcher's hot character); the cost-relevant mix is
  // the same for every seed: dispatcher I holds its method call in clause
  // I % 4, its hot character in clause (I / 4) % 4, and leans Circle or
  // Square by (I / 16) % 2.
  Rng R(Seed * 0xd1b54a32d192ed03ull + 7);
  std::vector<Dispatcher> Ds(BuildDispatchers);
  for (size_t I = 0; I < Ds.size(); ++I) {
    Dispatcher &D = Ds[I];
    int Perm[8];
    std::iota(Perm, Perm + 8, 0);
    for (int K = 7; K > 0; --K)
      std::swap(Perm[K], Perm[R.below(K + 1)]);
    // Three explicit clauses of 1-2 characters each; the rest go to else.
    int Pos = 0;
    std::fill(D.ClauseOf, D.ClauseOf + 8, Dispatcher::Else);
    for (int C = 0; C < 3; ++C)
      for (int N = 1 + static_cast<int>(R.below(2)); N > 0; --N)
        D.ClauseOf[Perm[Pos++]] = C;
    for (int64_t &A : D.Add)
      A = 1 + static_cast<int64_t>(R.below(9));
    D.MethodClause = static_cast<int>(I % 4);
    int HotClause = static_cast<int>((I / 4) % 4);
    std::vector<int> InClause;
    for (int K = 0; K < 8; ++K)
      if (D.ClauseOf[K] == HotClause)
        InClause.push_back(K);
    D.HotChar = InClause[R.below(InClause.size())];
    D.CircleShare = (I / 16) % 2 ? 0.85 : 0.15;
  }

  BuildInput In;
  In.Libraries = {"exclusive-cond", "pgmp-case", "object-system"};
  std::string &P = In.Program;
  P = "(class Square ((length 0))\n"
      "  (define-method (weight this) (sqr (field this length))))\n"
      "(class Circle ((radius 0))\n"
      "  (define-method (weight this) (* 2 (field this radius))))\n"
      "(define shapes (vector (new-instance 'Circle (cons 'radius 3))\n"
      "                       (new-instance 'Square (cons 'length 4))))\n"
      "(define alphabet \"abcdefgh\")\n";
  for (size_t I = 0; I < Ds.size(); ++I) {
    const Dispatcher &D = Ds[I];
    std::string H = "hits-" + std::to_string(I);
    P += "(define " + H + " 0)\n(define (disp-" + std::to_string(I) +
         " c sh)\n  (case c\n";
    for (int C = 0; C <= Dispatcher::Else; ++C) {
      std::string Head;
      if (C == Dispatcher::Else) {
        Head = "else";
      } else {
        Head = "(";
        for (int K = 0; K < 8; ++K)
          if (D.ClauseOf[K] == C) {
            if (Head.size() > 1)
              Head += ' ';
            Head += "#\\";
            Head += Alphabet[K];
          }
        Head += ')';
      }
      std::string Delta = C == D.MethodClause ? "(method sh weight)"
                                              : std::to_string(D.Add[C]);
      P += "    [" + Head + " (set! " + H + " (+ " + H + " " + Delta + "))]\n";
    }
    P += "    ))\n";
  }
  P += "(define dispatchers (vector";
  for (size_t I = 0; I < Ds.size(); ++I)
    P += " disp-" + std::to_string(I);
  P += "))\n(define (reset-hits!)";
  for (size_t I = 0; I < Ds.size(); ++I)
    P += " (set! hits-" + std::to_string(I) + " 0)";
  P += ")\n"
       "(define (run-calls v)\n"
       "  (let loop ([i 0])\n"
       "    (if (< i (vector-length v))\n"
       "        (let ([e (vector-ref v i)])\n"
       "          ((vector-ref dispatchers (quotient e 16))\n"
       "           (string-ref alphabet (quotient (remainder e 16) 2))\n"
       "           (vector-ref shapes (remainder e 2)))\n"
       "          (loop (+ i 1))))))\n";

  // Calls: every dispatcher equally often, in a shuffled order per round;
  // a character (its hot one 60% of the time) and a receiver (Circle with
  // the dispatcher's skew), packed as d*16 + c*2 + s.
  In.Hits.assign(Ds.size(), 0);
  In.Workload = "(define calls '#(";
  std::vector<size_t> Order(Ds.size());
  std::iota(Order.begin(), Order.end(), 0);
  for (size_t I = 0; I < BuildCalls; ++I) {
    if (I % Order.size() == 0)
      for (size_t K = Order.size() - 1; K > 0; --K)
        std::swap(Order[K], Order[R.below(K + 1)]);
    size_t Di = Order[I % Order.size()];
    const Dispatcher &D = Ds[Di];
    int Ch = R.chance(0.6) ? D.HotChar : static_cast<int>(R.below(8));
    int Shape = R.chance(D.CircleShare) ? 0 : 1;
    int Clause = D.ClauseOf[Ch];
    In.Hits[Di] += Clause == D.MethodClause
                       ? (Shape == 0 ? CircleWeight : SquareWeight)
                       : D.Add[Clause];
    if (I)
      In.Workload += ' ';
    In.Workload += std::to_string(Di * 16 + Ch * 2 + Shape);
  }
  In.Workload += "))\n";
  In.Rerun = "(reset-hits!) (run-calls calls)";
  In.Workload += In.Rerun + "\n";
  return In;
}
