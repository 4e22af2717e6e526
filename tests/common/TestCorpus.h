//===- tests/common/TestCorpus.h - Shared fixtures ----------------*- C++ -*-//
//
// A corpus of DSL regexes and probe strings shared by the differential
// property tests (direct matcher vs automaton pipeline), and synthesis
// tasks built from it for the determinism suites that compare answers
// across engines and front-ends.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_TESTS_COMMON_TESTCORPUS_H
#define REGEL_TESTS_COMMON_TESTCORPUS_H

#include "automata/Compile.h"
#include "automata/Sample.h"
#include "engine/Job.h"
#include "regex/Parser.h"
#include "support/Random.h"

#include <vector>

namespace regel::tests {

/// DSL regexes exercising every operator and common nestings.
inline const std::vector<const char *> &regexCorpus() {
  static const std::vector<const char *> Corpus = {
      "<num>",
      "<a>",
      "eps",
      "empty",
      "<any>",
      "Concat(<a>,<b>)",
      "Concat(<num>,<num>)",
      "Or(<num>,<let>)",
      "And(<num>,<hex>)",
      "And(<let>,<vow>)",
      "Not(<num>)",
      "Not(Contains(<space>))",
      "Optional(<a>)",
      "KleeneStar(<num>)",
      "KleeneStar(Concat(<a>,<b>))",
      "StartsWith(<cap>)",
      "EndsWith(<num>)",
      "Contains(Concat(<a>,<b>))",
      "Repeat(<num>,3)",
      "Repeat(Concat(<a>,<b>),2)",
      "RepeatAtLeast(<num>,2)",
      "RepeatAtLeast(Concat(<let>,<num>),1)",
      "RepeatRange(<num>,2,4)",
      "RepeatRange(Or(<a>,<b>),1,3)",
      "Concat(Optional(<->),RepeatAtLeast(<num>,1))",
      "Concat(RepeatRange(<num>,1,5),Optional(Concat(<.>,RepeatRange(<num>,1,"
      "2))))",
      "And(StartsWith(<let>),EndsWith(<num>))",
      "Or(Concat(Repeat(<let>,2),Repeat(<num>,2)),Repeat(<num>,4))",
      "Not(StartsWith(<0>))",
      "Concat(RepeatAtLeast(<num>,1),KleeneStar(Concat(<,>,RepeatAtLeast(<num>"
      ",1))))",
      "Optional(KleeneStar(<a>))",
      "Contains(Repeat(<space>,2))",
      "Concat(eps,<a>)",
      "Or(eps,<a>)",
      "And(<a>,empty)",
  };
  return Corpus;
}

/// Probe strings covering boundaries: empty, single chars, digits, words,
/// mixed and punctuation-heavy inputs.
inline const std::vector<const char *> &probeStrings() {
  static const std::vector<const char *> Probes = {
      "",       "a",      "b",     "ab",      "ba",     "abab",
      "0",      "9",      "12",    "123",     "1234",   "12345",
      "A",      "Az9",    "xyz",   "Hello",   "hello9", "9hello",
      "a1b2",   "  ",     " ",     "a b",     "1,22",   "1,2,3",
      "3.14",   "-3.14",  ".5",    "12.",     "A.B.",   "aeiou",
      "0x1F",   "ffff",   "....",  "--",      "_id_9",  "C",
  };
  return Probes;
}

/// A corpus-derived synthesis task: examples sampled from the ground
/// truth, sketches that admit it.
struct CorpusTask {
  Examples E;
  std::vector<SketchPtr> Sketches;
};

/// Builds deterministic tasks from the shared test corpus: positives are
/// sampled from the regex's DFA, negatives are probe strings it rejects.
/// Regexes without enough examples (e.g. the empty language) are skipped.
inline std::vector<CorpusTask> corpusTasks(size_t MaxTasks) {
  std::vector<CorpusTask> Tasks;
  Rng R(0xc0ffee);
  for (const char *Text : regexCorpus()) {
    if (Tasks.size() >= MaxTasks)
      break;
    RegexPtr G = parseRegex(Text);
    if (!G)
      continue;
    Dfa D = compileRegex(G);
    CorpusTask T;
    T.E.Pos = sampleAcceptedSet(D, R, 3, 8);
    if (T.E.Pos.size() < 2)
      continue;
    for (const char *Probe : probeStrings()) {
      if (T.E.Neg.size() >= 4)
        break;
      if (!D.matches(Probe))
        T.E.Neg.push_back(Probe);
    }
    if (T.E.Neg.size() < 2)
      continue;
    T.Sketches = {Sketch::hole({Sketch::concrete(G)}),
                  Sketch::unconstrained()};
    Tasks.push_back(std::move(T));
  }
  return Tasks;
}

/// A deterministic job: no wall-clock budgets anywhere (the pop cap bounds
/// the search instead), so the per-sketch runs are scheduling-independent.
inline engine::JobRequest deterministicRequest(const CorpusTask &T) {
  engine::JobRequest R;
  R.Sketches = T.Sketches;
  R.E = T.E;
  R.TopK = 2;
  R.BudgetMs = 0;
  R.Synth.MaxPops = 3000;
  R.Deterministic = true;
  return R;
}

} // namespace regel::tests

#endif // REGEL_TESTS_COMMON_TESTCORPUS_H
