//===- bench/micro_kernels.cpp - Kernel and design-choice benchmarks ------===//
//
// google-benchmark microbenchmarks for the substrate kernels and the
// design choices called out in DESIGN.md:
//   - regex -> DFA compilation and DFA vs direct matching (why candidate
//     checking uses the direct matcher),
//   - the DFA cache (hit vs miss path),
//   - feasibility-verdict memoization,
//   - the bounded SMT solver,
//   - chart parsing,
//   - synthesizer ablations (subsumption on/off, approximation on/off).
//
//===----------------------------------------------------------------------===//

#include "automata/Compile.h"
#include "nlp/SemanticParser.h"
#include "regex/Matcher.h"
#include "regex/Parser.h"
#include "sketch/SketchParser.h"
#include "smt/Solver.h"
#include "synth/Approximate.h"
#include "synth/Synthesizer.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace regel;

namespace {

const char *SmallPattern = "Concat(Repeat(<num>,3),Concat(<->,<num>))";
const char *BigPattern =
    "Concat(RepeatRange(<num>,1,15),Optional(Concat(<.>,RepeatRange(<num>,1,"
    "3))))";

void BM_CompileSmallRegex(benchmark::State &State) {
  RegexPtr R = parseRegex(SmallPattern);
  for (auto _ : State)
    benchmark::DoNotOptimize(compileRegex(R));
}
BENCHMARK(BM_CompileSmallRegex);

void BM_CompileBigRegex(benchmark::State &State) {
  RegexPtr R = parseRegex(BigPattern);
  for (auto _ : State)
    benchmark::DoNotOptimize(compileRegex(R));
}
BENCHMARK(BM_CompileBigRegex);

void BM_DfaMatch(benchmark::State &State) {
  Dfa D = compileRegex(parseRegex(BigPattern));
  for (auto _ : State)
    benchmark::DoNotOptimize(D.matches("123456789.123"));
}
BENCHMARK(BM_DfaMatch);

void BM_DirectMatch(benchmark::State &State) {
  DirectMatcher M(parseRegex(BigPattern));
  for (auto _ : State)
    benchmark::DoNotOptimize(M.matches("123456789.123"));
}
BENCHMARK(BM_DirectMatch);

/// The candidate-checking design choice: one-shot compile+match (what a
/// naive DFA-based checker pays per distinct candidate) vs a fresh direct
/// matcher.
void BM_CandidateCheck_DfaCompilePath(benchmark::State &State) {
  RegexPtr R = parseRegex(BigPattern);
  for (auto _ : State) {
    Dfa D = compileRegex(R);
    benchmark::DoNotOptimize(D.matches("123456789.123"));
  }
}
BENCHMARK(BM_CandidateCheck_DfaCompilePath);

void BM_CandidateCheck_DirectPath(benchmark::State &State) {
  RegexPtr R = parseRegex(BigPattern);
  for (auto _ : State) {
    DirectMatcher M(R);
    benchmark::DoNotOptimize(M.matches("123456789.123"));
  }
}
BENCHMARK(BM_CandidateCheck_DirectPath);

/// The same check on an input of 64+ chars, where each relation row spans
/// two words instead of one.
void BM_CandidateCheck_DirectPath_Long(benchmark::State &State) {
  RegexPtr R = parseRegex(BigPattern);
  const std::string Input = std::string(64, '1') + ".123";
  for (auto _ : State) {
    DirectMatcher M(R);
    benchmark::DoNotOptimize(M.matches(Input));
  }
}
BENCHMARK(BM_CandidateCheck_DirectPath_Long);

void BM_DfaCacheHit(benchmark::State &State) {
  DfaCache Cache;
  RegexPtr R = parseRegex(BigPattern);
  Cache.get(R);
  for (auto _ : State)
    benchmark::DoNotOptimize(Cache.matches(R, "123456789.123"));
}
BENCHMARK(BM_DfaCacheHit);

void BM_FeasibilityMemoHit(benchmark::State &State) {
  Examples E;
  E.Pos = {"123-4", "999-0"};
  E.Neg = {"1234", "12-34"};
  FeasibilityChecker Checker(E);
  PNodePtr Root = PNode::opNode(
      RegexKind::Repeat,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0)});
  PartialRegex P(Root, 1);
  Checker.infeasible(P); // warm the verdict memo
  for (auto _ : State)
    benchmark::DoNotOptimize(Checker.infeasible(P));
}
BENCHMARK(BM_FeasibilityMemoHit);

void BM_SmtSolveDecimalConstraint(benchmark::State &State) {
  using namespace regel::smt;
  for (auto _ : State) {
    Solver S;
    VarId K1 = S.declareVar(1, 20), K2 = S.declareVar(1, 20);
    S.addConstraint(Formula::le(
        Term::add(Term::var(K1), Term::var(K2)), Term::constant(7)));
    benchmark::DoNotOptimize(S.solve());
  }
}
BENCHMARK(BM_SmtSolveDecimalConstraint);

void BM_ChartParseSentence(benchmark::State &State) {
  static nlp::SemanticParser Parser;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        Parser.parse("a letter followed by 3 digits then a comma", 10));
}
BENCHMARK(BM_ChartParseSentence);

/// Synthesizer ablations on a fixed guided task.
void runSynth(benchmark::State &State, bool UseApprox, bool UseSubsumption) {
  SketchPtr S =
      parseSketch("Concat(hole{Repeat(<num>,3)},hole{<->,Repeat(<num>,4)})");
  Examples E;
  E.Pos = {"123-4567", "000-0000"};
  E.Neg = {"1234567", "12-34567", "123-456"};
  for (auto _ : State) {
    SynthConfig Cfg;
    Cfg.UseApprox = UseApprox;
    Cfg.UseSubsumption = UseSubsumption;
    Cfg.BudgetMs = 30000;
    Synthesizer Engine(Cfg);
    SynthResult R = Engine.run(S, E);
    if (!R.solved())
      State.SkipWithError("synthesis failed");
    benchmark::DoNotOptimize(R);
  }
}

void BM_Synth_Full(benchmark::State &State) { runSynth(State, true, true); }
BENCHMARK(BM_Synth_Full)->Unit(benchmark::kMillisecond);

void BM_Synth_NoSubsumption(benchmark::State &State) {
  runSynth(State, true, false);
}
BENCHMARK(BM_Synth_NoSubsumption)->Unit(benchmark::kMillisecond);

void BM_Synth_NoApprox(benchmark::State &State) {
  runSynth(State, false, true);
}
BENCHMARK(BM_Synth_NoApprox)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
