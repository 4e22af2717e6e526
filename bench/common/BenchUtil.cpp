//===- bench/common/BenchUtil.cpp -----------------------------------------===//

#include "BenchUtil.h"

#include "automata/Compile.h"
#include "data/DeepRegexParser.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>

using namespace regel;
using namespace regel::bench;

int64_t regel::bench::envInt(const char *Name, int64_t Default) {
  const char *V = std::getenv(Name);
  if (!V || !*V)
    return Default;
  return std::atoll(V);
}

std::vector<data::Benchmark>
regel::bench::limited(std::vector<data::Benchmark> Set,
                      unsigned DefaultLimit) {
  int64_t Limit = envInt("REGEL_BENCH_LIMIT", DefaultLimit);
  if (Limit > 0 && Set.size() > static_cast<size_t>(Limit))
    Set.resize(static_cast<size_t>(Limit));
  return Set;
}

std::shared_ptr<nlp::SemanticParser>
regel::bench::trainedParserForDeepRegex() {
  auto Parser = std::make_shared<nlp::SemanticParser>();
  data::trainDeepRegexParser(*Parser);
  return Parser;
}

std::shared_ptr<nlp::SemanticParser> regel::bench::trainedTranslationParser(
    const std::vector<data::Benchmark> &TrainSet) {
  auto Parser = std::make_shared<nlp::SemanticParser>();
  std::vector<nlp::TrainExample> Train;
  for (const data::Benchmark &B : TrainSet)
    Train.push_back({B.Description, Sketch::concrete(B.GroundTruth)});
  nlp::TrainConfig Cfg;
  Cfg.Epochs = 3;
  nlp::trainParser(*Parser, Train, Cfg);
  return Parser;
}

std::vector<std::shared_ptr<nlp::SemanticParser>>
regel::bench::crossValidatedParsers(const std::vector<data::Benchmark> &Set,
                                    unsigned NumFolds) {
  std::vector<std::shared_ptr<nlp::SemanticParser>> Parsers;
  for (unsigned Fold = 0; Fold < NumFolds; ++Fold) {
    auto Parser = std::make_shared<nlp::SemanticParser>();
    std::vector<nlp::TrainExample> Train;
    for (size_t I = 0; I < Set.size(); ++I)
      if (I % NumFolds != Fold)
        Train.push_back({Set[I].Description, Set[I].GoldSketch});
    nlp::TrainConfig Cfg;
    Cfg.Epochs = 3;
    nlp::trainParser(*Parser, Train, Cfg);
    Parsers.push_back(std::move(Parser));
  }
  return Parsers;
}

bool regel::bench::foundIntended(const std::vector<RegexPtr> &Answers,
                                 const RegexPtr &GroundTruth) {
  for (const RegexPtr &A : Answers)
    if (regexEquivalent(A, GroundTruth))
      return true;
  return false;
}

IterOutcome regel::bench::runIterativeProtocol(
    Tool T, const data::Benchmark &B,
    const std::shared_ptr<nlp::SemanticParser> &P, const ProtocolConfig &Cfg) {
  IterOutcome Out;
  // One driver (and thus one engine + warm caches) for the whole
  // protocol run, not one per iteration: Regel instances now own worker
  // pools, so constructing them in the loop would churn threads and
  // discard the cross-run caches every iteration.
  std::unique_ptr<Regel> ToolImpl;
  if (T == Tool::Regel) {
    RegelConfig RC;
    RC.BudgetMs = Cfg.BudgetMs;
    RC.TopK = Cfg.TopK;
    RC.NumSketches = Cfg.NumSketches;
    ToolImpl = std::make_unique<Regel>(P, RC);
  }
  for (unsigned Iter = 0; Iter <= Cfg.MaxIterations; ++Iter) {
    Examples E = B.examplesAt(Iter);
    Stopwatch Watch;
    std::vector<RegexPtr> Answers;
    switch (T) {
    case Tool::Regel: {
      RegelResult R = ToolImpl->synthesize(B.Description, E);
      for (const RegelAnswer &A : R.Answers)
        Answers.push_back(A.Regex);
      break;
    }
    case Tool::RegelPbe: {
      SynthConfig SC;
      SC.BudgetMs = Cfg.BudgetMs;
      SC.TopK = Cfg.TopK;
      SynthResult R = regelPbe(E, SC);
      Answers = R.Solutions;
      break;
    }
    case Tool::DeepRegexStyle: {
      // NL-only: examples never change the answer, so iterations are flat.
      RegexPtr R = nlOnlyRegex(*P, B.Description);
      if (R)
        Answers.push_back(R);
      break;
    }
    }
    double Ms = Watch.elapsedMs();
    if (foundIntended(Answers, B.GroundTruth)) {
      Out.SolvedAtIteration = static_cast<int>(Iter);
      Out.TimeMsAtSolve = Ms;
      return Out;
    }
    if (T == Tool::DeepRegexStyle)
      break; // flat line: more examples cannot help an NL-only tool
  }
  return Out;
}

std::vector<unsigned> regel::bench::solvedPerIteration(
    const std::vector<IterOutcome> &Outcomes, unsigned MaxIterations) {
  std::vector<unsigned> Out(MaxIterations + 1, 0);
  for (const IterOutcome &O : Outcomes) {
    if (O.SolvedAtIteration < 0)
      continue;
    for (unsigned I = static_cast<unsigned>(O.SolvedAtIteration);
         I <= MaxIterations; ++I)
      ++Out[I];
  }
  return Out;
}

std::vector<double> regel::bench::avgTimePerIteration(
    const std::vector<IterOutcome> &Outcomes, unsigned MaxIterations,
    double CensorMs) {
  std::vector<double> Out(MaxIterations + 1, 0);
  for (unsigned I = 0; I <= MaxIterations; ++I) {
    double Sum = 0;
    unsigned N = 0;
    for (const IterOutcome &O : Outcomes) {
      bool Solved = O.SolvedAtIteration >= 0 &&
                    static_cast<unsigned>(O.SolvedAtIteration) <= I;
      if (Solved) {
        Sum += O.TimeMsAtSolve;
        ++N;
      } else if (CensorMs > 0) {
        Sum += CensorMs;
        ++N;
      }
    }
    Out[I] = N ? Sum / N : 0;
  }
  return Out;
}

void regel::bench::printIterationTable(
    const std::string &Title, const std::vector<std::string> &SeriesNames,
    const std::vector<std::vector<double>> &Series, unsigned MaxIterations) {
  std::printf("%s\n", Title.c_str());
  std::printf("%-12s", "iteration");
  for (const std::string &Name : SeriesNames)
    std::printf("%16s", Name.c_str());
  std::printf("\n");
  for (unsigned I = 0; I <= MaxIterations; ++I) {
    std::printf("%-12u", I);
    for (const std::vector<double> &S : Series)
      std::printf("%16.1f", S[I]);
    std::printf("\n");
  }
  std::printf("\n");
}
