//===- tests/nlp/ParserDeterminismTest.cpp --------------------------------===//
//
// The parser's output is a pure function of its input: ranked top-10
// sketches and their exact scores match a committed golden file, and
// parses running concurrently on several threads (as they do on the
// engine's workers) produce exactly what one thread produces.
//
//===----------------------------------------------------------------------===//

#include "data/DeepRegexSet.h"
#include "data/StackOverflowSet.h"
#include "nlp/SemanticParser.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace regel;
using namespace regel::nlp;

namespace {

/// One line per ranked sketch: "rank score sketch", the score printed
/// with %.17g so any change in the last bit shows.
std::string renderTop10(const SemanticParser &P, const std::string &Desc) {
  std::string Out;
  std::vector<ScoredSketch> Got = P.parse(Desc, 10);
  for (size_t R = 0; R < Got.size(); ++R) {
    char Score[32];
    std::snprintf(Score, sizeof(Score), "%.17g", Got[R].Score);
    Out += std::to_string(R) + " " + Score + " " +
           printSketch(Got[R].Sketch) + "\n";
  }
  return Out;
}

} // namespace

TEST(ParserGolden, UntrainedTop10MatchesCommittedGolden) {
  // The file lists each description ("desc <text>") followed by its
  // expected rendering; '#' lines are comments.
  std::ifstream In(std::string(REGEL_SOURCE_DIR) +
                   "/tests/nlp/data/untrained_top10.golden");
  ASSERT_TRUE(In.good());
  SemanticParser P;
  std::vector<std::string> Descs, Expected;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    if (Line.rfind("desc ", 0) == 0) {
      Descs.push_back(Line.substr(5));
      Expected.emplace_back();
      continue;
    }
    ASSERT_FALSE(Expected.empty()) << "parse line before any desc: " << Line;
    Expected.back() += Line + "\n";
  }
  ASSERT_EQ(Descs.size(), 20u);
  for (size_t I = 0; I < Descs.size(); ++I)
    EXPECT_EQ(renderTop10(P, Descs[I]), Expected[I]) << Descs[I];
}

TEST(ParserConcurrency, FourThreadsParseLikeOneThread) {
  std::vector<std::string> Descs;
  for (const data::Benchmark &B : data::stackOverflowSet())
    Descs.push_back(B.Description);
  std::vector<data::Benchmark> DR = data::deepRegexSet();
  for (size_t I = 0; I < 150 && I < DR.size(); ++I)
    Descs.push_back(DR[I].Description);

  const SemanticParser P;
  std::vector<std::string> Serial;
  Serial.reserve(Descs.size());
  for (const std::string &D : Descs)
    Serial.push_back(renderTop10(P, D));

  // Four threads share the parser and claim descriptions from one
  // counter, so long and short parses overlap in every combination.
  std::vector<std::string> Parallel(Descs.size());
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&] {
      for (size_t I = Next++; I < Descs.size(); I = Next++)
        Parallel[I] = renderTop10(P, Descs[I]);
    });
  for (std::thread &T : Threads)
    T.join();

  for (size_t I = 0; I < Descs.size(); ++I)
    EXPECT_EQ(Parallel[I], Serial[I]) << Descs[I];
}
