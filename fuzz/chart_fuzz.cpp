//===- fuzz/chart_fuzz.cpp - Chart early-rejection differential harness ---===//
//
// Part of the Regel reproduction. Differential fuzzing of the chart
// parser's early rejection against the frozen plain chart
// (tests/nlp/ReferenceChart.h): both parse the same tokens under the same
// weights, and the harness traps unless the root lists agree in order,
// category, semantics, features and score bits.
//
// Input layout: byte 0 picks the weights (0: the untrained priors; odd:
// seeded random weights on a 0.25 grid, where exact ties abound; even:
// seeded random weights), which both charts see rounded to the 2^-32 grid
// parseChart scores on; byte 1 the beam (1 + byte % 14); and each later
// byte one token: a word of the StackOverflow descriptions that belongs to
// a lexicon phrase there, a number (the next byte gives its
// value) or a one-character quoted literal (the next byte gives it). At
// most 14 tokens keep each parse cheap under sanitizers.
//
// Build modes: see fuzz/protocol_fuzz.cpp.
//
//===----------------------------------------------------------------------===//

#include "ReferenceChart.h"

#include "data/StackOverflowSet.h"
#include "nlp/SemanticParser.h"
#include "support/Hash.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>

using namespace regel;
using namespace regel::nlp;

namespace {

constexpr size_t MaxTokens = 14;

/// The words of the StackOverflow descriptions that begin a lexicon
/// phrase of up to two words there, so that most picks can parse.
const std::vector<Token> &vocabulary(const Grammar &G) {
  static const std::vector<Token> Words = [&G] {
    std::set<std::string> Seen;
    std::vector<Token> Out;
    for (const data::Benchmark &B : data::stackOverflowSet()) {
      std::vector<Token> Ts = tokenize(B.Description);
      for (size_t I = 0; I < Ts.size(); ++I) {
        if (Ts[I].Kind != TokenKind::Word)
          continue;
        bool Lexical = G.lookup(Ts[I].Lemma) != nullptr;
        if (I + 1 < Ts.size())
          Lexical |= G.lookup(Ts[I].Lemma + " " + Ts[I + 1].Lemma) != nullptr;
        if (I > 0)
          Lexical |= G.lookup(Ts[I - 1].Lemma + " " + Ts[I].Lemma) != nullptr;
        if (Lexical && Seen.insert(Ts[I].Lemma).second)
          Out.push_back(Ts[I]);
      }
    }
    return Out;
  }();
  return Words;
}

bool sameRoots(const std::vector<Derivation> &A,
               const std::vector<Derivation> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Category != B[I].Category || !(A[I].Val == B[I].Val) ||
        A[I].Features != B[I].Features ||
        std::memcmp(&A[I].Score, &B[I].Score, sizeof(double)) != 0)
      return false;
  return true;
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  if (Size < 3)
    return 0;
  static const SemanticParser Parser;
  std::vector<double> Weights = Parser.weights();
  if (Data[0] != 0) {
    uint64_t State = Data[0];
    for (double &W : Weights) {
      State = mix64(State);
      W = static_cast<double>(State >> 11) * 0x1.0p-53 * 2 - 1;
      if (Data[0] % 2)
        W = std::round(W * 4) / 4;
    }
  }
  for (double &W : Weights)
    W = gridWeight(W);
  ParserConfig Cfg;
  Cfg.BeamPerCat = 1 + Data[1] % 14;

  const std::vector<Token> &Words = vocabulary(Parser.grammar());
  std::vector<Token> Tokens;
  for (size_t I = 2; I < Size && Tokens.size() < MaxTokens; ++I) {
    const size_t Pick = Data[I] % (Words.size() + 2);
    if (Pick < Words.size()) {
      Tokens.push_back(Words[Pick]);
      continue;
    }
    const uint8_t Arg = I + 1 < Size ? Data[++I] : 0;
    Token T;
    if (Pick == Words.size()) {
      T.Kind = TokenKind::Number;
      T.Value = Arg % 40;
      T.Text = T.Lemma = std::to_string(T.Value);
    } else {
      T.Kind = TokenKind::Quoted;
      T.Literal = std::string(1, static_cast<char>(' ' + Arg % 95));
      T.Text = T.Lemma = "'" + T.Literal + "'";
    }
    Tokens.push_back(std::move(T));
  }

  std::vector<Derivation> Want =
      reference::parseChart(Parser.grammar(), Parser.featureSpace(), Tokens,
                            Weights, Cfg);
  std::vector<Derivation> Got = parseChart(
      Parser.grammar(), Parser.featureSpace(), Tokens, Weights, Cfg);
  if (!sameRoots(Want, Got))
    __builtin_trap();
  return 0;
}

#ifndef REGEL_FUZZ_LIBFUZZER
#include "fuzz_driver_main.inc"
#endif
