//===- fuzz/matcher_fuzz.cpp - Direct-matcher differential harness -------===//
//
// Part of the Regel reproduction. Differential fuzzing of the bit-parallel
// DirectMatcher against the automaton pipeline. The bytes before the
// first '\n' are DSL regex text (parseRegex); the bytes after it are the
// string to match. The harness traps when matchesDirect and
// compileRegex(R).matches disagree.
//
// Bounds keep the oracle cheap: at most 256 bytes of regex text, at most
// 48 AST nodes with every repetition unrolled, at most 256 input bytes.
// Input bytes outside the printable alphabet are folded into it: the DFA
// has no transitions for them, while Fig. 6's Not and any* range over all
// strings, so the two pipelines differ there by design.
//
// Build modes: see fuzz/protocol_fuzz.cpp.
//
//===----------------------------------------------------------------------===//

#include "automata/Compile.h"
#include "regex/Matcher.h"
#include "regex/Parser.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

using namespace regel;

namespace {

constexpr uint64_t MaxUnrolled = 48;

/// AST size with every repetition unrolled to one copy more than its
/// largest count (RepeatAtLeast adds a starred copy), saturating just
/// above MaxUnrolled.
uint64_t unrolledSize(const Regex &R) {
  uint64_t Kids = 0;
  for (const RegexPtr &C : R.children())
    Kids += unrolledSize(*C);
  if (isRepeatFamily(R.getKind())) {
    int K = R.getKind() == RegexKind::RepeatRange ? R.getK2() : R.getK1();
    Kids *= static_cast<uint64_t>(std::max(K, 0)) + 1;
  }
  return std::min(1 + Kids, MaxUnrolled + 1);
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  const std::string Bytes(reinterpret_cast<const char *>(Data), Size);
  size_t Nl = Bytes.find('\n');
  if (Nl == std::string::npos || Nl > 256 || Size - Nl - 1 > 256)
    return 0;
  RegexPtr R = parseRegex(Bytes.substr(0, Nl));
  if (!R || unrolledSize(*R) > MaxUnrolled)
    return 0;
  std::string Input = Bytes.substr(Nl + 1);
  for (char &C : Input) {
    auto U = static_cast<unsigned char>(C);
    if (U < MinAlphabetChar || U > MaxAlphabetChar)
      C = static_cast<char>(MinAlphabetChar + U % AlphabetSize);
  }
  if (matchesDirect(R, Input) != compileRegex(R).matches(Input))
    __builtin_trap();
  return 0;
}

#ifndef REGEL_FUZZ_LIBFUZZER
#include "fuzz_driver_main.inc"
#endif
