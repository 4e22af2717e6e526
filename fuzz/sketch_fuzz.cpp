//===- fuzz/sketch_fuzz.cpp - Sketch-parser fuzz harness ------------------===//
//
// Part of the Regel reproduction. Fuzzes regel::parseSketch — sketch
// text arrives over the wire inside v2 submit frames, so the parser's
// contract is the codec's: any bytes, no crash, no UB, errors reported
// through the out-param. This harness found (and now regression-guards,
// via tests/sketch/SketchTest.cpp) the signed-overflow digit loop and
// the unbounded parseExpr recursion.
//
// Invariant beyond "does not crash": a sketch that parses must print
// (printSketch) and re-parse to an equal sketch — the round-trip a client
// sending v2 `sketch=` fields depends on.
//
// Build modes: see fuzz/protocol_fuzz.cpp.
//
//===----------------------------------------------------------------------===//

#include "sketch/Sketch.h"
#include "sketch/SketchParser.h"

#include <cstddef>
#include <cstdint>
#include <string>

using namespace regel;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  // Bound like the wire does: a sketch never arrives outside a frame.
  if (Size > (1u << 16))
    return 0;
  const std::string Text(reinterpret_cast<const char *>(Data), Size);
  std::string Err;
  SketchPtr S = parseSketch(Text, &Err);
  if (!S)
    return 0;
  const std::string Printed = printSketch(S);
  SketchPtr Again = parseSketch(Printed, &Err);
  if (!Again || !sketchEquals(S, Again))
    __builtin_trap();
  return 0;
}

#ifndef REGEL_FUZZ_LIBFUZZER
#include "fuzz_driver_main.inc"
#endif
