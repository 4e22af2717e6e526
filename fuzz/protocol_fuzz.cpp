//===- fuzz/protocol_fuzz.cpp - Wire-codec fuzz harness -------------------===//
//
// Part of the Regel reproduction. Fuzzes the v1/v2 protocol codec
// (service/Protocol.h) — the exact bytes an untrusted client can put on
// the wire. The decoders' contract is: any input, any length, no crash,
// no UB; errors are ErrorCode values, never exceptions. This harness
// checks one more invariant beyond "does not crash": a frame that
// decodes cleanly must re-encode and re-decode to the same kind (the
// codec's round-trip floor).
//
// Two build modes (fuzz/CMakeLists.txt):
//   * libFuzzer (Clang, -fsanitize=fuzzer): LLVMFuzzerTestOneInput only.
//   * standalone (any compiler): a main() that replays each file named
//     on the command line through the same entry point — the mode CI's
//     ASan/UBSan lane and local g++ builds use to run the seed corpus
//     and any checked-in crash regressions.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace protocol = regel::protocol;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  const std::string Line(reinterpret_cast<const char *>(Data), Size);

  // Request path: decodeRequest auto-detects v1 vs "v2 "-prefixed frames.
  protocol::Request Req;
  const bool IsV2 = Line.rfind("v2 ", 0) == 0;
  if (protocol::decodeRequest(Line, Req) == protocol::ErrorCode::None &&
      IsV2) {
    // Round-trip floor, v2 only: a clean v2 decode re-encodes to a frame
    // that decodes cleanly to the same kind. (v1 is out of scope here:
    // its stateful commands — desc/pos/solve — have no one-shot v2
    // equivalent, e.g. `solve` carries no id and id=0 is invalid v2.)
    const std::string Re =
        protocol::encodeRequest(Req, protocol::Version::V2);
    protocol::Request Again;
    if (protocol::decodeRequest(Re, Again) != protocol::ErrorCode::None ||
        Again.K != Req.K)
      __builtin_trap();
  }

  // Response path, both versions (the half machine clients parse).
  protocol::Response Resp;
  (void)protocol::decodeResponse(Line, protocol::Version::V1, Resp);
  (void)protocol::decodeResponse(Line, protocol::Version::V2, Resp);
  return 0;
}

#ifndef REGEL_FUZZ_LIBFUZZER
#include "fuzz_driver_main.inc"
#endif
