//===- fuzz/protocol_fuzz.cpp - Wire-codec fuzz harness -------------------===//
//
// Part of the Regel reproduction. Fuzzes the wire codec
// (service/Protocol.h) — the exact bytes an untrusted client can put on
// the wire, and the bytes a client reads back. The decoders' contract is:
// any input, any length, no crash, no UB; errors are ErrorCode values,
// never exceptions. Beyond "does not crash" this harness checks the
// codec's round-trip floor in both directions: a frame that decodes
// cleanly must re-encode and re-decode to the same kind (and, for
// responses, the same id and detail). And a rejected request must yield
// an error frame that a client's decoder accepts, so malformed input
// always ends in a verdict the client can read.
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
  const protocol::Version V2 = protocol::Version::V2;

  // Request path. Escaping can triple a value, so the floors below only
  // apply to re-encodings that still fit in one frame.
  protocol::Request Req;
  const protocol::ErrorCode Err = protocol::decodeRequest(Line, Req);
  if (Err == protocol::ErrorCode::None) {
    const std::string Re = protocol::encodeRequest(Req, V2);
    protocol::Request Again;
    if (Re.size() <= protocol::MaxFrameBytes &&
        (protocol::decodeRequest(Re, Again) != protocol::ErrorCode::None ||
         Again.K != Req.K))
      __builtin_trap();
  } else {
    // The error frame the server answers with must decode.
    protocol::Response E;
    E.K = protocol::Response::Kind::Error;
    E.Err = Err;
    E.Detail = Req.Text;
    E.Id = Req.Id;
    protocol::Response Back;
    if (protocol::decodeResponse(protocol::encodeResponse(E, V2), V2, Back) !=
            protocol::ErrorCode::None ||
        Back.Err != Err || Back.Detail != Req.Text || Back.Id != Req.Id)
      __builtin_trap();
  }

  // Response path (the half machine clients parse).
  protocol::Response Resp;
  if (protocol::decodeResponse(Line, V2, Resp) == protocol::ErrorCode::None) {
    const std::string Re = protocol::encodeResponse(Resp, V2);
    protocol::Response Again;
    if (Re.size() <= protocol::MaxFrameBytes &&
        (protocol::decodeResponse(Re, V2, Again) !=
             protocol::ErrorCode::None ||
         Again.K != Resp.K || Again.Id != Resp.Id ||
         Again.Detail != Resp.Detail))
      __builtin_trap();
  }
  return 0;
}

#ifndef REGEL_FUZZ_LIBFUZZER
#include "fuzz_driver_main.inc"
#endif
