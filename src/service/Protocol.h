//===- service/Protocol.h - Versioned wire codec ----------------*- C++ -*-===//
//
// Part of the Regel reproduction. The one parser/printer for the synthesis
// wire protocol, extracted out of SocketServer so the server and its
// machine clients (the perfbench client, the protocol fuzzer) share a
// single codec instead of hand-rolled ones. Messages are '\n'-terminated
// lines in one of two versions:
//
//   * v1 — the original line protocol, preserved byte-for-byte: stateful
//     per-connection commands (`desc`, `pos`, `solve`, ...) and free-text
//     responses (`ok`, `queued <id>`, `done <id> <status> ...`). Anything
//     that does not start with "v2 " is a v1 frame.
//
//   * v2 — structured frames for machine clients: `v2 <type> key=value
//     ...` with percent-escaped values, a self-contained one-shot `submit`
//     (client-chosen id, explicit sketches or a description), `cancel`,
//     `stats`, and `health`.
//
// Decoding is defensive by contract: any input — truncated, oversized,
// binary garbage — yields an ErrorCode, never undefined behaviour. The
// error taxonomy is part of the protocol (v2 carries the code on the
// wire), so clients can tell "queue full" from "busy connection" from
// "malformed frame" programmatically.
//
// See docs/PROTOCOL.md for the full wire specification.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SERVICE_PROTOCOL_H
#define REGEL_SERVICE_PROTOCOL_H

#include "engine/Job.h"

#include <cstdint>
#include <string>
#include <vector>

namespace regel::protocol {

enum class Version { V1 = 1, V2 = 2 };

/// The protocol's error taxonomy. v1 renders these as its historical
/// free-text `error ...` lines (byte-compatible); v2 carries the code
/// explicitly (`v2 error code=<name> msg=...`).
enum class ErrorCode {
  None = 0,
  UnknownCommand,  ///< v1 command / v2 frame type not recognized
  UnknownPriority, ///< priority name not interactive|batch|background
  BadArgument,     ///< argument present but unparsable (number, sketch)
  NothingToSolve,  ///< submit/solve with no description, examples, sketch
  Busy,            ///< per-connection in-flight job cap reached
  ServerFull,      ///< connection limit reached
  LineTooLong,     ///< input line exceeded the connection's line cap
  Malformed,       ///< frame does not parse (truncated, bad escape, ...)
  Oversized,       ///< frame exceeds MaxFrameBytes
  DuplicateId,     ///< v2 submit id already in flight on this connection
  UnknownId,       ///< v2 cancel id not in flight on this connection
};

/// Stable lower-snake wire name of \p E ("unknown_command", ...).
const char *errorCodeName(ErrorCode E);

/// Parses a name produced by errorCodeName. False on unknown input.
bool parseErrorCode(const std::string &Name, ErrorCode &Out);

/// Hard cap on one frame, enforced by the decoders: anything longer is
/// rejected as Oversized before any parsing touches it. Matches the
/// server's default per-connection line cap.
inline constexpr size_t MaxFrameBytes = 1 << 16;

/// Upper bound on v2 millisecond arguments (budget/persketch/sla):
/// ~3 years. Beyond this a duration is a client bug, and unbounded
/// values would overflow the engine's microsecond deadline arithmetic
/// (budget * 1000 added to a clock instant) — the decoder rejects them
/// as BadArgument so the UB can never be reached from the wire.
inline constexpr int64_t MaxMsArg = 100LL * 1000 * 1000 * 1000;

/// The canonical verdict string of a finished job — the wire contract
/// shared by v1 `done` lines and v2 `status=`:
/// rejected | shed | solved | expired | deadline | nosolution.
const char *verdictName(const engine::JobResult &R);

/// Applies a verdict string to a result's outcome flags (the decode
/// inverse of verdictName; answers imply "solved" separately). False on
/// an unknown verdict.
bool applyVerdict(const std::string &Status, engine::JobResult &Out);

/// Percent-escapes \p S for use as a v2 value: '%', ' ', '=', control
/// bytes and non-ASCII become %XX, so a value never contains a space or
/// newline and tokenization is unambiguous.
std::string escapeValue(const std::string &S);

/// Inverse of escapeValue. False on a malformed escape.
bool unescapeValue(const std::string &S, std::string &Out);

/// One client -> server message, either version.
struct Request {
  enum class Kind {
    None,     ///< empty line (v1 no-op)
    Help,     ///< v1
    Desc,     ///< v1: Text
    Pos,      ///< v1: Text
    Neg,      ///< v1: Text
    TopK,     ///< v1: Int
    Budget,   ///< v1: Int (ms)
    Sla,      ///< v1: Int (ms)
    Priority, ///< v1: Pri
    Clear,    ///< v1
    Solve,    ///< v1 (query state accumulated on the connection)
    Stats,    ///< v1 and v2
    Quit,     ///< v1
    Submit,   ///< v2 one-shot: everything below
    Cancel,   ///< v2: Id
    Health,   ///< v2
    Metrics,  ///< v2: Prometheus-style metrics exposition fetch
    Trace,    ///< v2: Id = trace id (from a done frame's trace=)
  };

  Kind K = Kind::None;
  Version V = Version::V1;

  std::string Text; ///< v1 desc/pos/neg argument; v2 submit description
  int64_t Int = 0;  ///< v1 topk/budget/sla argument (raw, caller clamps)
  engine::Priority Pri = engine::Priority::Interactive;
  bool HasPri = false; ///< v2: priority explicitly present

  // v2 submit / cancel payload.
  uint64_t Id = 0; ///< client-chosen job id (per-connection namespace)
  std::vector<std::string> Pos, Neg;
  std::vector<std::string> Sketches; ///< printSketch forms (take precedence
                                     ///< over Text's NL description)
  unsigned TopK = 0;     ///< 0 = not set (server default applies)
  int64_t BudgetMs = -1; ///< -1 = not set (server default applies)
  int64_t PerSketchBudgetMs = 0;
  int64_t SlaMs = -1;    ///< -1 = not set; 0 = explicitly no SLA
  uint64_t MaxPops = 0; ///< 0 = not set
  bool Deterministic = false;
  bool HasDet = false; ///< det= explicitly present (0 and absent differ:
                       ///< absent inherits the server default)
  std::string Tag;
};

/// One server -> client message, either version.
struct Response {
  enum class Kind {
    None,
    Greeting, ///< v1 banner
    Ok,
    Bye,
    Help,   ///< v1 multi-line help text
    Error,  ///< Err + Detail
    Queued, ///< Id
    Answer, ///< Id, Rank (v2 only), Detail = printed regex
    Done,   ///< Id, Status, TotalMs, ExecMs (+ QueueMs/Answers/TraceId in v2)
    Stats,  ///< Detail = stats JSON
    Health, ///< v2: the health block below
    Metrics, ///< v2: Detail = Prometheus-style text exposition
    Trace,   ///< v2: Id = trace id, Detail = trace_event JSON
  };

  Kind K = Kind::None;
  ErrorCode Err = ErrorCode::None;
  std::string Detail; ///< error detail / stats json / answer regex
  /// Job id. On v2 Error frames it is optional: nonzero when the error
  /// concerns a specific submit/cancel id (busy, duplicate_id,
  /// bad_argument, ...), so a machine client can fail exactly that
  /// ticket instead of hanging it.
  uint64_t Id = 0;
  unsigned Rank = 0;
  std::string Status;
  double TotalMs = 0, ExecMs = 0, QueueMs = 0;
  unsigned Answers = 0;
  /// Retained span-trace id of a finished job (v2 done `trace=`); 0 when
  /// the job's trace was not retained. Fetch it with a Trace request.
  uint64_t TraceId = 0;

  // Health payload (v2).
  bool Healthy = true;
  uint64_t QueueDepth = 0;
  unsigned Workers = 0;
  double EstWaitMs = 0;
  int64_t NextDeadlineMs = -1; ///< ms to earliest queued SLA lapse; -1 none
};

/// v1 fixed texts (the historical bytes; the server must not drift).
extern const char GreetingText[]; ///< "regel ready; 'help' lists commands"
extern const char HelpText[];     ///< multi-line, each line '\n'-terminated

/// Renders \p R as one wire frame WITHOUT the trailing '\n' (Help is the
/// exception: multi-line, internal newlines included, final one omitted).
/// Kinds a version cannot express (e.g. v1 Health) return "".
std::string encodeRequest(const Request &R, Version V);
std::string encodeResponse(const Response &R, Version V);

/// Parses one frame (no trailing '\n'). The version is auto-detected: a
/// "v2 " prefix (or the bare word "v2") selects v2, anything else is v1.
/// Returns ErrorCode::None on success; on failure Out.K is None and the
/// code describes why (Out.Text carries the offending token for
/// UnknownCommand/UnknownPriority so callers can echo it).
ErrorCode decodeRequest(const std::string &Line, Request &Out);

/// Parses one response frame of known version \p V (a client knows which
/// protocol it spoke). Returns ErrorCode::None on success.
ErrorCode decodeResponse(const std::string &Line, Version V, Response &Out);

} // namespace regel::protocol

#endif // REGEL_SERVICE_PROTOCOL_H
