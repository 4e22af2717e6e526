//===- service/Protocol.h - The wire codec ----------------------*- C++ -*-===//
//
// Part of the Regel reproduction. The one parser/printer for the synthesis
// wire protocol, shared by the server and its machine clients (the
// perfbench client, the protocol fuzzer). Messages are '\n'-terminated
// `v2 <type> key=value ...` frames with percent-escaped values: a
// self-contained one-shot `submit` (client-chosen id, explicit sketches
// or a description, examples), `cancel`, `stats`, `health`, `metrics` and
// `trace`. A line that is not a v2 frame decodes to UnknownCommand.
//
// Decoding is defensive by contract: any input — truncated, oversized,
// binary garbage — yields an ErrorCode, never undefined behaviour. The
// error taxonomy is part of the protocol (carried on the wire as
// `v2 error code=<name>`), so clients can tell "queue full" from "busy
// connection" from "malformed frame" programmatically.
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

/// The frame dialect. v2 is the only one; the codec entry points keep
/// the parameter so existing clients compile unchanged.
enum class Version { V2 = 2 };

/// The protocol's error taxonomy, carried on the wire as
/// `v2 error code=<name> msg=...`.
enum class ErrorCode {
  None = 0,
  UnknownCommand,  ///< not a v2 frame, or v2 frame type not recognized
  UnknownPriority, ///< priority name not interactive|batch|background
  BadArgument,     ///< argument present but unparsable (number, sketch)
  NothingToSolve,  ///< submit with no description, examples or sketch
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

/// Hard cap on one frame, enforced by the decoders on every line:
/// anything longer is rejected as Oversized before any parsing touches
/// it. Matches the server's default per-connection line cap.
inline constexpr size_t MaxFrameBytes = 1 << 16;

/// Upper bound on millisecond arguments (budget/persketch/sla):
/// ~3 years. Beyond this a duration is a client bug, and unbounded
/// values would overflow the engine's microsecond deadline arithmetic
/// (budget * 1000 added to a clock instant) — the decoder rejects them
/// as BadArgument so the UB can never be reached from the wire.
inline constexpr int64_t MaxMsArg = 100LL * 1000 * 1000 * 1000;

/// The canonical verdict string of a finished job — the `status=` of a
/// `done` frame:
/// rejected | shed | solved | expired | deadline | nosolution.
const char *verdictName(const engine::JobResult &R);

/// Applies a verdict string to a result's outcome flags (the decode
/// inverse of verdictName; answers imply "solved" separately). False on
/// an unknown verdict.
bool applyVerdict(const std::string &Status, engine::JobResult &Out);

/// Percent-escapes \p S for use as a frame value: '%', ' ', '=', control
/// bytes and non-ASCII become %XX, so a value never contains a space or
/// newline and tokenization is unambiguous.
std::string escapeValue(const std::string &S);

/// Inverse of escapeValue. False on a malformed escape.
bool unescapeValue(const std::string &S, std::string &Out);

/// One client -> server message.
struct Request {
  enum class Kind {
    None,    ///< empty line (a no-op)
    Stats,
    Submit,  ///< one-shot: everything below
    Cancel,  ///< Id
    Health,
    Metrics, ///< Prometheus-style metrics exposition fetch
    Trace,   ///< Id = trace id (from a done frame's trace=)
  };

  Kind K = Kind::None;

  /// Submit description. On a decode error: the offending token (frame
  /// type or priority name), cut to MaxEchoBytes, for the error's msg=.
  std::string Text;
  engine::Priority Pri = engine::Priority::Interactive;
  bool HasPri = false; ///< priority explicitly present

  // Submit / cancel payload.
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

/// One server -> client message.
struct Response {
  enum class Kind {
    None,
    Ok,
    Error,   ///< Err + Detail
    Queued,  ///< Id
    Answer,  ///< Id, Rank, Detail = printed regex
    Done,    ///< Id, Status, TotalMs, ExecMs, QueueMs, Answers, TraceId
    Stats,   ///< Detail = stats JSON
    Health,  ///< the health block below
    Metrics, ///< Detail = Prometheus-style text exposition
    Trace,   ///< Id = trace id, Detail = trace_event JSON
  };

  Kind K = Kind::None;
  ErrorCode Err = ErrorCode::None;
  std::string Detail; ///< error detail / stats json / answer regex
  /// Job id. On Error frames it is optional: nonzero when the error
  /// concerns a specific submit/cancel id (busy, duplicate_id,
  /// bad_argument, ...), so a machine client can fail exactly that
  /// ticket instead of hanging it.
  uint64_t Id = 0;
  unsigned Rank = 0;
  std::string Status;
  double TotalMs = 0, ExecMs = 0, QueueMs = 0;
  unsigned Answers = 0;
  /// Retained span-trace id of a finished job (done `trace=`); 0 when
  /// the job's trace was not retained. Fetch it with a Trace request.
  uint64_t TraceId = 0;

  // Health payload.
  bool Healthy = true;
  uint64_t QueueDepth = 0;
  unsigned Workers = 0;
  double EstWaitMs = 0;
  int64_t NextDeadlineMs = -1; ///< ms to earliest queued SLA lapse; -1 none
};

/// Longest offending token a decode error echoes back (Request::Text), so
/// the error frame stays far below MaxFrameBytes however it escapes.
inline constexpr size_t MaxEchoBytes = 64;

/// Renders \p R as one wire frame WITHOUT the trailing '\n'. Kind None
/// renders as "".
std::string encodeRequest(const Request &R, Version V);
std::string encodeResponse(const Response &R, Version V);

/// Parses one frame (no trailing '\n'). An empty line is a no-op (Kind
/// None, ErrorCode::None); a line that is neither "v2" nor starts with
/// "v2 " is UnknownCommand, with its first token in Out.Text. On failure
/// Out.K is None and the code describes why (Out.Text carries the
/// offending token for UnknownCommand/UnknownPriority so callers can echo
/// it, and Out.Id whatever id was recovered).
ErrorCode decodeRequest(const std::string &Line, Request &Out);

/// Parses one response frame. Returns ErrorCode::None on success.
ErrorCode decodeResponse(const std::string &Line, Version V, Response &Out);

} // namespace regel::protocol

#endif // REGEL_SERVICE_PROTOCOL_H
