//===- service/Protocol.cpp -----------------------------------------------===//

#include "service/Protocol.h"

#include "engine/WorkerPool.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace regel;
using namespace regel::protocol;

namespace {

/// Strict full-string unsigned parse (digits only; rejects empty,
/// overflow, trailing junk): a number is parsed exactly or refused.
bool parseU64(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.size() > 20)
    return false;
  for (char C : S)
    if (C < '0' || C > '9')
      return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S.c_str(), &End, 10);
  if (errno == ERANGE || End != S.c_str() + S.size())
    return false;
  Out = V;
  return true;
}

bool parseI64(const std::string &S, int64_t &Out) {
  uint64_t U = 0;
  if (!parseU64(S, U) || U > static_cast<uint64_t>(INT64_MAX))
    return false;
  Out = static_cast<int64_t>(U);
  return true;
}

/// Strict full-string millisecond parse. Non-finite values and values
/// beyond MaxMsArg are refused, so every accepted value re-encodes (as
/// %.1f) to a token this parser accepts again.
bool parseMs(const std::string &S, double &Out) {
  if (S.empty() || S.size() > 64)
    return false;
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(S.c_str(), &End);
  if (errno == ERANGE || End != S.c_str() + S.size() || !std::isfinite(V) ||
      std::fabs(V) > static_cast<double>(MaxMsArg))
    return false;
  Out = V;
  return true;
}

int hexVal(char C) {
  if (C >= '0' && C <= '9')
    return C - '0';
  if (C >= 'a' && C <= 'f')
    return C - 'a' + 10;
  if (C >= 'A' && C <= 'F')
    return C - 'A' + 10;
  return -1;
}

/// Splits a frame into space-separated tokens. Empty tokens (doubled
/// spaces, leading/trailing space) are a malformed frame.
bool tokenize(const std::string &Line, std::vector<std::string> &Out) {
  size_t Start = 0;
  while (Start <= Line.size()) {
    size_t Space = Line.find(' ', Start);
    if (Space == std::string::npos)
      Space = Line.size();
    if (Space == Start)
      return false; // empty token
    Out.push_back(Line.substr(Start, Space - Start));
    Start = Space + 1;
    if (Start == Line.size() + 1)
      break;
  }
  return !Out.empty();
}

/// Splits "key=value" on the first '='; false when no '=' present.
bool splitPair(const std::string &Tok, std::string &Key, std::string &Val) {
  size_t Eq = Tok.find('=');
  if (Eq == std::string::npos || Eq == 0)
    return false;
  Key = Tok.substr(0, Eq);
  Val = Tok.substr(Eq + 1);
  return true;
}

void appendPair(std::string &Out, const char *Key, const std::string &Val) {
  Out += ' ';
  Out += Key;
  Out += '=';
  Out += escapeValue(Val);
}

void appendNum(std::string &Out, const char *Key, long long V) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), " %s=%lld", Key, V);
  Out += Buf;
}

/// Ids are full-range uint64 (client-chosen), so they must not round-trip
/// through a signed format: id >= 2^63 would encode as a negative number
/// the decoder's parseU64 rejects.
void appendU64(std::string &Out, const char *Key, uint64_t V) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), " %s=%llu", Key,
                static_cast<unsigned long long>(V));
  Out += Buf;
}

void appendMs(std::string &Out, const char *Key, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), " %s=%.1f", Key, V);
  Out += Buf;
}

} // namespace

const char *regel::protocol::errorCodeName(ErrorCode E) {
  switch (E) {
  case ErrorCode::None:
    return "none";
  case ErrorCode::UnknownCommand:
    return "unknown_command";
  case ErrorCode::UnknownPriority:
    return "unknown_priority";
  case ErrorCode::BadArgument:
    return "bad_argument";
  case ErrorCode::NothingToSolve:
    return "nothing_to_solve";
  case ErrorCode::Busy:
    return "busy";
  case ErrorCode::ServerFull:
    return "server_full";
  case ErrorCode::LineTooLong:
    return "line_too_long";
  case ErrorCode::Malformed:
    return "malformed";
  case ErrorCode::Oversized:
    return "oversized";
  case ErrorCode::DuplicateId:
    return "duplicate_id";
  case ErrorCode::UnknownId:
    return "unknown_id";
  }
  return "none";
}

bool regel::protocol::parseErrorCode(const std::string &Name,
                                     ErrorCode &Out) {
  static const ErrorCode All[] = {
      ErrorCode::None,          ErrorCode::UnknownCommand,
      ErrorCode::UnknownPriority, ErrorCode::BadArgument,
      ErrorCode::NothingToSolve, ErrorCode::Busy,
      ErrorCode::ServerFull,    ErrorCode::LineTooLong,
      ErrorCode::Malformed,     ErrorCode::Oversized,
      ErrorCode::DuplicateId,   ErrorCode::UnknownId};
  for (ErrorCode E : All)
    if (Name == errorCodeName(E)) {
      Out = E;
      return true;
    }
  return false;
}

const char *regel::protocol::verdictName(const engine::JobResult &R) {
  // Precedence is part of the wire contract (mirrors the pre-extraction
  // SocketServer statusName exactly).
  if (R.Rejected)
    return "rejected";
  if (R.ShedOnArrival)
    return "shed";
  if (R.solved())
    return "solved";
  if (R.ResidencyExpired)
    return "expired";
  if (R.DeadlineExpired)
    return "deadline";
  return "nosolution";
}

bool regel::protocol::applyVerdict(const std::string &Status,
                                   engine::JobResult &Out) {
  if (Status == "rejected")
    Out.Rejected = true;
  else if (Status == "shed")
    Out.ShedOnArrival = true;
  else if (Status == "expired")
    Out.ResidencyExpired = true;
  else if (Status == "deadline")
    Out.DeadlineExpired = true;
  else if (Status != "solved" && Status != "nosolution")
    return false;
  return true;
}

std::string regel::protocol::escapeValue(const std::string &S) {
  static const char Hex[] = "0123456789ABCDEF";
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    if (C <= 0x20 || C >= 0x7f || C == '%' || C == '=') {
      Out += '%';
      Out += Hex[C >> 4];
      Out += Hex[C & 0xf];
    } else {
      Out += static_cast<char>(C);
    }
  }
  return Out;
}

bool regel::protocol::unescapeValue(const std::string &S, std::string &Out) {
  Out.clear();
  Out.reserve(S.size());
  for (size_t I = 0; I < S.size(); ++I) {
    char C = S[I];
    if (C != '%') {
      // Raw spaces/controls cannot appear in a tokenized value; reject so
      // hand-built frames fail loudly instead of silently re-splitting.
      if (static_cast<unsigned char>(C) <= 0x20)
        return false;
      Out += C;
      continue;
    }
    if (I + 2 >= S.size())
      return false; // truncated escape
    int Hi = hexVal(S[I + 1]), Lo = hexVal(S[I + 2]);
    if (Hi < 0 || Lo < 0)
      return false;
    Out += static_cast<char>((Hi << 4) | Lo);
    I += 2;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

std::string regel::protocol::encodeRequest(const Request &R, Version) {
  std::string Out;
  switch (R.K) {
  case Request::Kind::Submit: {
    Out = "v2 submit";
    appendU64(Out, "id", R.Id);
    if (!R.Text.empty())
      appendPair(Out, "desc", R.Text);
    for (const std::string &S : R.Sketches)
      appendPair(Out, "sketch", S);
    for (const std::string &P : R.Pos)
      appendPair(Out, "pos", P);
    for (const std::string &N : R.Neg)
      appendPair(Out, "neg", N);
    if (R.TopK > 0)
      appendNum(Out, "topk", R.TopK);
    if (R.BudgetMs >= 0)
      appendNum(Out, "budget", R.BudgetMs);
    if (R.PerSketchBudgetMs > 0)
      appendNum(Out, "persketch", R.PerSketchBudgetMs);
    if (R.SlaMs >= 0)
      appendNum(Out, "sla", R.SlaMs);
    if (R.HasPri) {
      Out += " pri=";
      Out += engine::priorityName(R.Pri);
    }
    if (R.MaxPops > 0)
      appendNum(Out, "maxpops", static_cast<long long>(R.MaxPops));
    if (R.HasDet)
      Out += R.Deterministic ? " det=1" : " det=0";
    if (!R.Tag.empty())
      appendPair(Out, "tag", R.Tag);
    return Out;
  }
  case Request::Kind::Cancel:
    Out = "v2 cancel";
    appendU64(Out, "id", R.Id);
    return Out;
  case Request::Kind::Trace:
    Out = "v2 trace";
    appendU64(Out, "id", R.Id);
    return Out;
  case Request::Kind::Stats:
    return "v2 stats";
  case Request::Kind::Health:
    return "v2 health";
  case Request::Kind::Metrics:
    return "v2 metrics";
  case Request::Kind::None:
    return "";
  }
  return "";
}

namespace {

/// The offending token a decode error echoes, cut to MaxEchoBytes.
std::string echoToken(const std::string &Tok) {
  return Tok.substr(0, MaxEchoBytes);
}

ErrorCode decodeFrame(const std::string &Line, Request &Out) {
  std::vector<std::string> Toks;
  if (!tokenize(Line, Toks) || Toks.size() < 2)
    return ErrorCode::Malformed;
  const std::string &Type = Toks[1];

  if (Type == "stats") {
    if (Toks.size() != 2)
      return ErrorCode::Malformed;
    Out.K = Request::Kind::Stats;
    return ErrorCode::None;
  }
  if (Type == "health") {
    if (Toks.size() != 2)
      return ErrorCode::Malformed;
    Out.K = Request::Kind::Health;
    return ErrorCode::None;
  }
  if (Type == "metrics") {
    if (Toks.size() != 2)
      return ErrorCode::Malformed;
    Out.K = Request::Kind::Metrics;
    return ErrorCode::None;
  }
  if (Type != "submit" && Type != "cancel" && Type != "trace") {
    Out.Text = echoToken(Type);
    return ErrorCode::UnknownCommand;
  }

  bool SawId = false;
  for (size_t I = 2; I < Toks.size(); ++I) {
    std::string Key, RawVal;
    if (!splitPair(Toks[I], Key, RawVal))
      return ErrorCode::Malformed;
    std::string Val;
    if (!unescapeValue(RawVal, Val))
      return ErrorCode::Malformed;

    if (Key == "id") {
      if (!parseU64(Val, Out.Id) || Out.Id == 0)
        return ErrorCode::Malformed;
      SawId = true;
      continue;
    }
    if (Type != "submit")
      return ErrorCode::Malformed; // cancel/trace take only id

    if (Key == "desc") {
      Out.Text = Val;
    } else if (Key == "pos") {
      Out.Pos.push_back(Val);
    } else if (Key == "neg") {
      Out.Neg.push_back(Val);
    } else if (Key == "sketch") {
      Out.Sketches.push_back(Val);
    } else if (Key == "topk") {
      uint64_t K = 0;
      if (!parseU64(Val, K) || K == 0 || K > 1000)
        return ErrorCode::BadArgument;
      Out.TopK = static_cast<unsigned>(K);
    } else if (Key == "budget") {
      if (!parseI64(Val, Out.BudgetMs) || Out.BudgetMs > MaxMsArg)
        return ErrorCode::BadArgument;
    } else if (Key == "persketch") {
      if (!parseI64(Val, Out.PerSketchBudgetMs) ||
          Out.PerSketchBudgetMs > MaxMsArg)
        return ErrorCode::BadArgument;
    } else if (Key == "sla") {
      if (!parseI64(Val, Out.SlaMs) || Out.SlaMs > MaxMsArg)
        return ErrorCode::BadArgument;
    } else if (Key == "pri") {
      if (!engine::parsePriority(Val, Out.Pri)) {
        Out.Text = echoToken(Val);
        return ErrorCode::UnknownPriority;
      }
      Out.HasPri = true;
    } else if (Key == "maxpops") {
      if (!parseU64(Val, Out.MaxPops))
        return ErrorCode::BadArgument;
    } else if (Key == "det") {
      if (Val != "0" && Val != "1")
        return ErrorCode::BadArgument;
      Out.Deterministic = Val == "1";
      Out.HasDet = true;
    } else if (Key == "tag") {
      Out.Tag = Val;
    } else {
      return ErrorCode::Malformed; // unknown key: strict by design
    }
  }
  if (!SawId)
    return ErrorCode::Malformed;
  Out.K = Type == "submit"   ? Request::Kind::Submit
          : Type == "cancel" ? Request::Kind::Cancel
                             : Request::Kind::Trace;
  return ErrorCode::None;
}

} // namespace

ErrorCode regel::protocol::decodeRequest(const std::string &Line,
                                         Request &Out) {
  Out = Request();
  if (Line.empty())
    return ErrorCode::None;
  // On a decode failure Out.Id carries whatever id was recovered, so the
  // error can be addressed to the ticket it concerns.
  if (Line.size() > MaxFrameBytes) {
    // Best effort: fish the id out of the oversized frame (our own
    // encoder always puts it first) without parsing the rest.
    const size_t P = Line.find(" id=");
    if (P != std::string::npos) {
      size_t E = P + 4;
      while (E < Line.size() && Line[E] >= '0' && Line[E] <= '9')
        ++E;
      uint64_t Id = 0;
      if (E > P + 4 && parseU64(Line.substr(P + 4, E - (P + 4)), Id))
        Out.Id = Id;
    }
    return ErrorCode::Oversized;
  }
  if (Line != "v2" && Line.rfind("v2 ", 0) != 0) {
    Out.Text = echoToken(Line.substr(0, Line.find(' ')));
    return ErrorCode::UnknownCommand;
  }
  const ErrorCode Err = decodeFrame(Line, Out);
  // Only the offending token is echoed: a refused submit's description
  // is no part of its error.
  if (Err != ErrorCode::None && Err != ErrorCode::UnknownCommand &&
      Err != ErrorCode::UnknownPriority)
    Out.Text.clear();
  return Err;
}

//===----------------------------------------------------------------------===//
// Responses
//===----------------------------------------------------------------------===//

namespace {

ErrorCode decodeResponseFrame(const std::string &Line, Response &Out) {
  std::vector<std::string> Toks;
  if (!tokenize(Line, Toks) || Toks.size() < 2 || Toks[0] != "v2")
    return ErrorCode::Malformed;
  const std::string &Type = Toks[1];

  auto Pairs = [&](size_t From, auto &&Each) -> bool {
    for (size_t I = From; I < Toks.size(); ++I) {
      std::string Key, RawVal, Val;
      if (!splitPair(Toks[I], Key, RawVal) || !unescapeValue(RawVal, Val))
        return false;
      if (!Each(Key, Val))
        return false;
    }
    return true;
  };

  if (Type == "ok") {
    if (Toks.size() != 2)
      return ErrorCode::Malformed;
    Out.K = Response::Kind::Ok;
    return ErrorCode::None;
  }
  if (Type == "queued") {
    bool SawId = false;
    if (!Pairs(2, [&](const std::string &K, const std::string &V) {
          if (K == "id")
            return SawId = parseU64(V, Out.Id), SawId;
          return false;
        }) ||
        !SawId)
      return ErrorCode::Malformed;
    Out.K = Response::Kind::Queued;
    return ErrorCode::None;
  }
  if (Type == "answer") {
    bool SawId = false, SawRegex = false;
    if (!Pairs(2, [&](const std::string &K, const std::string &V) {
          if (K == "id")
            return SawId = parseU64(V, Out.Id), SawId;
          if (K == "rank") {
            uint64_t R = 0;
            if (!parseU64(V, R) || R > 100000)
              return false;
            Out.Rank = static_cast<unsigned>(R);
            return true;
          }
          if (K == "regex") {
            Out.Detail = V;
            SawRegex = true;
            return true;
          }
          return false;
        }) ||
        !SawId || !SawRegex)
      return ErrorCode::Malformed;
    Out.K = Response::Kind::Answer;
    return ErrorCode::None;
  }
  if (Type == "done") {
    bool SawId = false, SawStatus = false;
    if (!Pairs(2, [&](const std::string &K, const std::string &V) {
          if (K == "id")
            return SawId = parseU64(V, Out.Id), SawId;
          if (K == "status") {
            engine::JobResult Probe;
            if (!applyVerdict(V, Probe))
              return false;
            Out.Status = V;
            SawStatus = true;
            return true;
          }
          if (K == "total_ms")
            return parseMs(V, Out.TotalMs);
          if (K == "exec_ms")
            return parseMs(V, Out.ExecMs);
          if (K == "queue_ms")
            return parseMs(V, Out.QueueMs);
          if (K == "answers") {
            uint64_t N = 0;
            if (!parseU64(V, N) || N > 100000)
              return false;
            Out.Answers = static_cast<unsigned>(N);
            return true;
          }
          if (K == "trace")
            return parseU64(V, Out.TraceId) && Out.TraceId != 0;
          return false;
        }) ||
        !SawId || !SawStatus)
      return ErrorCode::Malformed;
    Out.K = Response::Kind::Done;
    return ErrorCode::None;
  }
  if (Type == "error") {
    bool SawCode = false;
    if (!Pairs(2, [&](const std::string &K, const std::string &V) {
          if (K == "code")
            return SawCode = parseErrorCode(V, Out.Err), SawCode;
          if (K == "id")
            return parseU64(V, Out.Id);
          if (K == "msg") {
            Out.Detail = V;
            return true;
          }
          return false;
        }) ||
        !SawCode)
      return ErrorCode::Malformed;
    Out.K = Response::Kind::Error;
    return ErrorCode::None;
  }
  if (Type == "stats") {
    bool SawJson = false;
    if (!Pairs(2, [&](const std::string &K, const std::string &V) {
          if (K == "json") {
            Out.Detail = V;
            SawJson = true;
            return true;
          }
          return false;
        }) ||
        !SawJson)
      return ErrorCode::Malformed;
    Out.K = Response::Kind::Stats;
    return ErrorCode::None;
  }
  if (Type == "metrics") {
    bool SawText = false;
    if (!Pairs(2, [&](const std::string &K, const std::string &V) {
          if (K == "text") {
            Out.Detail = V;
            SawText = true;
            return true;
          }
          return false;
        }) ||
        !SawText)
      return ErrorCode::Malformed;
    Out.K = Response::Kind::Metrics;
    return ErrorCode::None;
  }
  if (Type == "trace") {
    bool SawId = false, SawJson = false;
    if (!Pairs(2, [&](const std::string &K, const std::string &V) {
          if (K == "id")
            return SawId = parseU64(V, Out.Id), SawId;
          if (K == "json") {
            Out.Detail = V;
            SawJson = true;
            return true;
          }
          return false;
        }) ||
        !SawId || !SawJson)
      return ErrorCode::Malformed;
    Out.K = Response::Kind::Trace;
    return ErrorCode::None;
  }
  if (Type == "health") {
    if (!Pairs(2, [&](const std::string &K, const std::string &V) {
          if (K == "healthy") {
            if (V != "0" && V != "1")
              return false;
            Out.Healthy = V == "1";
            return true;
          }
          if (K == "queue_depth")
            return parseU64(V, Out.QueueDepth);
          if (K == "workers") {
            uint64_t W = 0;
            if (!parseU64(V, W) || W > 100000)
              return false;
            Out.Workers = static_cast<unsigned>(W);
            return true;
          }
          if (K == "est_wait_ms")
            return parseMs(V, Out.EstWaitMs);
          if (K == "next_deadline_ms") {
            if (V == "-1") {
              Out.NextDeadlineMs = -1;
              return true;
            }
            return parseI64(V, Out.NextDeadlineMs);
          }
          return false;
        }))
      return ErrorCode::Malformed;
    Out.K = Response::Kind::Health;
    return ErrorCode::None;
  }
  return ErrorCode::Malformed;
}

} // namespace

std::string regel::protocol::encodeResponse(const Response &R, Version) {
  std::string Out;
  char Buf[64];
  switch (R.K) {
  case Response::Kind::Ok:
    return "v2 ok";
  case Response::Kind::Queued:
    Out = "v2 queued";
    appendU64(Out, "id", R.Id);
    return Out;
  case Response::Kind::Answer:
    Out = "v2 answer";
    appendU64(Out, "id", R.Id);
    appendNum(Out, "rank", R.Rank);
    appendPair(Out, "regex", R.Detail);
    return Out;
  case Response::Kind::Done:
    Out = "v2 done";
    appendU64(Out, "id", R.Id);
    Out += " status=";
    Out += R.Status;
    appendMs(Out, "total_ms", R.TotalMs);
    appendMs(Out, "exec_ms", R.ExecMs);
    appendMs(Out, "queue_ms", R.QueueMs);
    appendNum(Out, "answers", R.Answers);
    if (R.TraceId != 0)
      appendU64(Out, "trace", R.TraceId);
    return Out;
  case Response::Kind::Error:
    Out = "v2 error code=";
    Out += errorCodeName(R.Err);
    if (R.Id != 0)
      appendU64(Out, "id", R.Id);
    if (!R.Detail.empty())
      appendPair(Out, "msg", R.Detail);
    return Out;
  case Response::Kind::Stats:
    Out = "v2 stats";
    appendPair(Out, "json", R.Detail);
    return Out;
  case Response::Kind::Metrics:
    Out = "v2 metrics";
    appendPair(Out, "text", R.Detail);
    return Out;
  case Response::Kind::Trace:
    Out = "v2 trace";
    appendU64(Out, "id", R.Id);
    appendPair(Out, "json", R.Detail);
    return Out;
  case Response::Kind::Health:
    Out = "v2 health healthy=";
    Out += R.Healthy ? '1' : '0';
    appendU64(Out, "queue_depth", R.QueueDepth);
    appendNum(Out, "workers", R.Workers);
    appendMs(Out, "est_wait_ms", R.EstWaitMs);
    std::snprintf(Buf, sizeof(Buf), " next_deadline_ms=%lld",
                  static_cast<long long>(R.NextDeadlineMs));
    Out += Buf;
    return Out;
  case Response::Kind::None:
    return "";
  }
  return "";
}

ErrorCode regel::protocol::decodeResponse(const std::string &Line, Version,
                                          Response &Out) {
  Out = Response();
  if (Line.size() > MaxFrameBytes)
    return ErrorCode::Oversized;
  return decodeResponseFrame(Line, Out);
}
