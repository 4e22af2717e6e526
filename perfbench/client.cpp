//===- perfbench/client.cpp - Closed-loop v2 client and answer oracle -----===//
//
// Usage: perfbench_client --port N --workload W --tasks K [--seed S]
//                         [--trace 0|1] [--maxpops P] [--timeout-ms X]
//                         [--pool N] [--dr-seed S] [--only ID]
//                         [--exclude ID,ID...]
//                         [--trace-out FILE] [--digest-out FILE]
//
// Drives a running perfbench_server with one-shot `v2 submit` frames over
// 4 loopback connections from one thread (poll()), one request in flight
// per connection: a closed loop. Every request is in deterministic-work
// mode (det=1 plus a maxpops cap; the 60 s wall budget is only a safety
// stop), so the work and the answers repeat from run to run.
//
// Workloads (the seed only reorders tasks, see Order below):
//   nl_stackoverflow  the 62 StackOverflow-style tasks, desc= plus
//                     examples, cycled; caches start cold.
//   nl_deepregex      fresh DeepRegex-style tasks of deepRegexSet(pool,
//                     dr-seed), desc= plus examples, each sent at most
//                     once; cold caches. --exclude drops listed tasks.
//   sketch_warm       25 DeepRegex + 25 StackOverflow tasks sent as
//                     explicit sketch= lists (gold, root hole,
//                     unconstrained); one untimed warm-up pass, then cycles.
//
// The timed phase is fixed work: exactly K sends, however long they take,
// so every run of one K measures the same requests whatever the speed of
// the commit (a time window would cut a once-through list at a point that
// depends on speed). The task list keeps its first K tasks, so each is
// sent at least once. The rate is completions over first send to last
// completion.
//
// After the timed phase (never inside it) every answer is re-checked
// against its request's examples through compileRegex -- independent of
// the DirectMatcher the engine accepted it with -- and compared with the
// ground truth by regexEquivalent. With --trace 1 the client also records
// per-request spans, scrapes `v2 stats` / `v2 metrics` around the timed
// phase, and replays the parse and codec calls in-process on the same
// inputs to time the nlp, sketch and protocol layers.
//
// Prints one JSON object on its last stdout line; exits 1 if any answer
// violates its examples, 2 on a usage or connection error.
//
//===----------------------------------------------------------------------===//

#include "automata/Compile.h"
#include "common/BenchUtil.h"
#include "data/DeepRegexSet.h"
#include "data/StackOverflowSet.h"
#include "obs/Metrics.h"
#include "regex/Parser.h"
#include "service/Protocol.h"
#include "sketch/SketchParser.h"
#include "support/Random.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <set>
#include <string>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

using namespace regel;
using protocol::Request;
using protocol::Response;
using protocol::Version;
using WallClock = std::chrono::steady_clock;

namespace {

constexpr unsigned NumConns = 4;
constexpr unsigned BlockSize = 8;
constexpr int64_t SafetyBudgetMs = 60000;

double msBetween(WallClock::time_point A, WallClock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

//===----------------------------------------------------------------------===//
// Options and tasks
//===----------------------------------------------------------------------===//

struct Options {
  uint16_t Port = 0;
  std::string Workload;
  uint64_t Seed = 1;
  bool Trace = false;
  uint64_t MaxPops = 50;
  int64_t TimeoutMs = 20000;
  unsigned Pool = 400;
  uint64_t DrSeed = 1;
  std::string Only;
  std::string Exclude; ///< comma-separated task ids left out of the pool
  size_t Tasks = 0;    ///< fixed work: sends in the timed phase
  std::string TraceOut;
  std::string DigestOut;
};

struct Task {
  std::string Id;
  std::string Desc;                  ///< empty on sketch workloads
  std::vector<std::string> Sketches; ///< printSketch forms; empty on NL
  Examples E;
  RegexPtr Truth;
};

struct Workload {
  std::vector<Task> Tasks;
  bool WarmupCycle = false; ///< one untimed pass before the timed phase
  bool Cycle = false;       ///< timed phase repeats the task list
};

Task nlTask(const data::Benchmark &B) {
  Task T;
  T.Id = B.Id;
  T.Desc = B.Description;
  T.E = B.Initial;
  T.Truth = B.GroundTruth;
  return T;
}

/// The sketch list bench/engine_throughput uses: gold, root hole, and the
/// unconstrained sketch, deduplicated.
Task sketchTask(const data::Benchmark &B) {
  Task T;
  T.Id = B.Id;
  T.E = B.Initial;
  T.Truth = B.GroundTruth;
  std::vector<SketchPtr> Sketches;
  for (const SketchPtr &S : {B.GoldSketch, data::rootHoleSketch(B.GroundTruth),
                             Sketch::unconstrained()}) {
    bool Seen = false;
    for (const SketchPtr &Prev : Sketches)
      Seen = Seen || sketchEquals(Prev, S);
    if (!Seen)
      Sketches.push_back(S);
  }
  for (const SketchPtr &S : Sketches)
    T.Sketches.push_back(printSketch(S));
  return T;
}

bool buildWorkload(const Options &O, Workload &W) {
  if (O.Workload == "nl_stackoverflow") {
    for (const data::Benchmark &B : data::stackOverflowSet())
      W.Tasks.push_back(nlTask(B));
    W.Cycle = true;
  } else if (O.Workload == "nl_deepregex") {
    for (const data::Benchmark &B : data::deepRegexSet(O.Pool, O.DrSeed))
      W.Tasks.push_back(nlTask(B));
  } else if (O.Workload == "sketch_warm") {
    std::vector<data::Benchmark> DR = data::deepRegexSet(25, O.DrSeed);
    std::vector<data::Benchmark> SO = data::stackOverflowSet();
    SO.resize(std::min<size_t>(SO.size(), 25));
    for (const data::Benchmark &B : DR)
      W.Tasks.push_back(sketchTask(B));
    for (const data::Benchmark &B : SO)
      W.Tasks.push_back(sketchTask(B));
    W.WarmupCycle = W.Cycle = true;
  } else {
    return false;
  }
  const std::string Excluded = "," + O.Exclude + ",";
  std::vector<Task> Kept;
  for (Task &T : W.Tasks)
    if (O.Only.empty() ? Excluded.find("," + T.Id + ",") == std::string::npos
                       : T.Id == O.Only)
      Kept.push_back(std::move(T));
  W.Tasks = std::move(Kept);
  if (W.Tasks.size() > O.Tasks)
    W.Tasks.resize(O.Tasks);
  return !W.Tasks.empty();
}

/// The order tasks are sent in. The list is cut into fixed consecutive
/// blocks and only the order inside each block is shuffled by the seed, so
/// any prefix of the sequence holds the same tasks for every seed up to
/// one block: the seed changes which requests meet in flight and in the
/// caches, not the mix of work a run measures.
class Order {
public:
  Order(size_t N, uint64_t Seed, bool Cycle) : N(N), Cycle(Cycle), R(Seed) {}

  /// Next task index, or -1 once a non-cycling order is exhausted.
  long next() {
    if (Pos == Current.size()) {
      if (Pass > 0 && !Cycle)
        return -1;
      refill();
    }
    return static_cast<long>(Current[Pos++]);
  }

private:
  void refill() {
    Current.resize(N);
    for (size_t I = 0; I < N; ++I)
      Current[I] = I;
    for (size_t Lo = 0; Lo < N; Lo += BlockSize) {
      const size_t Hi = std::min(N, Lo + BlockSize);
      for (size_t I = Hi - 1; I > Lo; --I)
        std::swap(Current[I], Current[Lo + R.nextBelow(I - Lo + 1)]);
    }
    Pos = 0;
    ++Pass;
  }

  size_t N;
  bool Cycle;
  Rng R;
  std::vector<size_t> Current;
  size_t Pos = 0;
  unsigned Pass = 0;
};

//===----------------------------------------------------------------------===//
// Connections and the closed loop
//===----------------------------------------------------------------------===//

enum class Fail { None, ErrorFrame, BadStatus, Timeout, Lost, WrongAnswer };

const char *failName(Fail F) {
  switch (F) {
  case Fail::None: return "none";
  case Fail::ErrorFrame: return "error_frame";
  case Fail::BadStatus: return "rejected_or_shed";
  case Fail::Timeout: return "timeout";
  case Fail::Lost: return "lost_connection";
  case Fail::WrongAnswer: return "wrong_answer";
  }
  return "?";
}

struct Record {
  size_t TaskIdx = 0;
  uint64_t WireId = 0;
  unsigned Conn = 0;
  WallClock::time_point T0, TAck, TDone;
  bool Acked = false, Done = false;
  double EncodeUs = 0, DecodeUs = 0; ///< client codec time (traced only)
  size_t RequestBytes = 0, ResponseBytes = 0;
  std::string Line; ///< the request frame, for the in-process replay
  std::string Status;
  double TotalMs = 0, ExecMs = 0, QueueMs = 0;
  std::vector<std::string> Answers; ///< printed regexes, rank order
  std::vector<std::string> ResponseLines; ///< kept on traced runs only
  Fail F = Fail::None;
};

int connectLoopback(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in A{};
  A.sin_family = AF_INET;
  A.sin_port = htons(Port);
  A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0) {
    ::close(Fd);
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Fd;
}

bool sendAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Reads whatever is available; false on EOF or a hard error.
bool readSome(int Fd, std::string &In) {
  char Buf[65536];
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
    if (N > 0) {
      In.append(Buf, static_cast<size_t>(N));
      if (static_cast<size_t>(N) < sizeof(Buf))
        return true;
      continue;
    }
    if (N == 0)
      return false;
    if (errno == EINTR)
      continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

struct Conn {
  int Fd = -1;
  std::string In;
  bool Busy = false;
  size_t Rec = 0; ///< index into Records while Busy
  WallClock::time_point Deadline;
};

class ClosedLoop {
public:
  ClosedLoop(const Options &O, const Workload &W) : O(O), W(W) {}
  ~ClosedLoop() {
    for (Conn &C : Conns)
      if (C.Fd >= 0)
        ::close(C.Fd);
  }
  ClosedLoop(const ClosedLoop &) = delete;
  ClosedLoop &operator=(const ClosedLoop &) = delete;

  bool open() {
    Conns.resize(NumConns);
    for (Conn &C : Conns)
      if ((C.Fd = connectLoopback(O.Port)) < 0)
        return false;
    return true;
  }

  bool serverDead() const { return ServerDead; }

  /// Runs one closed-loop phase: sends \p MaxSends requests from \p Seq
  /// (fewer if the order runs dry or the server dies), one in flight per
  /// connection, and drains them. Returns the phase's wall window in ms
  /// (first send to last completion).
  double runPhase(Order &Seq, size_t MaxSends, std::vector<Record> &Records) {
    Records.clear();
    const WallClock::time_point Start = WallClock::now();
    WallClock::time_point Last = Start;
    bool Issuing = true;
    for (;;) {
      if (Records.size() >= MaxSends || ServerDead)
        Issuing = false;
      for (unsigned I = 0; I < Conns.size() && Issuing; ++I) {
        if (Conns[I].Busy || Conns[I].Fd < 0)
          continue;
        if (Records.size() >= MaxSends) {
          Issuing = false;
          break;
        }
        long Idx = Seq.next();
        if (Idx < 0) {
          Issuing = false;
          break;
        }
        issue(I, static_cast<size_t>(Idx), Records);
      }
      bool AnyBusy = false;
      for (const Conn &C : Conns)
        AnyBusy = AnyBusy || C.Busy;
      if (!AnyBusy && (!Issuing || ServerDead))
        break;

      // Sleep until a frame arrives or the next request deadline.
      WallClock::time_point Now = WallClock::now();
      double WaitMs = 1000;
      for (const Conn &C : Conns)
        if (C.Busy)
          WaitMs = std::min(WaitMs, msBetween(Now, C.Deadline));
      std::vector<pollfd> Fds;
      std::vector<unsigned> Which;
      for (unsigned I = 0; I < Conns.size(); ++I)
        if (Conns[I].Fd >= 0) {
          Fds.push_back({Conns[I].Fd, POLLIN, 0});
          Which.push_back(I);
        }
      int Rc = ::poll(Fds.data(), Fds.size(),
                      static_cast<int>(std::ceil(std::max(0.0, WaitMs))));
      if (Rc < 0 && errno != EINTR)
        break;
      for (size_t K = 0; K < Fds.size(); ++K)
        if (Fds[K].revents & (POLLIN | POLLHUP | POLLERR))
          onReadable(Which[K], Records, Last);
      Now = WallClock::now();
      for (unsigned I = 0; I < Conns.size(); ++I)
        if (Conns[I].Busy && Now >= Conns[I].Deadline) {
          Records[Conns[I].Rec].F = Fail::Timeout;
          Records[Conns[I].Rec].TDone = Now;
          Last = Now;
          reset(I);
        }
    }
    return msBetween(Start, Last);
  }

  /// One synchronous control request (stats / metrics) on a fresh
  /// connection, outside any timed phase. Empty on failure.
  std::string control(Request::Kind K) {
    int Fd = connectLoopback(O.Port);
    if (Fd < 0)
      return "";
    Request Req;
    Req.K = K;
    std::string Out;
    if (sendAll(Fd, protocol::encodeRequest(Req, Version::V2) + "\n")) {
      std::string In;
      const WallClock::time_point Deadline =
          WallClock::now() + std::chrono::seconds(10);
      while (Out.empty() && WallClock::now() < Deadline) {
        pollfd P{Fd, POLLIN, 0};
        if (::poll(&P, 1, 1000) <= 0)
          continue;
        if (!readSome(Fd, In))
          break;
        size_t NL;
        while ((NL = In.find('\n')) != std::string::npos) {
          std::string Line = In.substr(0, NL);
          In.erase(0, NL + 1);
          Response R;
          if (Line.rfind("v2 ", 0) == 0 &&
              protocol::decodeResponse(Line, Version::V2, R) ==
                  protocol::ErrorCode::None &&
              (R.K == Response::Kind::Stats ||
               R.K == Response::Kind::Metrics)) {
            Out = R.Detail;
            break;
          }
        }
      }
    }
    ::close(Fd);
    return Out;
  }

private:
  void issue(unsigned CI, size_t TaskIdx, std::vector<Record> &Records) {
    const Task &T = W.Tasks[TaskIdx];
    Record Rec;
    Rec.TaskIdx = TaskIdx;
    Rec.WireId = NextId++;
    Rec.Conn = CI;
    WallClock::time_point EncStart;
    if (O.Trace)
      EncStart = WallClock::now();
    Request Req;
    Req.K = Request::Kind::Submit;
    Req.Id = Rec.WireId;
    Req.Text = T.Desc;
    Req.Sketches = T.Sketches;
    Req.Pos = T.E.Pos;
    Req.Neg = T.E.Neg;
    Req.TopK = 1;
    Req.BudgetMs = SafetyBudgetMs;
    Req.MaxPops = O.MaxPops;
    Req.Deterministic = true;
    Req.HasDet = true;
    std::string Line = protocol::encodeRequest(Req, Version::V2);
    Line += '\n';
    Rec.T0 = WallClock::now();
    if (O.Trace) {
      Rec.EncodeUs = msBetween(EncStart, Rec.T0) * 1000;
      Rec.Line = Line.substr(0, Line.size() - 1);
    }
    Rec.RequestBytes = Line.size();
    Conn &C = Conns[CI];
    C.Busy = true;
    C.Rec = Records.size();
    C.Deadline = Rec.T0 + std::chrono::milliseconds(O.TimeoutMs);
    Records.push_back(std::move(Rec));
    if (!sendAll(C.Fd, Line)) {
      Records.back().F = Fail::Lost;
      Records.back().TDone = WallClock::now();
      reset(CI);
    }
  }

  /// Drops connection \p CI (its in-flight request is already settled)
  /// and opens a fresh one; a refused reconnect means the server is gone.
  void reset(unsigned CI) {
    Conn &C = Conns[CI];
    if (C.Fd >= 0)
      ::close(C.Fd);
    C = Conn();
    C.Fd = connectLoopback(O.Port);
    if (C.Fd < 0)
      ServerDead = true;
  }

  void onReadable(unsigned CI, std::vector<Record> &Records,
                  WallClock::time_point &Last) {
    Conn &C = Conns[CI];
    const bool Open = readSome(C.Fd, C.In);
    size_t NL;
    while (C.Busy && (NL = C.In.find('\n')) != std::string::npos) {
      std::string Line = C.In.substr(0, NL);
      C.In.erase(0, NL + 1);
      if (Line.rfind("v2 ", 0) != 0)
        continue; // the v1 greeting every connection starts with
      Record &Rec = Records[C.Rec];
      WallClock::time_point DecStart;
      if (O.Trace)
        DecStart = WallClock::now();
      Response R;
      protocol::ErrorCode Err = protocol::decodeResponse(Line, Version::V2, R);
      const WallClock::time_point Now = WallClock::now();
      if (O.Trace) {
        Rec.DecodeUs += msBetween(DecStart, Now) * 1000;
        Rec.ResponseLines.push_back(Line);
      }
      if (Err != protocol::ErrorCode::None)
        continue;
      if (R.Id != Rec.WireId && R.K != Response::Kind::Error)
        continue;
      Rec.ResponseBytes += Line.size() + 1;
      if (R.K == Response::Kind::Queued) {
        Rec.TAck = Now;
        Rec.Acked = true;
      } else if (R.K == Response::Kind::Answer) {
        Rec.Answers.push_back(R.Detail);
      } else if (R.K == Response::Kind::Done ||
                 R.K == Response::Kind::Error) {
        Rec.TDone = Now;
        Last = Now;
        if (R.K == Response::Kind::Error) {
          Rec.F = Fail::ErrorFrame;
          Rec.Status = std::string("error:") + protocol::errorCodeName(R.Err);
        } else {
          Rec.Done = true;
          Rec.Status = R.Status;
          Rec.TotalMs = R.TotalMs;
          Rec.ExecMs = R.ExecMs;
          Rec.QueueMs = R.QueueMs;
          if (R.Status != "solved" && R.Status != "nosolution")
            Rec.F = Fail::BadStatus;
        }
        C.Busy = false;
      }
    }
    if (!Open) {
      if (C.Busy) {
        Records[C.Rec].F = Fail::Lost;
        Records[C.Rec].TDone = WallClock::now();
        Last = Records[C.Rec].TDone;
      }
      reset(CI);
    }
  }

  const Options &O;
  const Workload &W;
  std::vector<Conn> Conns;
  uint64_t NextId = 1;
  bool ServerDead = false;
};

//===----------------------------------------------------------------------===//
// Scraped counters
//===----------------------------------------------------------------------===//

/// Value of "Key" inside the flat JSON object "Section" of a stats dump.
double statField(const std::string &J, const char *Section, const char *Key) {
  size_t S = J.find(std::string("\"") + Section + "\":{");
  if (S == std::string::npos)
    return 0;
  size_t End = J.find('}', S);
  size_t K = J.find(std::string("\"") + Key + "\":", S);
  if (K == std::string::npos || K > End)
    return 0;
  return std::strtod(J.c_str() + K + std::strlen(Key) + 3, nullptr);
}

obs::HistogramSnapshot histogramDelta(const std::string &Before,
                                      const std::string &After,
                                      const char *Name) {
  obs::Registry A, B;
  A.absorbText(Before);
  B.absorbText(After);
  obs::HistogramSnapshot Start = A.histogramSnapshot(Name);
  obs::HistogramSnapshot End = B.histogramSnapshot(Name);
  obs::HistogramSnapshot D = End;
  D.Count -= std::min(D.Count, Start.Count);
  D.SumUs -= std::min(D.SumUs, Start.SumUs);
  for (size_t I = 0; I < D.Buckets.size() && I < Start.Buckets.size(); ++I)
    D.Buckets[I] -= std::min(D.Buckets[I], Start.Buckets[I]);
  return D;
}

double histMs(const obs::HistogramSnapshot &H, double Q) {
  return H.Count ? static_cast<double>(H.percentileUs(Q)) / 1000.0 : 0.0;
}

//===----------------------------------------------------------------------===//
// Reporting helpers
//===----------------------------------------------------------------------===//

/// Nearest-rank quantile of \p V (0 on empty input).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0 : S / static_cast<double>(V.size());
}

class JsonObject {
public:
  void num(const std::string &K, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.10g", std::isfinite(V) ? V : 0.0);
    add(K, Buf);
  }
  void str(const std::string &K, const std::string &V) {
    add(K, "\"" + obs::jsonEscape(V) + "\"");
  }
  void raw(const std::string &K, const std::string &V) { add(K, V); }
  std::string text() const { return "{" + Body + "}"; }

private:
  void add(const std::string &K, const std::string &V) {
    if (!Body.empty())
      Body += ",";
    Body += "\"" + obs::jsonEscape(K) + "\":" + V;
  }
  std::string Body;
};

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

void writeTraceFile(const std::string &Path, const std::vector<Record> &Rs,
                    const Workload &W, WallClock::time_point Origin) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return;
  auto us = [&](WallClock::time_point T) {
    return std::chrono::duration<double, std::micro>(T - Origin).count();
  };
  bool First = true;
  auto span = [&](const char *Name, unsigned Tid, double Ts, double Dur,
                  const Record &R) {
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                 "\"task\":\"%s\"}}",
                 First ? "" : ",\n", Name, Tid, Ts, std::max(0.0, Dur),
                 static_cast<unsigned long long>(R.WireId),
                 obs::jsonEscape(W.Tasks[R.TaskIdx].Id).c_str());
    First = false;
  };
  std::fprintf(F, "{\"traceEvents\":[\n");
  for (const Record &R : Rs) {
    const double T0 = us(R.T0), TDone = us(R.TDone);
    span("request", R.Conn, T0, TDone - T0, R);
    span("client_encode", R.Conn, T0 - R.EncodeUs, R.EncodeUs, R);
    if (R.Acked)
      span("send_to_ack", R.Conn, T0, us(R.TAck) - T0, R);
    if (R.Done && R.Acked) {
      const double ExecStart = TDone - R.ExecMs * 1000;
      span("engine_queue", R.Conn, ExecStart - R.QueueMs * 1000,
           R.QueueMs * 1000, R);
      span("engine_exec", R.Conn, ExecStart, R.ExecMs * 1000, R);
    }
    span("client_decode", R.Conn, TDone, R.DecodeUs, R);
  }
  std::fprintf(F, "\n]}\n");
  std::fclose(F);
}

bool parseArgs(int argc, char **argv, Options &O) {
  for (int I = 1; I + 1 < argc; I += 2) {
    const std::string K = argv[I], V = argv[I + 1];
    if (K == "--port")
      O.Port = static_cast<uint16_t>(std::atoi(V.c_str()));
    else if (K == "--workload")
      O.Workload = V;
    else if (K == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 0);
    else if (K == "--trace")
      O.Trace = V == "1";
    else if (K == "--maxpops")
      O.MaxPops = std::strtoull(V.c_str(), nullptr, 0);
    else if (K == "--timeout-ms")
      O.TimeoutMs = std::atoll(V.c_str());
    else if (K == "--pool")
      O.Pool = static_cast<unsigned>(std::atoi(V.c_str()));
    else if (K == "--dr-seed")
      O.DrSeed = std::strtoull(V.c_str(), nullptr, 0);
    else if (K == "--only")
      O.Only = V;
    else if (K == "--exclude")
      O.Exclude = V;
    else if (K == "--tasks")
      O.Tasks = std::strtoull(V.c_str(), nullptr, 0);
    else if (K == "--trace-out")
      O.TraceOut = V;
    else if (K == "--digest-out")
      O.DigestOut = V;
    else
      return false;
  }
  return O.Port != 0 && !O.Workload.empty() && O.Tasks > 0;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  if (!parseArgs(argc, argv, O)) {
    std::fprintf(stderr, "perfbench_client: bad arguments (see header)\n");
    return 2;
  }
  Workload W;
  if (!buildWorkload(O, W)) {
    std::fprintf(stderr, "perfbench_client: unknown workload or no task\n");
    return 2;
  }
  ClosedLoop D(O, W);
  if (!D.open()) {
    std::fprintf(stderr, "perfbench_client: cannot connect to port %u\n",
                 O.Port);
    return 2;
  }

  std::vector<Record> Records;
  Order Seq(W.Tasks.size(), O.Seed, W.Cycle);
  if (W.WarmupCycle) {
    Order Warm(W.Tasks.size(), O.Seed ^ 0x5a5a5a5aull, false);
    D.runPhase(Warm, W.Tasks.size(), Records);
  }
  std::string StatsBefore, MetricsBefore;
  if (O.Trace) {
    StatsBefore = D.control(Request::Kind::Stats);
    MetricsBefore = D.control(Request::Kind::Metrics);
  }
  const WallClock::time_point Origin = WallClock::now();
  const double WindowMs = D.runPhase(Seq, O.Tasks, Records);
  std::string StatsAfter, MetricsAfter;
  if (O.Trace && !D.serverDead()) {
    StatsAfter = D.control(Request::Kind::Stats);
    MetricsAfter = D.control(Request::Kind::Metrics);
  }

  // --- Answer oracle -----------------------------------------------------
  // Verdicts are memoized per (task, answer): cycled workloads repeat both.
  std::map<std::pair<size_t, std::string>, bool> SatCache, IntendedCache;
  auto satisfies = [&](size_t TI, const std::string &Text) {
    auto It = SatCache.find({TI, Text});
    if (It != SatCache.end())
      return It->second;
    bool Ok = false;
    if (RegexPtr R = parseRegex(Text)) {
      Dfa A = compileRegex(R);
      Ok = true;
      for (const std::string &P : W.Tasks[TI].E.Pos)
        Ok = Ok && A.matches(P);
      for (const std::string &N : W.Tasks[TI].E.Neg)
        Ok = Ok && !A.matches(N);
    }
    return SatCache[{TI, Text}] = Ok;
  };
  auto intended = [&](size_t TI, const std::string &Text) {
    auto It = IntendedCache.find({TI, Text});
    if (It != IntendedCache.end())
      return It->second;
    RegexPtr R = parseRegex(Text);
    return IntendedCache[{TI, Text}] =
               R && regexEquivalent(R, W.Tasks[TI].Truth);
  };

  // Accuracy is per task, as in the paper: under det=1 every request for
  // a task gets the same answer, so counting requests would only weight
  // tasks by how often a run happened to repeat them. Every task of the
  // list counts, and fixed work sends each one, so the set does not depend
  // on how fast a run went (a task a dead server never got counts as
  // unsolved). The answer digest covers the same tasks, so two runs of one
  // commit agree on it byte for byte.
  size_t Failed = 0, Wrong = 0, Completed = 0;
  /// task -> (solved, intended)
  std::vector<std::pair<bool, bool>> Outcome(W.Tasks.size());
  std::map<std::string, size_t> FailKinds;
  std::vector<std::string> FailedTasks; ///< in send order
  std::set<std::string> DigestLines;
  std::vector<double> Latency, AckMs, OutsideMs, QueueMs, ExecMs;
  for (Record &R : Records) {
    if (R.Done && R.Status == "solved" && R.Answers.empty())
      R.F = Fail::BadStatus;
    bool AllOk = true;
    for (const std::string &A : R.Answers)
      AllOk = AllOk && satisfies(R.TaskIdx, A);
    if (!AllOk) {
      R.F = Fail::WrongAnswer;
      ++Wrong;
    }
    if (R.Done)
      DigestLines.insert(W.Tasks[R.TaskIdx].Id + "\t" +
                         (R.Answers.empty() ? "-" : R.Answers.front()));
    if (R.F != Fail::None) {
      ++Failed;
      ++FailKinds[failName(R.F)];
      FailedTasks.push_back(W.Tasks[R.TaskIdx].Id);
      Latency.push_back(std::max<double>(msBetween(R.T0, R.TDone),
                                         static_cast<double>(O.TimeoutMs)));
      continue;
    }
    if (R.Status == "solved") {
      std::pair<bool, bool> &Task = Outcome[R.TaskIdx];
      Task.first = true;
      Task.second = Task.second || intended(R.TaskIdx, R.Answers.front());
    }
    ++Completed;
    Latency.push_back(msBetween(R.T0, R.TDone));
    if (R.Acked)
      AckMs.push_back(msBetween(R.T0, R.TAck));
    OutsideMs.push_back(msBetween(R.T0, R.TDone) - R.TotalMs);
    QueueMs.push_back(R.QueueMs);
    ExecMs.push_back(R.ExecMs);
  }
  const double Attempted = static_cast<double>(std::max<size_t>(1, Records.size()));
  size_t Solved = 0, Intended = 0;
  for (const std::pair<bool, bool> &T : Outcome) {
    Solved += T.first;
    Intended += T.second;
  }
  const double Tasks = static_cast<double>(Outcome.size());

  std::string Digest;
  for (const std::string &L : DigestLines)
    Digest += L + "\n";
  if (!O.DigestOut.empty())
    if (FILE *F = std::fopen(O.DigestOut.c_str(), "w")) {
      std::fputs(Digest.c_str(), F);
      std::fclose(F);
    }
  char DigestHex[32];
  std::snprintf(DigestHex, sizeof(DigestHex), "%016llx",
                static_cast<unsigned long long>(fnv1a(Digest)));

  JsonObject E2E;
  E2E.num("requests_per_s", WindowMs > 0 ? Completed * 1000.0 / WindowMs : 0);
  E2E.num("latency_p50_ms", quantile(Latency, 0.50));
  E2E.num("latency_p90_ms", quantile(Latency, 0.90));
  E2E.num("solved_share", Solved / Tasks);
  E2E.num("intended_share", Intended / Tasks);
  E2E.num("failed_share", Failed / Attempted);

  JsonObject Fails;
  for (const auto &KV : FailKinds)
    Fails.num(KV.first, static_cast<double>(KV.second));

  JsonObject Out;
  Out.raw("correct", Wrong == 0 ? "true" : "false");
  Out.num("attempted", static_cast<double>(Records.size()));
  Out.num("failed", static_cast<double>(Failed));
  Out.num("completed", static_cast<double>(Completed));
  Out.num("tasks", static_cast<double>(Outcome.size()));
  Out.num("window_s", WindowMs / 1000.0);
  Out.raw("server_dead", D.serverDead() ? "true" : "false");
  Out.raw("fail_kinds", Fails.text());
  std::string FailedList;
  for (const std::string &Id : FailedTasks)
    FailedList += (FailedList.empty() ? "\"" : ",\"") + obs::jsonEscape(Id) + "\"";
  Out.raw("failed_tasks", "[" + FailedList + "]");
  Out.str("digest", DigestHex);
  Out.num("digest_tasks", static_cast<double>(DigestLines.size()));
  Out.raw("e2e", E2E.text());

  if (O.Trace) {
    // --- In-process replays on the same inputs -------------------------
    const double PerReq = Completed ? 1.0 / static_cast<double>(Completed) : 0;
    std::vector<double> EncUs, DecUs, ReqBytes, RespBytes;
    for (const Record &R : Records) {
      if (R.F != Fail::None)
        continue;
      // Server side of the codec, replayed: decode the request frame and
      // re-encode every response frame the server wrote for it.
      auto A = WallClock::now();
      Request Req;
      protocol::decodeRequest(R.Line, Req);
      auto B = WallClock::now();
      std::vector<Response> Resps(R.ResponseLines.size());
      for (size_t I = 0; I < R.ResponseLines.size(); ++I)
        protocol::decodeResponse(R.ResponseLines[I], Version::V2, Resps[I]);
      auto C = WallClock::now();
      for (const Response &Resp : Resps)
        (void)protocol::encodeResponse(Resp, Version::V2);
      auto E = WallClock::now();
      EncUs.push_back(R.EncodeUs + msBetween(C, E) * 1000);
      DecUs.push_back(R.DecodeUs + msBetween(A, B) * 1000);
      ReqBytes.push_back(static_cast<double>(R.RequestBytes));
      RespBytes.push_back(static_cast<double>(R.ResponseBytes));
    }

    // nlp: one parse per distinct description, weighted by how often the
    // timed phase sent it (the parse is deterministic work).
    std::map<size_t, size_t> TimesSent;
    for (const Record &R : Records)
      if (R.F == Fail::None)
        ++TimesSent[R.TaskIdx];
    std::vector<double> ParseMs, SketchUs, SketchesPerReq;
    double ParseSum = 0;
    bool AnyDesc = false;
    for (const auto &KV : TimesSent)
      AnyDesc = AnyDesc || W.Tasks[KV.first].Sketches.empty();
    std::shared_ptr<nlp::SemanticParser> Parser;
    if (AnyDesc)
      Parser = bench::trainedParserForDeepRegex();
    for (const auto &KV : TimesSent) {
      const Task &T = W.Tasks[KV.first];
      double Ms = 0, SkUs = 0;
      size_t NumSketches = T.Sketches.size();
      if (T.Sketches.empty()) {
        auto A = WallClock::now();
        NumSketches = std::max<size_t>(1, Parser->parse(T.Desc, 10).size());
        Ms = msBetween(A, WallClock::now());
      } else {
        auto A = WallClock::now();
        for (const std::string &S : T.Sketches)
          (void)parseSketch(S);
        SkUs = msBetween(A, WallClock::now()) * 1000;
      }
      for (size_t I = 0; I < KV.second; ++I) {
        ParseMs.push_back(Ms);
        SketchUs.push_back(SkUs);
        SketchesPerReq.push_back(static_cast<double>(NumSketches));
      }
      ParseSum += Ms * static_cast<double>(KV.second);
    }

    auto delta = [&](const char *Sec, const char *Key) {
      return statField(StatsAfter, Sec, Key) - statField(StatsBefore, Sec, Key);
    };
    auto ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };
    const double DfaGets = delta("synth", "dfa_gets");
    const double DfaHits =
        delta("synth", "dfa_local_hits") + delta("synth", "dfa_shared_hits");
    const double ApproxHits = delta("approx_store", "hits");
    const double ApproxMiss = delta("approx_store", "misses");
    const double SmtHits =
        delta("smt_store", "hits") + delta("smt_store", "implied_hits");
    const double SmtMiss = delta("smt_store", "misses");
    const double Expansions = delta("synth", "expansions");
    obs::HistogramSnapshot TaskExec =
        histogramDelta(MetricsBefore, MetricsAfter, "regel_task_exec_us");
    obs::HistogramSnapshot DfaCompile =
        histogramDelta(MetricsBefore, MetricsAfter, "regel_dfa_compile_us");
    obs::HistogramSnapshot SmtInfer =
        histogramDelta(MetricsBefore, MetricsAfter, "regel_smt_infer_us");

    JsonObject L;
    L.num("server.ack_ms_p50", quantile(AckMs, 0.50));
    L.num("server.ack_ms_p90", quantile(AckMs, 0.90));
    L.num("server.outside_engine_ms_p50", quantile(OutsideMs, 0.50));
    L.num("server.outside_engine_ms_p90", quantile(OutsideMs, 0.90));
    L.num("protocol.encode_us", mean(EncUs));
    L.num("protocol.decode_us", mean(DecUs));
    L.num("protocol.request_bytes", mean(ReqBytes));
    L.num("protocol.response_bytes", mean(RespBytes));
    L.num("nlp.parse_ms_p50", quantile(ParseMs, 0.50));
    L.num("nlp.parse_ms_p90", quantile(ParseMs, 0.90));
    L.num("nlp.parse_ms_sum", ParseSum);
    L.num("nlp.parse_share", ratio(ParseSum, WindowMs));
    L.num("nlp.sketches_per_request", mean(SketchesPerReq));
    L.num("sketch.parse_us", mean(SketchUs));
    L.num("engine.queue_ms_p50", quantile(QueueMs, 0.50));
    L.num("engine.queue_ms_p90", quantile(QueueMs, 0.90));
    L.num("engine.exec_ms_p50", quantile(ExecMs, 0.50));
    L.num("engine.exec_ms_p90", quantile(ExecMs, 0.90));
    L.num("engine.tasks_run", delta("tasks", "run") * PerReq);
    L.num("engine.tasks_stolen", delta("tasks", "stolen") * PerReq);
    L.num("caches.dfa_hit_rate", ratio(DfaHits, DfaGets));
    L.num("caches.approx_hit_rate", ratio(ApproxHits, ApproxHits + ApproxMiss));
    L.num("caches.smt_hit_rate", ratio(SmtHits, SmtHits + SmtMiss));
    L.num("caches.dfa_entries", statField(StatsAfter, "dfa_store", "size"));
    L.num("caches.dfa_cost", statField(StatsAfter, "dfa_store", "cost"));
    L.num("caches.smt_entries", statField(StatsAfter, "smt_store", "size"));
    L.num("synth.pops", delta("synth", "pops") * PerReq);
    L.num("synth.expansions", Expansions * PerReq);
    L.num("synth.pruned_share", ratio(delta("synth", "pruned"), Expansions));
    L.num("synth.checked", delta("synth", "checked") * PerReq);
    L.num("synth.task_exec_ms_p50", histMs(TaskExec, 0.50));
    L.num("synth.task_exec_ms_p90", histMs(TaskExec, 0.90));
    L.num("smt.solves", delta("synth", "smt_solves") * PerReq);
    L.num("smt.interval_evals", delta("synth", "smt_interval_evals") * PerReq);
    L.num("smt.infer_ms", SmtInfer.SumUs / 1000.0 * PerReq);
    L.num("automata.dfa_gets", DfaGets * PerReq);
    L.num("automata.dfa_compiles", delta("synth", "dfa_compiles") * PerReq);
    L.num("automata.dfa_compile_ms", DfaCompile.SumUs / 1000.0 * PerReq);
    Out.raw("layers", L.text());
    const bool Scraped = !StatsBefore.empty() && !MetricsBefore.empty() &&
                         !StatsAfter.empty() && !MetricsAfter.empty();
    Out.raw("scraped", Scraped ? "true" : "false");
    if (!O.TraceOut.empty())
      writeTraceFile(O.TraceOut, Records, W, Origin);
  }

  std::printf("%s\n", Out.text().c_str());
  return Wrong == 0 ? 0 : 1;
}
