//===- obs/Probe.h - Instrumentation hook into the synthesizer --*- C++ -*-===//
//
// Part of the Regel reproduction. The synthesizer sits below the engine and must not depend on it; the engine hands them
// this POD of optional sinks instead (via SynthConfig::Probe). Everything
// is nullable: a null probe — or any null member — compiles the
// instrumentation down to a pointer test, which is what the bench's
// "observability off" row measures.
//
// Pointees are owned by the engine and outlive the synthesis run, exactly
// like SynthConfig::TimeSource.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_OBS_PROBE_H
#define REGEL_OBS_PROBE_H

#include <cstdint>

namespace regel {

class Clock;

namespace obs {

class Histogram;
class TraceContext;

/// Sinks for one synthesis run, threaded from the engine through
/// SynthConfig into the Synthesizer.
struct SynthProbe {
  /// Time source for span/histogram timing (same clock as the job's
  /// deadlines — virtual under ManualClock). Required when any other
  /// member is set.
  const Clock *Clk = nullptr;

  /// Latency of each SMT-guided inferConstants invocation. (Individual
  /// interval sweeps and satisfiability searches are far too frequent to time one by
  /// one — SynthStats::SmtIntervalEvals/SmtSolves count them; the probe
  /// times the enclosing inference call.)
  Histogram *SmtInferUs = nullptr;

  /// The job's trace, when sampled (nullptr otherwise): smt_infer spans
  /// land here.
  TraceContext *Trace = nullptr;

  /// Trace lane for spans recorded through this probe (the engine uses
  /// 1 + sketch rank; lane 0 is the job-level lane).
  int64_t Tid = 0;
};

} // namespace obs
} // namespace regel

#endif // REGEL_OBS_PROBE_H
