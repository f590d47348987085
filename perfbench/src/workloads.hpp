#pragma once
// The three workloads and the state one benchmark invocation shares across
// them. Each workload sets up its inputs several times (setup_s is the
// median), runs its timed phase untraced, and — with --trace 1 — runs the
// phase again under the tracer; end-to-end metrics come from the untraced
// phase, per-layer metrics from the traced one.

#include <algorithm>
#include <cmath>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

/// Setup repetitions per invocation; setup_s reports their median.
inline constexpr int kSetupReps = 3;

struct Run {
  explicit Run(const Options& o) : opt(o) {}
  const Options& opt;
  MetricSet e2e{kEndToEnd};
  MetricSet layer{kPerLayer};
  Verdict verdict;
  Tracer tracer;

  [[nodiscard]] Tracer* tr() noexcept { return opt.trace ? &tracer : nullptr; }

  /// Rounds of a fixed job set for one timed phase. The run length is fixed
  /// work, not a stopwatch: `--seconds` divided by the round's nominal host
  /// cost (measured on a 4-core x86 host), so two builds being compared
  /// measure the same jobs. A traced invocation splits the budget between
  /// its untraced and traced phases.
  [[nodiscard]] int rounds(double nominal_round_s) const {
    if (opt.tiny) return 1;
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    return std::max(1, static_cast<int>(std::ceil(budget / nominal_round_s - 1e-9)));
  }
  /// Seconds of open-loop schedule for one timed phase.
  [[nodiscard]] double stream_seconds() const {
    if (opt.tiny) return 1.0;
    return opt.trace ? opt.seconds / 2 : opt.seconds;
  }

  /// Sets the per-layer self times from the tracer's spans.
  void set_self_times();
};

void run_pr_web(Run& run);
void run_ingest_serve(Run& run);
void run_recover_log(Run& run);

}  // namespace perfbench
