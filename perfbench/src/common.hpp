#pragma once
// Shared pieces of the perfbench program: command-line options, sample
// distributions, the metric registry that prints the result line, and the
// correctness tally behind `attempted` / `failed`.

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test scale: small graphs and one round, so every workload finishes
  /// in a few seconds while still emitting every metric.
  bool tiny = false;
  /// Self-test only: corrupt one vertex value before the correctness checks,
  /// which must then count a failure.
  bool plant = false;
  std::string out_dir = ".";  ///< where the traced run writes its span file
};

/// A sample set reported as median plus tail.
class Dist {
 public:
  void add(double x) { xs_.push_back(x); }
  void append(const Dist& o) { xs_.insert(xs_.end(), o.xs_.begin(), o.xs_.end()); }
  [[nodiscard]] std::size_t size() const noexcept { return xs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return xs_.empty(); }
  [[nodiscard]] double median() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// The highest percentile with at least ten samples beyond it: the value of
  /// rank n-10 (1-based) in ascending order. With ten samples or fewer no
  /// such rank exists and the maximum is reported instead; `rank` says which.
  struct Tail {
    double value = 0;
    std::size_t rank = 0;  ///< 1-based rank of `value` in ascending order
    std::size_t n = 0;
  };
  [[nodiscard]] Tail tail() const;

 private:
  std::vector<double> xs_;
};

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// Metrics a user of the system sees; emitted by every untraced run.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"run_s", "s"},
    {"job_s.p50", "s"},        {"job_s.tail", "s"},
    {"result_lag_s.p50", "s"}, {"result_lag_s.tail", "s"},
    {"peak_rss_mb", "MB"},     {"ok_ratio", "fraction"},
};

/// Metrics of single layers; emitted by every traced run. A metric of a layer
/// the workload does not exercise reads 0.
inline constexpr MetricSpec kPerLayer[] = {
    {"graph.build_s", "s"},
    {"graph.cursor_calls", "count"},
    {"graph.adj_entries", "count"},
    {"graph.cursor_s", "s"},
    {"graph.epoch_resident_bytes", "bytes"},
    {"partition.s", "s"},
    {"partition.replication_factor", "ratio"},
    {"engine.construct_s.hama", "s"},
    {"engine.construct_s.cyclops", "s"},
    {"engine.construct_s.mt", "s"},
    {"engine.construct_s.gas", "s"},
    {"engine.run_s.hama.t1", "s"},
    {"engine.run_s.hama.tN", "s"},
    {"engine.run_s.cyclops.t1", "s"},
    {"engine.run_s.cyclops.tN", "s"},
    {"engine.run_s.mt.t1", "s"},
    {"engine.run_s.mt.tN", "s"},
    {"engine.run_s.gas.t1", "s"},
    {"engine.run_s.gas.tN", "s"},
    {"engine.thread_speedup.hama", "ratio"},
    {"engine.thread_speedup.cyclops", "ratio"},
    {"engine.thread_speedup.mt", "ratio"},
    {"engine.thread_speedup.gas", "ratio"},
    {"engine.superstep_s.p50", "s"},
    {"engine.superstep_s.max", "s"},
    {"engine.supersteps", "count"},
    {"engine.computed_vertices", "count"},
    {"engine.converged_ratio", "fraction"},
    {"sim.messages", "count"},
    {"sim.remote_bytes", "bytes"},
    {"sim.packages", "count"},
    {"sim.exchange_s", "s"},
    {"sim.exchange_ns_per_byte", "ns/byte"},
    {"sim.modeled_s", "s"},
    {"sim.log_bytes", "bytes"},
    {"sim.log_packages", "count"},
    {"runtime.checkpoint_put_s", "s"},
    {"runtime.checkpoint_load_s", "s"},
    {"runtime.checkpoint_bytes", "bytes"},
    {"runtime.recovery_overhead_s.rollback", "s"},
    {"runtime.recovery_overhead_s.log", "s"},
    {"runtime.recovery_overhead_s.log-parallel", "s"},
    {"runtime.lost_supersteps", "count"},
    {"runtime.replay_verified_packages", "count"},
    {"service.queue_wait_s.p50", "s"},
    {"service.job_run_s.p50", "s"},
    {"service.rejected", "count"},
    {"ingest.advance_s.p50", "s"},
    {"ingest.advance_s.max", "s"},
    {"ingest.rebuild_s", "s"},
    {"ingest.publish_s", "s"},
    {"ingest.staleness_s.mean", "s"},
    {"ingest.staleness_s.max", "s"},
    {"ingest.epochs", "count"},
    {"ingest.reset_vertices", "count"},
    {"ingest.activated_vertices", "count"},
    {"ingest.generator_late_s.max", "s"},
    {"self_s.graph", "s"},
    {"self_s.partition", "s"},
    {"self_s.engine", "s"},
    {"self_s.sim", "s"},
    {"self_s.runtime", "s"},
    {"self_s.service", "s"},
    {"self_s.ingest", "s"},
    {"trace.overhead_ratio", "ratio"},
};

/// Values for one metric list, printed in the list's order. Setting a name
/// the list does not hold is a programming error and aborts.
class MetricSet {
 public:
  explicit MetricSet(std::span<const MetricSpec> specs);

  void set(std::string_view name, double value, std::string note = {});
  /// Sets base.p50 and base.tail from samples grouped by job kind. The p50 is
  /// the median over kinds of each kind's median: with several kinds of
  /// different cost in equal numbers, the plain median falls in the gap
  /// between two kinds and follows their extreme samples. The tail is taken
  /// over all samples together. One kind gives the plain median.
  void set_dist(std::string_view base, const std::map<std::string, Dist>& by_kind);

  /// One "name value unit [note]" line per metric.
  [[nodiscard]] std::string text() const;
  /// The JSON object of the result line's "metrics" key.
  [[nodiscard]] std::string json() const;

 private:
  struct Entry {
    MetricSpec spec;
    double value = 0;
    std::string note;
  };
  Entry& find(std::string_view name);
  std::vector<Entry> entries_;
};

/// Operations attempted and failed, plus the benchmark's own self-checks
/// (determinism, probe reconciliation). A failed self-check makes the run
/// incorrect without being an operation of the system.
class Verdict {
 public:
  /// Records `n` attempted operations; all of them failed unless `ok`.
  void op(bool ok, std::string_view what, std::uint64_t n = 1);
  void self_check(bool ok, std::string_view what);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] bool correct() const noexcept { return failed_ == 0 && self_ok_; }
  [[nodiscard]] const std::vector<std::string>& problems() const noexcept { return problems_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool self_ok_ = true;
  std::vector<std::string> problems_;
};

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Host threads available to the workload (at least 1).
[[nodiscard]] unsigned host_threads();

}  // namespace perfbench
