#pragma once
// Totals over the engine runs of one traced phase, behind the engine.* and
// sim.* per-layer metrics every workload reports.

#include <map>
#include <string>

#include "common.hpp"
#include "cyclops/metrics/superstep_stats.hpp"
#include "cyclops/sim/cost_model.hpp"
#include "probe.hpp"
#include "trace.hpp"

namespace perfbench {

class EngineTotals {
 public:
  /// Adds one engine run over a graph of `n` vertices. Runs sharing a
  /// non-empty `repeat_key` repeat one job; their modeled times' spread is
  /// reported next to sim.modeled_s.
  void add(const cyclops::metrics::RunStats& run, cyclops::VertexId n,
           const std::string& repeat_key = {});
  /// Adds host intervals between superstep observer callbacks.
  void add_steps(const Dist& steps) { steps_.append(steps); }
  void add_step(double seconds) { steps_.add(seconds); }
  /// Replays the run's traffic through the fabric probe (see probe.hpp).
  void probe(const cyclops::metrics::RunStats& run, const cyclops::sim::Topology& topo,
             const cyclops::sim::CostModel& cost, std::size_t lanes, Tracer* tr);

  /// False when any replay's totals differed from its run's.
  [[nodiscard]] bool probe_ok() const noexcept { return probe_ok_; }
  /// Host seconds spent in probe() calls, for keeping them out of phase times.
  [[nodiscard]] double probe_wall_s() const noexcept { return probe_wall_s_; }

  /// Sets engine.superstep_s.*, engine.supersteps, engine.computed_vertices,
  /// engine.converged_ratio and the sim.* traffic, probe and modeled metrics.
  void report(MetricSet& layer) const;

 private:
  Dist steps_;
  double supersteps_ = 0;
  double computed_ = 0;
  double converged_ = 0;  ///< sum over runs of the final converged fraction
  double runs_ = 0;
  double modeled_ = 0;
  std::map<std::string, Dist> modeled_by_key_;
  cyclops::sim::NetSnapshot net_;
  ProbeResult probe_;
  bool probe_ok_ = true;
  double probe_wall_s_ = 0;
};

}  // namespace perfbench
