#include "totals.hpp"

#include <algorithm>

namespace perfbench {

void EngineTotals::add(const cyclops::metrics::RunStats& run, cyclops::VertexId n,
                       const std::string& repeat_key) {
  supersteps_ += static_cast<double>(run.supersteps.size());
  for (const auto& s : run.supersteps) computed_ += static_cast<double>(s.computed_vertices);
  if (!run.supersteps.empty() && n > 0) {
    converged_ += static_cast<double>(run.supersteps.back().converged_vertices) /
                  static_cast<double>(n);
  }
  runs_ += 1;
  modeled_ += run.total_time_s();
  if (!repeat_key.empty()) modeled_by_key_[repeat_key].add(run.total_time_s());
  net_ += run.net_totals();
}

void EngineTotals::probe(const cyclops::metrics::RunStats& run,
                         const cyclops::sim::Topology& topo, const cyclops::sim::CostModel& cost,
                         std::size_t lanes, Tracer* tr) {
  const auto t0 = Clock::now();
  Span span(tr, "sim.exchange_replay");
  const ProbeResult p = replay_exchanges(run, topo, cost, lanes);
  probe_.seconds += p.seconds;
  probe_.bytes += p.bytes;
  probe_ok_ = probe_ok_ && p.totals_match;
  probe_wall_s_ += seconds_since(t0);
}

void EngineTotals::report(MetricSet& L) const {
  L.set("engine.superstep_s.p50", steps_.median(), "n=" + std::to_string(steps_.size()));
  L.set("engine.superstep_s.max", steps_.max());
  L.set("engine.supersteps", supersteps_);
  L.set("engine.computed_vertices", computed_);
  L.set("engine.converged_ratio", runs_ > 0 ? converged_ / runs_ : 0.0);
  L.set("sim.messages", static_cast<double>(net_.total_messages()));
  L.set("sim.remote_bytes", static_cast<double>(net_.remote_bytes));
  L.set("sim.packages", static_cast<double>(net_.packages));
  L.set("sim.exchange_s", probe_.seconds);
  L.set("sim.exchange_ns_per_byte",
        probe_.bytes > 0 ? 1e9 * probe_.seconds / static_cast<double>(probe_.bytes) : 0.0);
  // Modeled time carries a host-timed SYN term, so repetitions of one job
  // differ; the widest relative spread is reported next to the total.
  double spread = 0;
  for (const auto& [key, d] : modeled_by_key_) {
    if (d.median() > 0) spread = std::max(spread, (d.max() - d.min()) / d.median());
  }
  L.set("sim.modeled_s", modeled_,
        "widest spread across repetitions of one job " + std::to_string(spread));
}

}  // namespace perfbench
