#pragma once
// Fabric replay probe behind sim.exchange_s: re-sends one job's recorded
// per-superstep traffic (package, message and byte counts, local vs remote)
// through a fresh sim::Fabric with the job's Topology, CostModel and lane
// count — OutBox::send, Fabric::exchange, then incoming() / clear_incoming()
// on every worker — and times only that. Isolating the exchange this way
// measures the fabric's host cost without instrumenting the program.

#include <cstddef>
#include <cstdint>

#include "cyclops/metrics/superstep_stats.hpp"
#include "cyclops/sim/cost_model.hpp"

namespace perfbench {

struct ProbeResult {
  double seconds = 0;       ///< host time in send + exchange + drain
  std::uint64_t bytes = 0;  ///< payload bytes replayed
  /// Self-check: the replayed fabric's NetSnapshot totals equal the job's
  /// recorded RunStats::net_totals() in every field.
  bool totals_match = true;
};

/// Replays `run`'s traffic. Packages of one superstep are spread over the
/// (from, lane, to) buffers of their kind (local: same machine; remote:
/// different machines); when a superstep has more packages than buffers of a
/// kind — engines that exchange several times per superstep — the surplus
/// goes into further exchanges.
[[nodiscard]] ProbeResult replay_exchanges(const cyclops::metrics::RunStats& run,
                                           const cyclops::sim::Topology& topo,
                                           const cyclops::sim::CostModel& cost,
                                           std::size_t lanes);

}  // namespace perfbench
