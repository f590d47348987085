#pragma once
// PageRank jobs on the four engines, as the pr-web and recover-log workloads
// run them: engine construction from one prepared graph, a run() timed on the
// host clock, and everything the checks and per-layer metrics need from the
// finished engine (values, wire digest, fabric shape, superstep intervals).

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "cyclops/algorithms/datasets.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/bsp/engine.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/gas/engine.hpp"
#include "cyclops/graph/store.hpp"
#include "cyclops/partition/hash.hpp"
#include "cyclops/partition/vertex_cut.hpp"
#include "trace.hpp"

namespace perfbench {

namespace cy = cyclops;

enum class Eng { kHama, kCyclops, kMt, kGas };
inline constexpr Eng kEngines[] = {Eng::kHama, Eng::kCyclops, Eng::kMt, Eng::kGas};

[[nodiscard]] inline const char* eng_name(Eng e) {
  switch (e) {
    case Eng::kHama: return "hama";
    case Eng::kCyclops: return "cyclops";
    case Eng::kMt: return "mt";
    case Eng::kGas: return "gas";
  }
  return "?";
}

/// Cluster shape and PageRank settings shared by every job of a workload.
struct JobShape {
  cy::MachineId machines = 6;
  cy::WorkerId workers_per_machine = 8;  ///< Hama/Cyclops partitions per machine
  unsigned mt_receivers = 2;             ///< CyclopsMT: threads = workers_per_machine
  double epsilon = 1e-9;
  cy::Superstep max_supersteps = 30;
};

/// A generated graph with its store and the three partitions the engines use.
struct PrGraph {
  cy::algo::Dataset data;
  std::unique_ptr<const cy::graph::GraphStore> store;
  cy::partition::EdgeCutPartition cut;     ///< machines x workers_per_machine parts
  cy::partition::EdgeCutPartition mt_cut;  ///< one part per machine
  cy::partition::VertexCutPartition vcut;  ///< one part per machine
};

/// Host seconds of the setup layers, one sample per setup repetition.
struct SetupTimes {
  Dist build_s;
  Dist partition_s;
};

[[nodiscard]] inline PrGraph build_pr_graph(cy::algo::Dataset data, const JobShape& shape,
                                            Tracer* tr, SetupTimes& times) {
  PrGraph g;
  g.data = std::move(data);
  {
    Span span(tr, "graph.build");
    const auto t0 = Clock::now();
    g.store = cy::graph::make_store(g.data.edges);
    times.build_s.add(seconds_since(t0));
  }
  Span span(tr, "partition.build");
  const auto t0 = Clock::now();
  g.cut = cy::partition::HashPartitioner{}.partition(*g.store,
                                                     shape.machines * shape.workers_per_machine);
  g.mt_cut = cy::partition::HashPartitioner{}.partition(*g.store, shape.machines);
  g.vcut = cy::partition::RandomVertexCut{}.partition(*g.store, shape.machines);
  times.partition_s.add(seconds_since(t0));
  return g;
}

using HamaEngine = cy::bsp::Engine<cy::algo::PageRankBsp>;
using CyclopsEngine = cy::core::Engine<cy::algo::PageRankCyclops>;
using GasEngine = cy::gas::Engine<cy::algo::PageRankGas>;

/// Optional fault-tolerance wiring for a job's engine config.
struct Faults {
  std::shared_ptr<cy::sim::FaultInjector> injector;
  std::shared_ptr<cy::sim::MessageLog> log;
};

[[nodiscard]] inline std::unique_ptr<HamaEngine> make_hama(const cy::graph::GraphStore& g,
                                                           const PrGraph& pg,
                                                           const JobShape& s,
                                                           std::size_t pool_threads,
                                                           const Faults& f = {}) {
  cy::algo::PageRankBsp prog;
  prog.epsilon = s.epsilon;
  cy::bsp::Config cfg;
  cfg.topo = cy::sim::Topology{s.machines, s.workers_per_machine};
  cfg.cost = cy::sim::CostModel::hama_java();
  cfg.max_supersteps = s.max_supersteps;
  cfg.pool_threads = pool_threads;
  cfg.faults = f.injector;
  cfg.message_log = f.log;
  return std::make_unique<HamaEngine>(g, pg.cut, prog, cfg);
}

[[nodiscard]] inline std::unique_ptr<CyclopsEngine> make_cyclops(const cy::graph::GraphStore& g,
                                                                 const PrGraph& pg,
                                                                 const JobShape& s, bool mt,
                                                                 std::size_t pool_threads,
                                                                 const Faults& f = {}) {
  cy::algo::PageRankCyclops prog;
  prog.epsilon = s.epsilon;
  cy::core::Config cfg =
      mt ? cy::core::Config::cyclops_mt(s.machines, s.workers_per_machine, s.mt_receivers)
         : cy::core::Config::cyclops(s.machines, s.workers_per_machine);
  cfg.max_supersteps = s.max_supersteps;
  cfg.pool_threads = pool_threads;
  cfg.faults = f.injector;
  cfg.message_log = f.log;
  return std::make_unique<CyclopsEngine>(g, mt ? pg.mt_cut : pg.cut, prog, cfg);
}

[[nodiscard]] inline std::unique_ptr<GasEngine> make_gas(const cy::graph::GraphStore& g,
                                                         const PrGraph& pg, const JobShape& s,
                                                         std::size_t pool_threads,
                                                         const Faults& f = {}) {
  cy::algo::PageRankGas prog;
  prog.num_vertices = g.num_vertices();
  prog.epsilon = s.epsilon;
  cy::gas::Config cfg;
  cfg.topo = cy::sim::Topology{s.machines, 1};
  cfg.cost = cy::sim::CostModel::boost_cpp();
  cfg.max_iterations = s.max_supersteps;
  cfg.pool_threads = pool_threads;
  cfg.faults = f.injector;
  cfg.message_log = f.log;
  return std::make_unique<GasEngine>(g, pg.vcut, prog, cfg);
}

/// What a finished job leaves behind.
struct JobOut {
  std::string key;  ///< engine[.tN], identical across repetitions
  Eng engine = Eng::kCyclops;
  double construct_s = 0;
  double run_s = 0;
  cy::metrics::RunStats stats;
  std::uint64_t digest = 0;
  cy::sim::Topology topo;
  cy::sim::CostModel cost;
  std::size_t lanes = 1;
  std::vector<double> values;
  Dist step_s;  ///< host intervals between superstep observer callbacks
  double replication = 1;
};

[[nodiscard]] inline std::vector<double> values_of(const HamaEngine& e) {
  const auto v = e.values();
  return {v.begin(), v.end()};
}
[[nodiscard]] inline std::vector<double> values_of(const CyclopsEngine& e) { return e.values(); }
[[nodiscard]] inline std::vector<double> values_of(const GasEngine& e) {
  std::vector<double> out;
  for (const auto& v : e.values()) out.push_back(v.rank);
  return out;
}

[[nodiscard]] inline std::size_t lanes_of(const CyclopsEngine& e) {
  return std::max(1u, e.config().compute_threads);
}
[[nodiscard]] inline std::size_t lanes_of(const HamaEngine&) { return 1; }
[[nodiscard]] inline std::size_t lanes_of(const GasEngine&) { return 1; }

[[nodiscard]] inline double replication_of(const CyclopsEngine& e, cy::VertexId n) {
  return e.layout().replication_factor(n);
}
[[nodiscard]] inline double replication_of(const GasEngine& e, cy::VertexId n) {
  return e.layout().replication_factor(n);
}
[[nodiscard]] inline double replication_of(const HamaEngine&, cy::VertexId) { return 1.0; }

/// Fills the engine-derived fields of `out` after its run.
template <typename Engine>
void collect(const Engine& engine, cy::VertexId n, JobOut& out) {
  out.digest = engine.fabric().wire_digest();
  out.topo = engine.fabric().topology();
  out.cost = engine.fabric().cost_model();
  out.lanes = lanes_of(engine);
  out.values = values_of(engine);
  out.replication = replication_of(engine, n);
}

/// Installs an observer recording the host interval of every superstep.
template <typename Engine>
void observe_steps(Engine& engine, JobOut& out, Clock::time_point& last) {
  engine.set_observer([&out, &last](const cy::metrics::SuperstepStats&, const auto&...) {
    const auto now = Clock::now();
    out.step_s.add(std::chrono::duration<double>(now - last).count());
    last = now;
  });
}

/// Constructs and runs one fault-free PageRank job on `g` (the prepared
/// store, or a wrapper around it). `tag` names the host-thread setting.
[[nodiscard]] JobOut run_pr_job(Eng e, const cy::graph::GraphStore& g, const PrGraph& pg,
                                const JobShape& shape, std::size_t pool_threads,
                                const char* tag, Tracer* tr);

/// Constructs (and destroys) one engine of each listed kind, as part of a
/// workload's setup.
void construct_engines(std::span<const Eng> engines, const PrGraph& pg, const JobShape& shape,
                       Tracer* tr);

}  // namespace perfbench
