// ingest-serve: writes beside reads. An open-loop mutation stream at a fixed
// offered rate feeds a MutationIngestor whose epoch hook advances an
// incremental PageRank; beside it one closed-loop client runs a PR/CC/SSSP
// Cyclops query mix through a 2-slot JobScheduler on the newest epoch. The
// core layout code that is one-off setup in pr-web runs on every epoch here,
// queries read through DeltaOverlay chains, and the 2x2 topology keeps the
// fabric exchange small.
//
// The GWeb stand-in is stored undirected (both directions of every edge) and
// the mutation trace stages both directions of every op: CC queries find
// weakly connected components only over symmetric storage (algorithms/cc.hpp),
// which is what the union-find reference they are checked against computes.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "cyclops/algorithms/cc.hpp"
#include "cyclops/algorithms/datasets.hpp"
#include "cyclops/algorithms/sssp.hpp"
#include "cyclops/common/serialize.hpp"
#include "cyclops/common/sync.hpp"
#include "cyclops/ingest/incremental.hpp"
#include "cyclops/ingest/ingestor.hpp"
#include "cyclops/ingest/trace.hpp"
#include "cyclops/partition/hash.hpp"
#include "cyclops/service/service.hpp"
#include "totals.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace cy = cyclops;

constexpr double kOpsPerS = 500;  ///< offered directed mutation ops per second
constexpr std::size_t kMaxBatch = 64;
constexpr double kMaxDelayS = 0.05;
constexpr double kPrEpsilon = 1e-6;
constexpr cy::Superstep kQuerySupersteps = 200;  ///< enough for CC/SSSP to converge

cy::service::ServiceConfig service_config() {
  cy::service::ServiceConfig cfg;
  cfg.snapshot.machines = 2;
  cfg.snapshot.workers_per_machine = 2;
  cfg.snapshot.overlay_publish = true;
  cfg.scheduler.workers = 2;
  return cfg;
}

/// One built instance of the workload: the service on the base graph and the
/// incremental PageRank converged on epoch 0.
struct State {
  std::unique_ptr<cy::service::Service> svc;
  std::unique_ptr<cy::ingest::IncrementalPageRank> ipr;
  cy::ingest::IncrementalConfig icfg;
};

State build_state(const cy::graph::EdgeList& edges, Tracer* tr, double& construct_s) {
  State s;
  {
    Span span(tr, "service.construct");
    s.svc = std::make_unique<cy::service::Service>(edges, service_config());
  }
  s.icfg = cy::ingest::make_incremental_config(s.svc->config().snapshot, /*mt=*/false);
  cy::algo::PageRankCyclops prog;
  prog.epsilon = kPrEpsilon;
  const auto t0 = Clock::now();
  {
    Span span(tr, "engine.construct");
    s.ipr = std::make_unique<cy::ingest::IncrementalPageRank>(s.svc->snapshots().current(),
                                                              prog, s.icfg);
  }
  construct_s = seconds_since(t0);
  Span span(tr, "engine.run");
  (void)s.ipr->cold_run();
  return s;
}

struct Query {
  std::uint64_t id = 0;
  cy::service::JobSpec spec;
  cy::service::SnapshotRef snap;
  std::shared_ptr<const cy::service::JobResult> result;
};

/// What the query client records; owned by the client thread until joined.
struct ClientLog {
  std::map<std::string, Dist> query_s;  ///< by query algorithm
  Dist queue_wait_s;
  Dist job_run_s;
  std::uint64_t queries = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<cy::metrics::RunStats, cy::VertexId>> runs;  ///< traced only
  // First and last CC / SSSP answers, checked against the references.
  std::optional<Query> first_cc, last_cc, first_sssp, last_sssp;
  std::string error;  ///< an exception that ended the client early
};

struct Phase {
  double wall_s = 0;
  Dist lag_s;  ///< per epoch: the median lag of the mutations it published
  Dist advance_s;
  double rebuild_s = 0;
  double late_max_s = 0;
  std::uint64_t epochs = 0;
  std::uint64_t resets = 0;
  std::uint64_t activated = 0;
  std::uint64_t resident_max = 0;
  cy::ingest::IngestStats ingest;
  cy::service::SchedulerCounters scheduler;
  ClientLog client;
  EngineTotals engines;
  std::vector<cy::metrics::RunStats> runs;  ///< advance and query runs, for the probe
  // Final state, for the checks.
  std::vector<double> incremental;
  std::uint64_t incremental_supersteps = 0;
};

/// Runs the closed-loop query client until `stop`: the next query is
/// submitted when the previous one's result arrives.
void query_client(cy::service::Service& svc, const std::atomic<bool>& stop, Tracer* tr,
                  ClientLog& log) {
  const cy::service::Algo mix[] = {cy::service::Algo::kPageRank, cy::service::Algo::kCc,
                                   cy::service::Algo::kSssp};
  for (std::size_t k = 0; !stop.load(std::memory_order_acquire); ++k) {
    Query q;
    q.spec.tenant = "client";
    q.spec.algo = mix[k % 3];
    q.spec.engine = cy::service::EngineSel::kCyclops;
    q.spec.epsilon = kPrEpsilon;
    q.spec.max_supersteps = kQuerySupersteps;
    q.snap = svc.snapshots().current();
    ++log.queries;
    const auto t0 = Clock::now();
    cy::service::Submission sub;
    {
      Span span(tr, "service.submit");
      sub = svc.submit(q.spec, q.snap);
    }
    if (!sub.accepted) {
      ++log.rejected;
      continue;
    }
    {
      Span span(tr, "service.wait");
      svc.scheduler().wait(sub.id);
    }
    log.query_s[cy::service::algo_name(q.spec.algo)].add(seconds_since(t0));
    const cy::metrics::JobStats js = svc.scheduler().stats_for(sub.id);
    q.id = sub.id;
    q.result = svc.scheduler().result_for(sub.id);
    if (js.outcome != "ok" || q.result == nullptr) {
      ++log.failed;
      continue;
    }
    log.queue_wait_s.add(js.queue_wait_s);
    log.job_run_s.add(js.run_s);
    if (tr != nullptr) log.runs.emplace_back(q.result->run, q.snap->store().num_vertices());
    if (q.spec.algo == cy::service::Algo::kCc) {
      if (!log.first_cc) log.first_cc = q;
      log.last_cc = q;
    } else if (q.spec.algo == cy::service::Algo::kSssp) {
      if (!log.first_sssp) log.first_sssp = q;
      log.last_sssp = q;
    }
  }
}

Phase run_phase(State& s, const std::vector<cy::ingest::MutationOp>& ops, Tracer* tr) {
  Phase ph;
  cy::service::Service& svc = *s.svc;
  const cy::VertexId n = svc.snapshots().current()->store().num_vertices();
  cy::ingest::MutationIngestor ingestor(svc.snapshots(),
                                        cy::ingest::IngestConfig{kMaxBatch, kMaxDelayS});
  std::vector<Clock::time_point> pending;  // due times of ops not yet in a result
  Clock::time_point last_step;
  bool first_step = false;
  s.ipr->engine().set_observer([&](const cy::metrics::SuperstepStats&, const auto&) {
    const auto now = Clock::now();
    // The first callback of an advance also covers the relayout, which
    // ingest.rebuild_s times; only later supersteps are sampled.
    if (!first_step) ph.engines.add_step(std::chrono::duration<double>(now - last_step).count());
    first_step = false;
    last_step = now;
  });
  ingestor.set_epoch_hook([&](cy::service::Epoch, const cy::core::TopologyDelta& delta) {
    const cy::service::SnapshotRef snap = svc.snapshots().current();
    ph.resident_max = std::max<std::uint64_t>(ph.resident_max,
                                              snap->store().memory().resident_bytes);
    const auto t0 = Clock::now();
    first_step = true;
    cy::ingest::EpochAdvance adv;
    {
      Span span(tr, "ingest.advance");
      adv = s.ipr->advance(snap, delta);
    }
    const auto done = Clock::now();
    ph.advance_s.add(std::chrono::duration<double>(done - t0).count());
    // Mutations of one epoch share its completion, so their lags are one
    // sample, not dozens: each epoch contributes its median mutation's lag.
    Dist lags;
    for (const Clock::time_point due : pending) {
      lags.add(std::chrono::duration<double>(done - due).count());
    }
    ph.lag_s.add(lags.median());
    pending.clear();
    ph.rebuild_s += adv.rebuild_s;
    ph.resets += adv.reset_vertices;
    ph.activated += adv.activated_vertices;
    ++ph.epochs;
    ph.incremental_supersteps += adv.run.supersteps.size();
    if (tr != nullptr) {
      ph.engines.add(adv.run, n);
      ph.runs.push_back(std::move(adv.run));
    }
  });

  std::atomic<bool> stop{false};
  const auto t_start = Clock::now();
  cy::Thread client([&] {
    try {
      query_client(svc, stop, tr, ph.client);
    } catch (const std::exception& e) {
      ph.client.error = e.what();
    }
  });
  // Stops and joins the client on every exit path, exceptions included.
  struct Joiner {
    std::atomic<bool>& stop;
    cy::Thread& thread;
    ~Joiner() {
      stop.store(true, std::memory_order_release);
      if (thread.joinable()) thread.join();
    }
  } joiner{stop, client};

  // Open-loop generator: each op is offered at its due time whatever the
  // state of earlier ones; lag is measured from the due time.
  for (const cy::ingest::MutationOp& op : ops) {
    const auto due = t_start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(op.at_s));
    const auto now = Clock::now();
    if (now < due) {
      std::this_thread::sleep_until(due);
    } else {
      ph.late_max_s = std::max(ph.late_max_s, std::chrono::duration<double>(now - due).count());
    }
    pending.push_back(due);
    Span span(tr, "ingest.offer");
    ingestor.offer(op);
  }
  {
    Span span(tr, "ingest.offer");
    (void)ingestor.flush();
  }
  stop.store(true, std::memory_order_release);
  client.join();
  ph.wall_s = seconds_since(t_start);
  s.ipr->engine().set_observer(nullptr);
  if (!ph.client.error.empty()) throw std::runtime_error("query client: " + ph.client.error);
  for (auto& [run, nv] : ph.client.runs) {
    ph.engines.add(run, nv);
    ph.runs.push_back(std::move(run));
  }
  ph.ingest = ingestor.stats();
  ph.scheduler = svc.scheduler().counters();
  ph.incremental = s.ipr->values();
  return ph;
}

/// Canonical digest of a graph's adjacency, independent of how epochs
/// batched the mutations that produced it.
std::uint64_t graph_digest(const cy::graph::GraphStore& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  cy::graph::AdjCursor cur;
  const auto fold = [&h](std::uint64_t w) {
    h ^= w;
    h *= 0x100000001b3ULL;
  };
  for (cy::VertexId v = 0; v < g.num_vertices(); ++v) {
    fold(v);
    for (const cy::graph::Adj& a : g.out_neighbors(v, cur)) {
      std::uint64_t w = 0;
      std::memcpy(&w, &a.weight, sizeof w);
      fold(a.neighbor);
      fold(w);
    }
  }
  return h;
}

struct Final {
  std::uint64_t graph = 0;
  std::uint64_t cold_wire = 0;
};

/// Checks one finished phase; returns its final-state digests.
Final check_phase(Run& run, State& s, Phase& ph, std::uint64_t n_ops, const char* label) {
  const std::string tag = label;
  const cy::service::SnapshotRef fin = s.svc->snapshots().current();
  Final out;
  out.graph = graph_digest(fin->store());

  // Incremental PageRank against a cold run on the last epoch, within the
  // ingest equivalence contract: threshold convergence drifts by up to
  // epsilon per update round, in the cold run and across epochs alike.
  cy::algo::PageRankCyclops prog;
  prog.epsilon = kPrEpsilon;
  cy::core::Engine<cy::algo::PageRankCyclops> cold(fin->store(), fin->edge_cut(), prog,
                                                   s.icfg.engine);
  const cy::metrics::RunStats cs = cold.run();
  out.cold_wire = cold.fabric().wire_digest();
  const std::vector<double> want = cold.values();
  if (run.opt.plant) ph.incremental[0] += 1.0;
  double diff = ph.incremental.size() == want.size() ? 0.0 : INFINITY;
  for (std::size_t i = 0; i < want.size() && i < ph.incremental.size(); ++i) {
    diff = std::max(diff, std::abs(ph.incremental[i] - want[i]));
  }
  const double tol = std::max(
      1e-12, kPrEpsilon * static_cast<double>(ph.incremental_supersteps + cs.supersteps.size() + 1));
  std::printf("ingest-serve %s: %llu epochs, incremental vs cold max |diff| %.3g (tolerance %.3g)\n",
              label, static_cast<unsigned long long>(ph.epochs), diff, tol);
  run.verdict.op(diff <= tol, tag + ": incremental PageRank diverged from the cold run", n_ops);

  // Queries: rejected or failed ones count as failed; the first and last CC
  // and SSSP answers must equal the sequential references on their epoch.
  const ClientLog& c = ph.client;
  run.verdict.op(c.rejected + c.failed == 0, tag + ": queries rejected or failed",
                 c.rejected + c.failed);
  std::vector<std::uint64_t> checked;
  const auto check_query = [&](const std::optional<Query>& q, bool cc) {
    if (!q || std::find(checked.begin(), checked.end(), q->id) != checked.end()) return;
    checked.push_back(q->id);
    cy::ByteReader in(q->result->payload);
    bool ok = false;
    if (cc) {
      ok = in.read_vector<cy::VertexId>() == cy::algo::cc_reference(q->snap->store());
    } else {
      const auto got = in.read_vector<double>();
      const auto ref = cy::algo::sssp_reference(q->snap->store(), q->spec.source);
      ok = got.size() == ref.size();
      for (std::size_t i = 0; ok && i < ref.size(); ++i) {
        ok = got[i] == ref[i] || std::abs(got[i] - ref[i]) <= 1e-9 * std::abs(ref[i]);
      }
    }
    run.verdict.op(ok, tag + (cc ? ": CC" : ": SSSP") +
                           " answer differs from the reference on epoch " +
                           std::to_string(q->snap->epoch()));
  };
  check_query(c.first_cc, true);
  check_query(c.last_cc, true);
  check_query(c.first_sssp, false);
  check_query(c.last_sssp, false);
  run.verdict.op(true, "", c.queries - c.rejected - c.failed - checked.size());
  return out;
}

}  // namespace

void run_ingest_serve(Run& run) {
  const Options& o = run.opt;
  Tracer* tr = run.tr();
  const cy::algo::DatasetScale scale{o.tiny ? 0.1 : 1.0, o.seed};

  cy::graph::EdgeList edges;
  std::vector<cy::ingest::MutationOp> ops;
  const auto make_inputs = [&] {
    const cy::algo::Dataset d = cy::algo::make_gweb(scale);
    edges = cy::graph::EdgeList(d.edges.num_vertices());
    for (const cy::graph::Edge& e : d.edges.edges()) edges.add_undirected(e.src, e.dst, e.weight);
    cy::ingest::TraceSpec spec;
    spec.undirected = true;  // two directed ops per trace entry
    spec.ops_per_s = kOpsPerS / 2;
    spec.ops = static_cast<std::size_t>(run.stream_seconds() * spec.ops_per_s);
    spec.num_vertices = edges.num_vertices();
    spec.seed = o.seed;
    ops = cy::ingest::synth_trace(spec);
  };

  // Setup: inputs, service (store + partitions of epoch 0), incremental
  // engine construction and its initial convergence.
  Dist setup_s;
  Dist construct_s;
  std::optional<State> state;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Span span(tr, "bench.setup");
    state.reset();  // one service at a time
    const auto t0 = Clock::now();
    make_inputs();
    double c = 0;
    state = build_state(edges, tr, c);
    construct_s.add(c);
    setup_s.add(seconds_since(t0));
  }
  // The service builds its store and partitions internally; the benchmark
  // times the same calls on the same input, outside setup_s.
  Dist build_s;
  Dist partition_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    auto t0 = Clock::now();
    std::unique_ptr<const cy::graph::GraphStore> g;
    {
      Span span(tr, "graph.build");
      g = cy::graph::make_store(edges);
    }
    build_s.add(seconds_since(t0));
    Span span(tr, "partition.build");
    t0 = Clock::now();
    (void)cy::partition::HashPartitioner{}.partition(*g, 4);
    (void)cy::partition::HashPartitioner{}.partition(*g, 2);
    partition_s.add(seconds_since(t0));
  }

  Phase plain = run_phase(*state, ops, nullptr);
  const Final plain_final = check_phase(run, *state, plain, ops.size(), "untraced");
  std::optional<Phase> traced;
  if (o.trace) {
    double c = 0;
    state.reset();
    state = build_state(edges, nullptr, c);
    traced = run_phase(*state, ops, tr);
    const Final traced_final = check_phase(run, *state, *traced, ops.size(), "traced");
    run.verdict.self_check(traced_final.graph == plain_final.graph &&
                               traced_final.cold_wire == plain_final.cold_wire,
                           "traced run's final graph or cold-run digest differs from untraced");
  }

  run.e2e.set("setup_s", setup_s.median(), "median of " + std::to_string(setup_s.size()));
  run.e2e.set("run_s", plain.wall_s,
              std::to_string(ops.size()) + " ops offered at " +
                  std::to_string(static_cast<int>(kOpsPerS)) + "/s, then drained");
  // The query kinds are short Cyclops jobs of overlapping cost, so they are
  // one population: the p50 is the plain median over all queries.
  Dist queries;
  for (const auto& [algo, d] : plain.client.query_s) queries.append(d);
  run.e2e.set_dist("job_s", {{"query", queries}});
  run.e2e.set_dist("result_lag_s", {{"epoch", plain.lag_s}});
  for (const auto& [algo, d] : plain.client.query_s) {
    std::printf("ingest-serve: %-4s query median %.4f s (n=%zu)\n", algo.c_str(), d.median(),
                d.size());
  }
  std::printf("ingest-serve: generator late by at most %.4f s\n", plain.late_max_s);
  if (!traced) return;

  Phase& t = *traced;
  const cy::sim::Topology topo = state->icfg.engine.topo;  // the service's 2 x 2
  for (const auto& r : t.runs) t.engines.probe(r, topo, state->icfg.engine.cost, 1, tr);
  run.verdict.self_check(t.engines.probe_ok(), "fabric replay totals differ from a job's totals");
  MetricSet& L = run.layer;
  L.set("graph.build_s", build_s.median());
  L.set("graph.epoch_resident_bytes", static_cast<double>(t.resident_max), "max over epochs");
  L.set("partition.s", partition_s.median());
  const cy::service::SnapshotRef fin = state->svc->snapshots().current();
  L.set("partition.replication_factor",
        state->ipr->engine().layout().replication_factor(fin->store().num_vertices()));
  L.set("engine.construct_s.cyclops", construct_s.median());
  t.engines.report(L);
  L.set("service.queue_wait_s.p50", t.client.queue_wait_s.median());
  L.set("service.job_run_s.p50", t.client.job_run_s.median());
  L.set("service.rejected", static_cast<double>(t.scheduler.rejected));
  L.set("ingest.advance_s.p50", t.advance_s.median());
  L.set("ingest.advance_s.max", t.advance_s.max());
  L.set("ingest.rebuild_s", t.rebuild_s);
  L.set("ingest.publish_s", t.ingest.publish_s);
  L.set("ingest.staleness_s.mean", t.ingest.mean_staleness_s());
  L.set("ingest.staleness_s.max", t.ingest.max_staleness_s);
  L.set("ingest.epochs", static_cast<double>(t.epochs));
  L.set("ingest.reset_vertices", static_cast<double>(t.resets));
  L.set("ingest.activated_vertices", static_cast<double>(t.activated));
  L.set("ingest.generator_late_s.max", t.late_max_s);
  L.set("trace.overhead_ratio", t.wall_s / plain.wall_s);
}

}  // namespace perfbench
