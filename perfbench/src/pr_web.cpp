// pr-web: the paper's message-bound batch job. PageRank on the LJournal
// stand-in on Hama (bsp), Cyclops and CyclopsMT (core) and PowerGraph (gas),
// each at one host thread and at one per host core. Fabric and sync-channel
// work dominate; layout build is setup only; no checkpoint or overlay code
// runs.

#include <cmath>
#include <map>
#include <optional>

#include "jobs.hpp"
#include "totals.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Host cost of one round (8 jobs) on a 4-core x86 host.
constexpr double kNominalRoundS = 8.5;

// Largest L1 distance a job's ranks may have from the sequential reference
// (pagerank_reference iterates to 1e-13). After 30 supersteps at
// epsilon = 1e-9 every engine measured below 4e-4 on this graph; the bound
// leaves an order of magnitude for seeds and engines, and any misplaced rank
// mass beyond it is a wrong result.
constexpr double kL1Tolerance = 0.005;

struct Phase {
  std::vector<JobOut> jobs;
  Dist round_s;
  /// Job completion minus its round's start, by position in the round.
  std::map<std::string, Dist> lag_s;
  double wall_s = 0;
  CountingStore::Totals cursor;
  EngineTotals engines;
};

Phase run_phase(const PrGraph& pg, const JobShape& shape, int rounds, Tracer* tr) {
  Phase ph;
  std::optional<CountingStore> wrapped;
  if (tr != nullptr) wrapped.emplace(*pg.store);
  const cy::graph::GraphStore& g = wrapped ? *wrapped : *pg.store;
  const std::size_t tn = host_threads();
  const cy::VertexId n = g.num_vertices();
  for (int r = 0; r < rounds; ++r) {
    Span round_span(tr, "bench.round");
    const auto t_round = Clock::now();
    const double probe_before = ph.engines.probe_wall_s();
    // The probe is the benchmark's own measurement; its time is kept out of
    // the round and out of result lag.
    const auto elapsed = [&] {
      return seconds_since(t_round) - (ph.engines.probe_wall_s() - probe_before);
    };
    int pos = 0;
    for (const auto& [pool, tag] : {std::pair<std::size_t, const char*>{1, "t1"}, {tn, "tN"}}) {
      for (const Eng e : kEngines) {
        JobOut j = run_pr_job(e, g, pg, shape, pool, tag, tr);
        ph.lag_s[std::to_string(pos++)].add(elapsed());
        if (tr != nullptr) {
          ph.engines.add(j.stats, n, j.key);
          ph.engines.add_steps(j.step_s);
          ph.engines.probe(j.stats, j.topo, j.cost, j.lanes, tr);
        }
        ph.jobs.push_back(std::move(j));
      }
    }
    ph.round_s.add(elapsed());
    ph.wall_s += elapsed();
  }
  if (wrapped) ph.cursor = wrapped->totals();
  return ph;
}

double l1(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return INFINITY;
  double d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::abs(a[i] - b[i]);
  return d;
}

}  // namespace

void run_pr_web(Run& run) {
  const Options& o = run.opt;
  Tracer* tr = run.tr();
  const JobShape shape;  // 6 machines x 8 workers, epsilon 1e-9, 30 supersteps
  const cy::algo::DatasetScale scale{o.tiny ? 0.05 : 1.0, o.seed};

  // Setup: input generation, store, partitions, one engine of each kind.
  Dist setup_s;
  SetupTimes st;
  std::optional<PrGraph> pg;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Span span(tr, "bench.setup");
    const auto t0 = Clock::now();
    PrGraph g = build_pr_graph(cy::algo::make_ljournal(scale), shape, tr, st);
    construct_engines(kEngines, g, shape, tr);
    setup_s.add(seconds_since(t0));
    pg = std::move(g);
  }

  const int rounds = run.rounds(kNominalRoundS);
  Phase plain = run_phase(*pg, shape, rounds, nullptr);
  std::optional<Phase> traced;
  if (o.trace) traced = run_phase(*pg, shape, rounds, tr);

  // Correctness: every repetition of a job matches the first one of its key
  // (messages, supersteps, wire digest), and its ranks are within
  // kL1Tolerance of the sequential reference. Traced jobs are held to the
  // same first repetition, so tracing cannot change results unnoticed.
  const std::vector<double> ref = cy::algo::pagerank_reference(*pg->store);
  if (o.plant) plain.jobs.front().values[0] += 1.0;
  std::map<std::string, const JobOut*> first;
  double worst_l1 = 0;
  const auto check = [&](const std::vector<JobOut>& jobs) {
    for (const JobOut& j : jobs) {
      const JobOut*& f = first[j.key];
      if (f == nullptr) f = &j;
      const double err = l1(j.values, ref);
      worst_l1 = std::max(worst_l1, err);
      const bool same = j.digest == f->digest &&
                        j.stats.supersteps.size() == f->stats.supersteps.size() &&
                        j.stats.net_totals().total_messages() ==
                            f->stats.net_totals().total_messages();
      run.verdict.op(same && err <= kL1Tolerance,
                     j.key + ": " + (same ? "" : "differs from its first repetition; ") +
                         "L1 to reference " + std::to_string(err));
    }
  };
  check(plain.jobs);
  if (traced) {
    check(traced->jobs);
    run.verdict.self_check(traced->engines.probe_ok(),
                           "fabric replay totals differ from a job's totals");
  }
  std::printf("pr-web: worst L1 distance to reference %.3g (tolerance %.3g)\n", worst_l1,
              kL1Tolerance);

  std::map<std::string, Dist> by_key;
  for (const JobOut& j : plain.jobs) by_key[j.key].add(j.run_s);
  for (const auto& [key, d] : by_key) {
    std::printf("pr-web: %-12s median %.4f s (min %.4f, max %.4f, n=%zu)\n", key.c_str(),
                d.median(), d.min(), d.max(), d.size());
  }
  run.e2e.set("setup_s", setup_s.median(), "median of " + std::to_string(setup_s.size()));
  run.e2e.set("run_s", plain.wall_s, std::to_string(rounds) + " rounds of 8 jobs");
  run.e2e.set_dist("job_s", by_key);
  run.e2e.set_dist("result_lag_s", plain.lag_s);
  if (!traced) return;

  const Phase& t = *traced;
  MetricSet& L = run.layer;
  L.set("graph.build_s", st.build_s.median());
  L.set("graph.cursor_calls", static_cast<double>(t.cursor.calls));
  L.set("graph.adj_entries", static_cast<double>(t.cursor.entries));
  L.set("graph.cursor_s", t.cursor.seconds);
  L.set("graph.epoch_resident_bytes", static_cast<double>(pg->store->memory().resident_bytes));
  L.set("partition.s", st.partition_s.median());
  std::map<std::string, Dist> run_by_key;
  std::map<std::string, Dist> construct_by_engine;
  for (const JobOut& j : t.jobs) {
    run_by_key[j.key].add(j.run_s);
    construct_by_engine[eng_name(j.engine)].add(j.construct_s);
    if (j.key == "cyclops.t1") L.set("partition.replication_factor", j.replication);
  }
  for (const Eng e : kEngines) {
    const std::string n = eng_name(e);
    L.set("engine.construct_s." + n, construct_by_engine[n].median());
    const double t1 = run_by_key[n + ".t1"].median();
    const double tn = run_by_key[n + ".tN"].median();
    L.set("engine.run_s." + n + ".t1", t1);
    L.set("engine.run_s." + n + ".tN", tn, std::to_string(host_threads()) + " host threads");
    L.set("engine.thread_speedup." + n, tn > 0 ? t1 / tn : 0);
  }
  t.engines.report(L);
  L.set("trace.overhead_ratio", t.round_s.median() / plain.round_s.median());
}

}  // namespace perfbench
