// recover-log: PageRank on the GWeb stand-in at 6 x 8 with one machine crash.
// Cyclops takes lightweight checkpoints every 5 supersteps; machine 1 crashes
// at superstep 12 and is recovered under rollback, log and log-parallel.
// Hama (heavyweight checkpoints) and PowerGraph (lightweight) rollback jobs
// run too, and every faulted engine has a fault-free twin in each round. The
// only workload that runs the runtime's checkpoint, restore and replay code
// and sim::MessageLog.

#include <cstring>
#include <map>
#include <optional>

#include "cyclops/runtime/recovery.hpp"
#include "jobs.hpp"
#include "totals.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace rt = cyclops::runtime;

// Host cost of one round (3 twins + 5 faulted jobs) on a 4-core x86 host.
constexpr double kNominalRoundS = 4.0;
constexpr cy::Superstep kCheckpointEvery = 5;
constexpr cy::Superstep kCrashAt = 12;
constexpr cy::MachineId kCrashMachine = 1;

struct Faulted {
  Eng engine;
  rt::RecoveryMode mode;
};
constexpr Eng kTwins[] = {Eng::kCyclops, Eng::kHama, Eng::kGas};
constexpr Faulted kFaulted[] = {
    {Eng::kCyclops, rt::RecoveryMode::kRollback},
    {Eng::kCyclops, rt::RecoveryMode::kLog},
    {Eng::kCyclops, rt::RecoveryMode::kLogParallel},
    {Eng::kHama, rt::RecoveryMode::kRollback},
    {Eng::kGas, rt::RecoveryMode::kRollback},
};

struct RecJob {
  JobOut out;
  rt::RecoveryMode mode = rt::RecoveryMode::kRollback;
  cy::metrics::RecoveryStats rec;
  double put_s = 0;
  double load_s = 0;
  std::uint64_t ckpt_bytes = 0;
  /// Latest snapshot at or before the restore point; kept only on request.
  std::vector<std::uint8_t> restored_from;
};

template <typename Make>
void recover_one(Make&& make, const rt::RecoveryOptions& ro, cy::sim::FaultInjector* faults,
                 cy::VertexId n, Tracer* tr, bool keep_snapshot, RecJob& job) {
  const std::uint64_t id = next_job_id();
  // The timing store is part of the traced run; keep_snapshot also needs it,
  // for the rollback check's resume twin.
  std::optional<TimedCheckpointStore> store;
  if (tr != nullptr || keep_snapshot) store.emplace(tr, id, keep_snapshot);
  Clock::time_point last;
  const auto factory = [&] {
    Span span(tr, "engine.construct", id);
    auto engine = make();
    observe_steps(*engine, job.out, last);
    return engine;
  };
  const auto t0 = Clock::now();
  last = t0;
  auto outcome = [&] {
    // The engine runs inside run_with_recovery; its checkpoint and construct
    // calls are child spans, so this span's self time is the engine's.
    Span span(tr, "engine.run", id);
    return rt::run_with_recovery(factory, ro, faults, store ? &*store : nullptr);
  }();
  job.out.run_s = seconds_since(t0);
  job.out.stats = std::move(outcome.run);
  job.rec = outcome.recovery;
  collect(*outcome.engine, n, job.out);
  if (store) {
    job.put_s = store->put_s;
    job.load_s = store->load_s;
    job.ckpt_bytes = store->bytes;
    if (keep_snapshot) {
      const cy::Superstep at = kCrashAt - static_cast<cy::Superstep>(job.rec.lost_supersteps);
      if (const auto* s = store->at(at)) job.restored_from = *s;
    }
  }
}

RecJob run_faulted(const Faulted& f, const cy::graph::GraphStore& g, const PrGraph& pg,
                   const JobShape& shape, std::uint64_t seed, Tracer* tr, bool keep_snapshot) {
  RecJob job;
  job.mode = f.mode;
  job.out.engine = f.engine;
  job.out.key = std::string(eng_name(f.engine)) + "/" + rt::recovery_mode_name(f.mode);
  cy::sim::FaultPlan plan;
  plan.seed = seed;
  plan.crash_at = kCrashAt;
  plan.crash_machine = kCrashMachine;
  Faults faults;
  faults.injector = std::make_shared<cy::sim::FaultInjector>(plan);
  rt::RecoveryOptions ro;
  ro.checkpoint_every = kCheckpointEvery;
  ro.mode = f.engine == Eng::kHama ? rt::CheckpointMode::kHeavyweight
                                   : rt::CheckpointMode::kLightweight;
  ro.recovery = f.mode;
  if (f.mode != rt::RecoveryMode::kRollback) {
    faults.log = std::make_shared<cy::sim::MessageLog>();
    ro.log = faults.log.get();
  }
  const cy::VertexId n = g.num_vertices();
  cy::sim::FaultInjector* inj = faults.injector.get();
  switch (f.engine) {
    case Eng::kHama:
      recover_one([&] { return make_hama(g, pg, shape, 1, faults); }, ro, inj, n, tr,
                  keep_snapshot, job);
      break;
    case Eng::kCyclops:
    case Eng::kMt:
      recover_one([&] { return make_cyclops(g, pg, shape, f.engine == Eng::kMt, 1, faults); },
                  ro, inj, n, tr, keep_snapshot, job);
      break;
    case Eng::kGas:
      recover_one([&] { return make_gas(g, pg, shape, 1, faults); }, ro, inj, n, tr,
                  keep_snapshot, job);
      break;
  }
  return job;
}

/// Wire digest of a fault-free engine restored from `sealed` and run to the
/// end: what a rollback-recovered run must reproduce, since rollback restarts
/// the digest at the restore point (runtime/recovery.hpp).
std::uint64_t resume_digest(Eng e, const std::vector<std::uint8_t>& sealed,
                            const PrGraph& pg, const JobShape& shape) {
  const std::vector<std::uint8_t> payload = rt::open_snapshot(sealed);
  const auto resume = [&](auto engine) {
    cy::ByteReader in(payload);
    engine->restore(in);
    (void)engine->run();
    return engine->fabric().wire_digest();
  };
  switch (e) {
    case Eng::kHama: return resume(make_hama(*pg.store, pg, shape, 1));
    case Eng::kCyclops:
    case Eng::kMt: return resume(make_cyclops(*pg.store, pg, shape, e == Eng::kMt, 1));
    case Eng::kGas: return resume(make_gas(*pg.store, pg, shape, 1));
  }
  return 0;
}

struct Phase {
  std::vector<JobOut> twins;
  std::vector<RecJob> faulted;
  Dist round_s;
  /// Job completion minus its round's start, by position in the round.
  std::map<std::string, Dist> lag_s;
  double wall_s = 0;
  std::map<std::string, Dist> overhead_s;  ///< faulted Cyclops job minus its round's twin
  CountingStore::Totals cursor;
  EngineTotals engines;
};

Phase run_phase(const PrGraph& pg, const JobShape& shape, int rounds, std::uint64_t seed,
                Tracer* tr) {
  Phase ph;
  std::optional<CountingStore> wrapped;
  if (tr != nullptr) wrapped.emplace(*pg.store);
  const cy::graph::GraphStore& g = wrapped ? *wrapped : *pg.store;
  const cy::VertexId n = g.num_vertices();
  for (int r = 0; r < rounds; ++r) {
    Span round_span(tr, "bench.round");
    const auto t_round = Clock::now();
    const double probe_before = ph.engines.probe_wall_s();
    const auto elapsed = [&] {
      return seconds_since(t_round) - (ph.engines.probe_wall_s() - probe_before);
    };
    const auto traced = [&](const JobOut& j) {
      if (tr == nullptr) return;
      ph.engines.add(j.stats, n, j.key);
      ph.engines.add_steps(j.step_s);
      ph.engines.probe(j.stats, j.topo, j.cost, j.lanes, tr);
    };
    std::map<Eng, double> twin_s;
    int pos = 0;
    for (const Eng e : kTwins) {
      JobOut j = run_pr_job(e, g, pg, shape, 1, "twin", tr);
      ph.lag_s[std::to_string(pos++)].add(elapsed());
      twin_s[e] = j.run_s;
      traced(j);
      ph.twins.push_back(std::move(j));
    }
    for (const Faulted& f : kFaulted) {
      RecJob j = run_faulted(f, g, pg, shape, seed, tr, false);
      ph.lag_s[std::to_string(pos++)].add(elapsed());
      if (f.engine == Eng::kCyclops) {
        ph.overhead_s[rt::recovery_mode_name(f.mode)].add(j.out.run_s - twin_s[f.engine]);
      }
      traced(j.out);
      ph.faulted.push_back(std::move(j));
    }
    ph.round_s.add(elapsed());
    ph.wall_s += elapsed();
  }
  if (wrapped) ph.cursor = wrapped->totals();
  return ph;
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

void run_recover_log(Run& run) {
  const Options& o = run.opt;
  Tracer* tr = run.tr();
  const JobShape shape;  // 6 machines x 8 workers, epsilon 1e-9, 30 supersteps
  const cy::algo::DatasetScale scale{o.tiny ? 0.1 : 1.0, o.seed};
  constexpr Eng kUsed[] = {Eng::kHama, Eng::kCyclops, Eng::kGas};

  Dist setup_s;
  SetupTimes st;
  std::optional<PrGraph> pg;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Span span(tr, "bench.setup");
    const auto t0 = Clock::now();
    PrGraph g = build_pr_graph(cy::algo::make_gweb(scale), shape, tr, st);
    construct_engines(kUsed, g, shape, tr);
    setup_s.add(seconds_since(t0));
    pg = std::move(g);
  }

  const int rounds = run.rounds(kNominalRoundS);
  Phase plain = run_phase(*pg, shape, rounds, o.seed, nullptr);
  std::optional<Phase> traced;
  if (o.trace) traced = run_phase(*pg, shape, rounds, o.seed, tr);

  // Correctness. Twins repeat bit-identically (values and wire digest). Each
  // recovered job ends with values bit-identical to its engine's fault-free
  // twin and exactly one recovery. Log-based modes must also end with the
  // twin's wire digest, with every replayed package verified against the
  // log and none mismatched. Rollback restarts the digest at the restore
  // point, so its digest must instead equal a fault-free engine resumed from
  // the same snapshot (computed once per engine, outside the timed phases),
  // and every repetition must repeat it.
  std::map<Eng, const JobOut*> twin0;
  std::map<Eng, std::uint64_t> rollback_digest;
  for (const Faulted& f : kFaulted) {
    if (f.mode != rt::RecoveryMode::kRollback) continue;
    const RecJob again = run_faulted(f, *pg->store, *pg, shape, o.seed, nullptr, true);
    rollback_digest[f.engine] =
        again.restored_from.empty() ? 0 : resume_digest(f.engine, again.restored_from, *pg, shape);
  }
  if (o.plant) plain.faulted.front().out.values[0] += 1.0;
  const auto check = [&](const Phase& ph) {
    for (const JobOut& t : ph.twins) {
      const JobOut*& f = twin0[t.engine];
      if (f == nullptr) f = &t;
      run.verdict.op(t.digest == f->digest && bit_identical(t.values, f->values),
                     t.key + ": differs from its first repetition");
    }
    for (std::size_t i = 0; i < ph.faulted.size(); ++i) {
      const RecJob& j = ph.faulted[i];
      // The round's twin of this engine.
      const std::size_t round = i / std::size(kFaulted);
      const JobOut* twin = nullptr;
      for (std::size_t k = round * std::size(kTwins); k < (round + 1) * std::size(kTwins); ++k) {
        if (ph.twins[k].engine == j.out.engine) twin = &ph.twins[k];
      }
      bool ok = twin != nullptr && j.rec.recoveries == 1 &&
                bit_identical(j.out.values, twin->values);
      if (j.mode == rt::RecoveryMode::kRollback) {
        ok = ok && j.out.digest == rollback_digest[j.out.engine];
      } else {
        ok = ok && j.out.digest == twin->digest && j.rec.replay_log_mismatches == 0 &&
             j.rec.replay_verified_packages > 0;
      }
      run.verdict.op(ok, j.out.key + ": recovered run differs from its fault-free twin");
    }
  };
  check(plain);
  if (traced) {
    check(*traced);
    run.verdict.self_check(traced->engines.probe_ok(),
                           "fabric replay totals differ from a job's totals");
  }

  std::map<std::string, Dist> job_s;
  for (const JobOut& j : plain.twins) job_s[j.key].add(j.run_s);
  for (const RecJob& j : plain.faulted) job_s[j.out.key].add(j.out.run_s);
  for (const auto& [key, d] : job_s) {
    std::printf("recover-log: %-22s median %.4f s (min %.4f, max %.4f, n=%zu)\n", key.c_str(),
                d.median(), d.min(), d.max(), d.size());
  }
  run.e2e.set("setup_s", setup_s.median(), "median of " + std::to_string(setup_s.size()));
  run.e2e.set("run_s", plain.wall_s,
              std::to_string(rounds) + " rounds of 3 twins + 5 recovered jobs");
  run.e2e.set_dist("job_s", job_s);
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
  std::map<Eng, Dist> construct;
  for (const JobOut& j : t.twins) {
    construct[j.engine].add(j.construct_s);
    if (j.engine == Eng::kCyclops) L.set("partition.replication_factor", j.replication);
  }
  for (const Eng e : kUsed) {
    L.set(std::string("engine.construct_s.") + eng_name(e), construct[e].median());
  }
  t.engines.report(L);
  double log_bytes = 0, log_packages = 0, put_s = 0, load_s = 0, ckpt_bytes = 0, lost = 0,
         verified = 0;
  for (const RecJob& j : t.faulted) {
    log_bytes += static_cast<double>(j.rec.log_bytes);
    log_packages += static_cast<double>(j.rec.log_packages);
    put_s += j.put_s;
    load_s += j.load_s;
    ckpt_bytes += static_cast<double>(j.ckpt_bytes);
    lost += static_cast<double>(j.rec.lost_supersteps);
    verified += static_cast<double>(j.rec.replay_verified_packages);
  }
  L.set("sim.log_bytes", log_bytes);
  L.set("sim.log_packages", log_packages);
  L.set("runtime.checkpoint_put_s", put_s);
  L.set("runtime.checkpoint_load_s", load_s);
  L.set("runtime.checkpoint_bytes", ckpt_bytes);
  for (const auto& [mode, d] : t.overhead_s) {
    L.set("runtime.recovery_overhead_s." + mode, d.median(), "Cyclops, median over rounds");
  }
  L.set("runtime.lost_supersteps", lost);
  L.set("runtime.replay_verified_packages", verified);
  L.set("trace.overhead_ratio", t.round_s.median() / plain.round_s.median());
}

}  // namespace perfbench
