#include "jobs.hpp"

namespace perfbench {
namespace {

template <typename Make>
void run_one(Make&& make, cy::VertexId n, Tracer* tr, std::uint64_t job, JobOut& out) {
  auto t0 = Clock::now();
  std::unique_ptr engine = [&] {
    Span span(tr, "engine.construct", job);
    return make();
  }();
  out.construct_s = seconds_since(t0);

  Clock::time_point last;
  observe_steps(*engine, out, last);
  {
    Span span(tr, "engine.run", job);
    t0 = Clock::now();
    last = t0;
    out.stats = engine->run();
    out.run_s = seconds_since(t0);
  }
  collect(*engine, n, out);
}

}  // namespace

JobOut run_pr_job(Eng e, const cy::graph::GraphStore& g, const PrGraph& pg,
                  const JobShape& shape, std::size_t pool_threads, const char* tag,
                  Tracer* tr) {
  JobOut out;
  out.engine = e;
  out.key = std::string(eng_name(e)) + "." + tag;
  const std::uint64_t job = next_job_id();
  const cy::VertexId n = g.num_vertices();
  switch (e) {
    case Eng::kHama:
      run_one([&] { return make_hama(g, pg, shape, pool_threads); }, n, tr, job, out);
      break;
    case Eng::kCyclops:
    case Eng::kMt:
      run_one([&] { return make_cyclops(g, pg, shape, e == Eng::kMt, pool_threads); }, n, tr,
              job, out);
      break;
    case Eng::kGas:
      run_one([&] { return make_gas(g, pg, shape, pool_threads); }, n, tr, job, out);
      break;
  }
  return out;
}

void construct_engines(std::span<const Eng> engines, const PrGraph& pg, const JobShape& shape,
                       Tracer* tr) {
  const cy::graph::GraphStore& g = *pg.store;
  for (const Eng e : engines) {
    Span span(tr, "engine.construct");
    switch (e) {
      case Eng::kHama: (void)make_hama(g, pg, shape, 1); break;
      case Eng::kCyclops: (void)make_cyclops(g, pg, shape, false, 1); break;
      case Eng::kMt: (void)make_cyclops(g, pg, shape, true, 1); break;
      case Eng::kGas: (void)make_gas(g, pg, shape, 1); break;
    }
  }
}

}  // namespace perfbench
