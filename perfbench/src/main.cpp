// perfbench — the repository benchmark's measuring program. run.py builds it
// and passes its arguments through:
//
//   perfbench --workload pr-web|ingest-serve|recover-log --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--tiny] [--plant]
//
// It prints one line per metric, then, as the last line of standard output,
// the JSON result: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end list, with --trace 1 the per-layer
// list. It exits 1 when any correctness check failed and 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload pr-web|ingest-serve|recover-log "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] [--tiny] [--plant]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value after " + a).c_str());
      return argv[++i];
    };
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      const std::string v = value();
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed needs a whole number");
    } else if (a == "--seconds") {
      const std::string v = value();
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0) || o.seconds > 3600) {
        usage("--seconds needs a number in (0, 3600]");
      }
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--out-dir") {
      o.out_dir = value();
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--plant") {
      o.plant = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

}  // namespace

void Run::set_self_times() {
  const auto self = tracer.self_seconds();
  for (const char* name : {"graph", "partition", "engine", "sim", "runtime", "service", "ingest"}) {
    const auto it = self.find(name);
    layer.set(std::string("self_s.") + name, it == self.end() ? 0.0 : it->second);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  Run run(opt);
  try {
    if (opt.workload == "pr-web") {
      run_pr_web(run);
    } else if (opt.workload == "ingest-serve") {
      run_ingest_serve(run);
    } else if (opt.workload == "recover-log") {
      run_recover_log(run);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  const Verdict& v = run.verdict;
  const double ok = v.attempted() > 0 ? 1.0 - static_cast<double>(v.failed()) /
                                                  static_cast<double>(v.attempted())
                                      : 0.0;
  run.e2e.set("peak_rss_mb", peak_rss_mb());
  run.e2e.set("ok_ratio", ok,
              "failed_ratio " + std::to_string(1.0 - ok) + " (" + std::to_string(v.failed()) +
                  " of " + std::to_string(v.attempted()) + " operations)");
  if (opt.trace) {
    run.set_self_times();
    const std::string path = opt.out_dir + "/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".jsonl";
    run.tracer.write_jsonl(path);
    std::printf("spans written to %s\n", path.c_str());
  }
  for (const std::string& p : v.problems()) std::printf("FAILED: %s\n", p.c_str());
  std::printf("# end-to-end (%s, seed %llu)\n%s", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), run.e2e.text().c_str());
  if (opt.trace) std::printf("# per-layer (traced run)\n%s", run.layer.text().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              v.correct() ? "true" : "false", static_cast<unsigned long long>(v.attempted()),
              static_cast<unsigned long long>(v.failed()),
              (opt.trace ? run.layer : run.e2e).json().c_str());
  std::fflush(stdout);
  return v.correct() ? 0 : 1;
}
