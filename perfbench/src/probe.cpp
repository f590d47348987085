#include "probe.hpp"

#include <algorithm>
#include <vector>

#include "common.hpp"
#include "cyclops/sim/fabric.hpp"

namespace perfbench {
namespace {

using cyclops::WorkerId;

struct Buf {
  WorkerId from = 0;
  std::size_t lane = 0;
  WorkerId to = 0;
};

struct Pkg {
  std::size_t exchange = 0;
  Buf buf;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

// Spreads `count` packages carrying `messages` / `bytes` over `bufs`.
void plan_kind(std::vector<Pkg>& out, const std::vector<Buf>& bufs, std::uint64_t count,
               std::uint64_t messages, std::uint64_t bytes) {
  if (count == 0 || bufs.empty()) return;
  const std::size_t cap = bufs.size();
  for (std::uint64_t i = 0; i < count; ++i) {
    Pkg p;
    if (count <= cap) {
      p.buf = bufs[static_cast<std::size_t>(i * cap / count)];
    } else {
      p.buf = bufs[i % cap];
      p.exchange = static_cast<std::size_t>(i / cap);
    }
    p.messages = messages / count + (i < messages % count ? 1 : 0);
    p.bytes = bytes / count + (i < bytes % count ? 1 : 0);
    out.push_back(p);
  }
}

}  // namespace

ProbeResult replay_exchanges(const cyclops::metrics::RunStats& run,
                             const cyclops::sim::Topology& topo,
                             const cyclops::sim::CostModel& cost, std::size_t lanes) {
  ProbeResult r;
  lanes = std::max<std::size_t>(1, lanes);
  cyclops::sim::Fabric fabric(topo, cost, lanes);
  const WorkerId workers = topo.total_workers();
  std::vector<Buf> local;
  std::vector<Buf> remote;
  for (WorkerId from = 0; from < workers; ++from) {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      for (WorkerId to = 0; to < workers; ++to) {
        (topo.same_machine(from, to) ? local : remote).push_back(Buf{from, lane, to});
      }
    }
  }

  std::vector<std::uint8_t> zeros;
  std::vector<Pkg> plan;
  for (const cyclops::metrics::SuperstepStats& step : run.supersteps) {
    const cyclops::sim::NetSnapshot& n = step.net;
    if (n.packages == 0) continue;
    // Split the superstep's packages between local and remote in proportion
    // to their messages, keeping at least one package per kind that carried
    // traffic and no package without a message.
    const bool has_local = n.local_messages > 0;
    const bool has_remote = n.remote_messages > 0;
    std::uint64_t n_local = 0;
    if (has_local && !has_remote) {
      n_local = n.packages;
    } else if (has_local && has_remote && n.packages >= 2) {
      const double share = static_cast<double>(n.local_messages) /
                           static_cast<double>(n.total_messages());
      const auto want = static_cast<std::int64_t>(share * static_cast<double>(n.packages) + 0.5);
      const std::int64_t lo =
          std::max<std::int64_t>(1, static_cast<std::int64_t>(n.packages) -
                                        static_cast<std::int64_t>(n.remote_messages));
      const std::int64_t hi = std::min<std::int64_t>(static_cast<std::int64_t>(n.packages) - 1,
                                                     static_cast<std::int64_t>(n.local_messages));
      n_local = static_cast<std::uint64_t>(std::clamp(want, lo, std::max(lo, hi)));
    }
    plan.clear();
    plan_kind(plan, local, n_local, n.local_messages, n.local_bytes);
    plan_kind(plan, remote, n.packages - n_local, n.remote_messages, n.remote_bytes);
    std::size_t exchanges = 0;
    for (const Pkg& p : plan) {
      exchanges = std::max(exchanges, p.exchange + 1);
      if (p.messages > 0) {
        zeros.resize(std::max<std::size_t>(zeros.size(), p.bytes / p.messages + p.bytes % p.messages));
      }
    }

    for (std::size_t e = 0; e < exchanges; ++e) {
      const auto t0 = Clock::now();
      for (const Pkg& p : plan) {
        if (p.exchange != e || p.messages == 0) continue;
        cyclops::sim::OutBox& box = fabric.outbox(p.buf.from, p.buf.lane);
        const std::uint64_t per = p.bytes / p.messages;
        for (std::uint64_t m = 0; m + 1 < p.messages; ++m) box.send(p.buf.to, {zeros.data(), per});
        box.send(p.buf.to, {zeros.data(), per + p.bytes % p.messages});
      }
      (void)fabric.exchange(workers);
      for (WorkerId w = 0; w < workers; ++w) {
        for (const cyclops::sim::Package& pkg : fabric.incoming(w)) r.bytes += pkg.bytes.size();
        fabric.clear_incoming(w);
      }
      r.seconds += seconds_since(t0);
    }
  }

  const cyclops::sim::NetSnapshot want = run.net_totals();
  const cyclops::sim::NetSnapshot got = fabric.totals();
  r.totals_match = want.remote_messages == got.remote_messages &&
                   want.local_messages == got.local_messages &&
                   want.remote_bytes == got.remote_bytes &&
                   want.local_bytes == got.local_bytes && want.packages == got.packages;
  return r;
}

}  // namespace perfbench
