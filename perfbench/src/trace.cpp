#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {
namespace {

// The span open on this thread, for parent links. One tracer is live at a
// time, so a single per-thread stack suffices.
thread_local std::vector<std::uint32_t> t_open;

std::string layer_of(const char* name) {
  const std::string n(name);
  return n.substr(0, n.find('.'));
}

}  // namespace

std::uint32_t Tracer::begin(const char* name, std::uint64_t job) {
  const double now = seconds_since(origin_);
  const std::uint32_t parent = t_open.empty() ? 0 : t_open.back();
  std::uint32_t id = 0;
  {
    cyclops::LockGuard<cyclops::Mutex> lock(mutex_);
    spans_.push_back(Rec{name, parent, job, now, -1});
    id = static_cast<std::uint32_t>(spans_.size());
  }
  t_open.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  const double now = seconds_since(origin_);
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  cyclops::LockGuard<cyclops::Mutex> lock(mutex_);
  spans_[id - 1].end_s = now;
}

std::map<std::string, double> Tracer::self_seconds() const {
  cyclops::LockGuard<cyclops::Mutex> lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size() + 1);
  for (const Rec& r : spans_) {
    if (r.parent != 0 && r.end_s >= r.start_s) {
      children[r.parent].emplace_back(r.start_s, r.end_s);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    if (r.end_s < r.start_s) continue;
    // Union of the children's intervals, clipped to this span.
    auto& kids = children[i + 1];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double cur_lo = 0;
    double cur_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, r.start_s);
      hi = std::min(hi, r.end_s);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[layer_of(r.name)] += (r.end_s - r.start_s) - covered;
  }
  return self;
}

void Tracer::write_jsonl(const std::string& path) const {
  cyclops::LockGuard<cyclops::Mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"id\": %zu, \"parent\": %u, \"job\": %llu, \"name\": \"%s\", "
                  "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                  i + 1, r.parent, static_cast<unsigned long long>(r.job), r.name, r.start_s,
                  r.end_s);
    out << line;
  }
}

std::uint64_t next_job_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void CountingStore::count(std::size_t entries, Clock::time_point t0) const {
  // Threads hash to a slot by id; a collision only shares a cache line.
  static std::atomic<std::size_t> next_slot{0};
  thread_local const std::size_t slot = next_slot.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[slot % slots_.size()];
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0);
  s.calls.fetch_add(1, std::memory_order_relaxed);
  s.entries.fetch_add(entries, std::memory_order_relaxed);
  s.ns.fetch_add(static_cast<std::uint64_t>(ns.count()), std::memory_order_relaxed);
}

CountingStore::Totals CountingStore::totals() const {
  Totals t;
  std::uint64_t ns = 0;
  for (const Slot& s : slots_) {
    t.calls += s.calls.load(std::memory_order_relaxed);
    t.entries += s.entries.load(std::memory_order_relaxed);
    ns += s.ns.load(std::memory_order_relaxed);
  }
  t.seconds = static_cast<double>(ns) * 1e-9;
  return t;
}

void TimedCheckpointStore::put(cyclops::Superstep superstep, std::vector<std::uint8_t> sealed) {
  if (keep_) kept_[superstep] = sealed;  // bench-side copy, outside the timed call
  bytes += sealed.size();
  Span span(tracer_, "runtime.checkpoint_put", job_);
  const auto t0 = Clock::now();
  inner_.put(superstep, std::move(sealed));
  put_s += seconds_since(t0);
}

std::optional<std::pair<cyclops::Superstep, std::vector<std::uint8_t>>>
TimedCheckpointStore::latest() const {
  Span span(tracer_, "runtime.checkpoint_load", job_);
  const auto t0 = Clock::now();
  auto out = inner_.latest();
  load_s += seconds_since(t0);
  return out;
}

const std::vector<std::uint8_t>* TimedCheckpointStore::at(cyclops::Superstep superstep) const {
  const auto it = kept_.find(superstep);
  return it == kept_.end() ? nullptr : &it->second;
}

}  // namespace perfbench
