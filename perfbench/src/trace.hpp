#pragma once
// Bench-side tracing for the traced run. Spans are recorded only in the
// benchmark's own files, around its calls into each module's public
// functions; nothing under src/ is instrumented. Each span holds a name whose
// prefix before the first '.' is its layer (graph, partition, engine, sim,
// runtime, service, ingest, bench), its start and end, the span that was open
// on the same thread when it began, and a job id. Spans stay in memory and are
// written out as JSON lines when the run ends.
//
// The forwarding wrappers below are the traced run's counters for layers
// whose calls are too frequent for one span each (graph cursor queries) or
// that the program calls back into (checkpoint stores).

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "cyclops/common/sync.hpp"
#include "cyclops/graph/store.hpp"
#include "cyclops/runtime/checkpoint.hpp"

namespace perfbench {

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread; returns its id.
  std::uint32_t begin(const char* name, std::uint64_t job);
  void end(std::uint32_t id);

  /// Per layer: total span duration minus the part of it child spans cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// One JSON object per span, in start order.
  void write_jsonl(const std::string& path) const;

 private:
  struct Rec {
    const char* name = "";
    std::uint32_t parent = 0;  ///< 0 = root
    std::uint64_t job = 0;
    double start_s = 0;
    double end_s = -1;  ///< < start while open
  };
  Clock::time_point origin_;
  mutable cyclops::Mutex mutex_;
  std::vector<Rec> spans_;  ///< span id = index + 1
};

/// RAII span; a null tracer makes it a no-op, so untraced runs share code.
class Span {
 public:
  Span(Tracer* t, const char* name, std::uint64_t job = 0)
      : t_(t), id_(t != nullptr ? t->begin(name, job) : 0) {}
  ~Span() {
    if (t_ != nullptr) t_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  std::uint32_t id_;
};

/// Process-wide job ids shared by all spans of one job.
[[nodiscard]] std::uint64_t next_job_id();

/// Forwarding GraphStore that counts neighbor queries, the adjacency entries
/// they return, and the host time they take. Counters live in per-thread
/// slots on separate cache lines so multi-threaded engines do not contend.
class CountingStore final : public cyclops::graph::GraphStore {
 public:
  explicit CountingStore(const cyclops::graph::GraphStore& inner) : inner_(inner) {}
  CountingStore(const CountingStore&) = delete;
  CountingStore& operator=(const CountingStore&) = delete;

  [[nodiscard]] cyclops::graph::StoreKind kind() const noexcept override { return inner_.kind(); }
  [[nodiscard]] cyclops::VertexId num_vertices() const noexcept override {
    return inner_.num_vertices();
  }
  [[nodiscard]] std::size_t num_edges() const noexcept override { return inner_.num_edges(); }
  [[nodiscard]] std::size_t out_degree(cyclops::VertexId v) const noexcept override {
    return inner_.out_degree(v);
  }
  [[nodiscard]] std::size_t in_degree(cyclops::VertexId v) const noexcept override {
    return inner_.in_degree(v);
  }
  [[nodiscard]] std::span<const cyclops::graph::Adj> out_neighbors(
      cyclops::VertexId v, cyclops::graph::AdjCursor& cur) const override {
    const auto t0 = Clock::now();
    const auto s = inner_.out_neighbors(v, cur);
    count(s.size(), t0);
    return s;
  }
  [[nodiscard]] std::span<const cyclops::graph::Adj> in_neighbors(
      cyclops::VertexId v, cyclops::graph::AdjCursor& cur) const override {
    const auto t0 = Clock::now();
    const auto s = inner_.in_neighbors(v, cur);
    count(s.size(), t0);
    return s;
  }
  [[nodiscard]] cyclops::graph::StoreMemory memory() const noexcept override {
    return inner_.memory();
  }
  [[nodiscard]] std::uint64_t message_budget_bytes() const noexcept override {
    return inner_.message_budget_bytes();
  }

  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t entries = 0;
    double seconds = 0;
  };
  [[nodiscard]] Totals totals() const;

 private:
  void count(std::size_t entries, Clock::time_point t0) const;

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> entries{0};
    std::atomic<std::uint64_t> ns{0};
  };
  const cyclops::graph::GraphStore& inner_;
  mutable std::array<Slot, 64> slots_;
};

/// Forwarding checkpoint store that times put() and latest() and records a
/// span around each. With `keep`, it also keeps every snapshot it was handed,
/// by superstep, so the benchmark can restore a twin from the exact snapshot a
/// recovery used.
class TimedCheckpointStore final : public cyclops::runtime::CheckpointStore {
 public:
  TimedCheckpointStore(Tracer* tracer, std::uint64_t job, bool keep)
      : tracer_(tracer), job_(job), keep_(keep) {}

  void put(cyclops::Superstep superstep, std::vector<std::uint8_t> sealed) override;
  [[nodiscard]] std::optional<std::pair<cyclops::Superstep, std::vector<std::uint8_t>>>
  latest() const override;

  /// Sealed snapshot taken at `superstep`; null if none was kept.
  [[nodiscard]] const std::vector<std::uint8_t>* at(cyclops::Superstep superstep) const;

  // Totals over the store's lifetime.
  double put_s = 0;
  mutable double load_s = 0;
  std::uint64_t bytes = 0;

 private:
  Tracer* tracer_;
  std::uint64_t job_;
  bool keep_;
  cyclops::runtime::MemoryCheckpointStore inner_;
  std::map<cyclops::Superstep, std::vector<std::uint8_t>> kept_;
};

}  // namespace perfbench
