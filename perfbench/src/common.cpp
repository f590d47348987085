#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "cyclops/common/check.hpp"

namespace perfbench {

double Dist::median() const {
  if (xs_.empty()) return 0;
  std::vector<double> s = xs_;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double Dist::min() const {
  return xs_.empty() ? 0.0 : *std::min_element(xs_.begin(), xs_.end());
}

double Dist::max() const {
  return xs_.empty() ? 0.0 : *std::max_element(xs_.begin(), xs_.end());
}

Dist::Tail Dist::tail() const {
  Tail t;
  t.n = xs_.size();
  if (t.n == 0) return t;
  std::vector<double> s = xs_;
  std::sort(s.begin(), s.end());
  t.rank = t.n > 10 ? t.n - 10 : t.n;
  t.value = s[t.rank - 1];
  return t;
}

MetricSet::MetricSet(std::span<const MetricSpec> specs) {
  for (const MetricSpec& s : specs) entries_.push_back(Entry{s, 0.0, {}});
}

MetricSet::Entry& MetricSet::find(std::string_view name) {
  for (Entry& e : entries_) {
    if (e.spec.name == name) return e;
  }
  std::fprintf(stderr, "perfbench: unknown metric '%.*s'\n", static_cast<int>(name.size()),
               name.data());
  CYCLOPS_CHECK(false);
  return entries_.front();
}

void MetricSet::set(std::string_view name, double value, std::string note) {
  Entry& e = find(name);
  e.value = value;
  e.note = std::move(note);
}

void MetricSet::set_dist(std::string_view base, const std::map<std::string, Dist>& by_kind) {
  const std::string b(base);
  Dist d;
  Dist kind_medians;
  for (const auto& [kind, samples] : by_kind) {
    d.append(samples);
    kind_medians.add(samples.median());
  }
  set(b + ".p50", kind_medians.median(),
      (by_kind.size() > 1 ? "median of the medians of " + std::to_string(by_kind.size()) +
                                " groups, "
                          : std::string()) +
          "n=" + std::to_string(d.size()));
  const Dist::Tail t = d.tail();
  const double pct = t.n > 0 ? 100.0 * static_cast<double>(t.rank) / static_cast<double>(t.n) : 0;
  char note[96];
  std::snprintf(note, sizeof note, "rank %zu of n=%zu (p%.1f)", t.rank, t.n, pct);
  set(b + ".tail", t.value, note);
}

std::string MetricSet::text() const {
  std::string out;
  char line[256];
  for (const Entry& e : entries_) {
    std::snprintf(line, sizeof line, "%-44.*s %-14.9g %.*s%s%s\n",
                  static_cast<int>(e.spec.name.size()), e.spec.name.data(), e.value,
                  static_cast<int>(e.spec.unit.size()), e.spec.unit.data(),
                  e.note.empty() ? "" : "  ", e.note.c_str());
    out += line;
  }
  return out;
}

std::string MetricSet::json() const {
  std::string out = "{";
  char buf[256];
  bool first = true;
  for (const Entry& e : entries_) {
    std::snprintf(buf, sizeof buf, "%s\"%.*s\": {\"value\": %.17g, \"unit\": \"%.*s\"}",
                  first ? "" : ", ", static_cast<int>(e.spec.name.size()), e.spec.name.data(),
                  e.value, static_cast<int>(e.spec.unit.size()), e.spec.unit.data());
    out += buf;
    first = false;
  }
  return out + "}";
}

void Verdict::op(bool ok, std::string_view what, std::uint64_t n) {
  attempted_ += n;
  if (ok) return;
  failed_ += n;
  problems_.push_back(std::string(what));
}

void Verdict::self_check(bool ok, std::string_view what) {
  if (ok) return;
  self_ok_ = false;
  problems_.push_back("self-check: " + std::string(what));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

unsigned host_threads() { return std::max(1u, std::thread::hardware_concurrency()); }

}  // namespace perfbench
