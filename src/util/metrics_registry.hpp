#pragma once
// Named metrics registry (DESIGN.md §11): one instrument surface behind
// which the previously ad hoc counter families (core::RoundMetrics fields,
// the request engine's RequestTotals, the scenario CSV columns) are
// published. Three instrument kinds:
//   counter   -- monotonically meaningful unsigned total (set or add)
//   gauge     -- last-write-wins level (doubles)
//   histogram -- every sample, summarized as count/mean/p50/p99/max
// A Snapshot is an ordered name -> value map. Deterministic: iteration is
// name-ordered and no wall-clock enters any value.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace rechord::util {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

struct MetricValue {
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  // counter/gauge value; histogram: sample count
  // Histogram summary (zeros for counters/gauges).
  double mean = 0.0, p50 = 0.0, p99 = 0.0, max = 0.0;
};

using MetricsSnapshot = std::map<std::string, MetricValue>;

class MetricsRegistry {
 public:
  void counter_set(std::string_view name, std::uint64_t v);
  void counter_add(std::string_view name, std::uint64_t delta);
  void gauge_set(std::string_view name, double v);
  /// Histogram sample. Every sample is kept, so count and the summary
  /// cover the whole series; the one histogram the scenario runner feeds
  /// takes one sample per round, bounded by the run length.
  void observe(std::string_view name, double sample);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// One aligned "name value" line per metric.
  static void print_snapshot(const MetricsSnapshot& snap, std::ostream& os);

 private:
  struct Metric {
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    std::vector<double> samples{};
  };
  // std::map: name-ordered iteration keeps snapshots and printed summaries
  // deterministic across platforms and insertion orders.
  std::map<std::string, Metric, std::less<>> metrics_;
};

}  // namespace rechord::util
