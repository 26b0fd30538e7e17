#include "util/metrics_registry.hpp"

#include <iomanip>
#include <ostream>

#include "util/stats.hpp"

namespace rechord::util {

namespace {
template <typename Map>
auto find_or_create(Map& metrics, std::string_view name, MetricKind kind) ->
    typename Map::mapped_type& {
  auto it = metrics.find(name);
  if (it == metrics.end())
    it = metrics.emplace(std::string(name), typename Map::mapped_type{kind})
             .first;
  return it->second;
}
}  // namespace

void MetricsRegistry::counter_set(std::string_view name, std::uint64_t v) {
  find_or_create(metrics_, name, MetricKind::kCounter).counter = v;
}

void MetricsRegistry::counter_add(std::string_view name,
                                  std::uint64_t delta) {
  find_or_create(metrics_, name, MetricKind::kCounter).counter += delta;
}

void MetricsRegistry::gauge_set(std::string_view name, double v) {
  find_or_create(metrics_, name, MetricKind::kGauge).gauge = v;
}

void MetricsRegistry::observe(std::string_view name, double sample) {
  find_or_create(metrics_, name, MetricKind::kHistogram)
      .samples.push_back(sample);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  for (const auto& [name, m] : metrics_) {
    MetricValue v;
    v.kind = m.kind;
    switch (m.kind) {
      case MetricKind::kCounter:
        v.value = static_cast<double>(m.counter);
        break;
      case MetricKind::kGauge:
        v.value = m.gauge;
        break;
      case MetricKind::kHistogram: {
        const Summary s = summarize(m.samples);
        v.value = static_cast<double>(s.count);
        v.mean = s.mean;
        v.p50 = s.p50;
        v.p99 = s.p99;
        v.max = s.max;
        break;
      }
    }
    out.emplace(name, v);
  }
  return out;
}

void MetricsRegistry::print_snapshot(const MetricsSnapshot& snap,
                                     std::ostream& os) {
  std::size_t width = 0;
  for (const auto& [name, v] : snap) width = std::max(width, name.size());
  for (const auto& [name, v] : snap) {
    os << "  " << std::left << std::setw(static_cast<int>(width) + 2) << name
       << std::right;
    switch (v.kind) {
      case MetricKind::kCounter:
        os << static_cast<std::uint64_t>(v.value) << "\n";
        break;
      case MetricKind::kGauge:
        os << v.value << "\n";
        break;
      case MetricKind::kHistogram:
        os << "count=" << static_cast<std::uint64_t>(v.value)
           << " mean=" << v.mean << " p50=" << v.p50 << " p99=" << v.p99
           << " max=" << v.max << "\n";
        break;
    }
  }
}

}  // namespace rechord::util
