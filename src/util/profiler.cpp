#include "util/profiler.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "util/stats.hpp"

namespace rechord::util {

namespace {
constexpr const char* kPhaseNames[] = {
    "step-total",     "wake-scan",    "skip-set",       "rule-phase",
    "deferred-evict", "route-inflight", "index-register", "commit",
    "publish-normalize", "index-rebuild", "fixpoint",   "req-shard-advance",
    "req-merge",
};
static_assert(sizeof(kPhaseNames) / sizeof(kPhaseNames[0]) ==
              static_cast<std::size_t>(Phase::kCount));
}  // namespace

const char* phase_name(Phase p) noexcept {
  return kPhaseNames[static_cast<std::size_t>(p)];
}

Profiler& Profiler::instance() noexcept {
  static Profiler profiler;
  return profiler;
}

Profiler::ThreadBuf& Profiler::local_buf() {
  thread_local ThreadBuf* buf = nullptr;
  if (!buf) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<ThreadBuf>());
    buf = threads_.back().get();
  }
  return *buf;
}

void Profiler::record(Phase p, std::uint64_t ns) {
  PhaseBuf& pb = local_buf().phases[static_cast<std::size_t>(p)];
  ++pb.count;
  pb.total_ns += ns;
  pb.max_ns = std::max(pb.max_ns, ns);
  if (pb.samples.size() < kSampleCap) {
    pb.samples.push_back(static_cast<double>(ns));
  } else {
    pb.samples[pb.next] = static_cast<double>(ns);
    if (++pb.next == kSampleCap) pb.next = 0;
  }
}

void Profiler::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& tb : threads_)
    for (auto& pb : tb->phases) {
      pb.count = 0;
      pb.total_ns = 0;
      pb.max_ns = 0;
      pb.samples.clear();
      pb.next = 0;
    }
}

std::vector<std::pair<Phase, PhaseStats>> Profiler::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<Phase, PhaseStats>> out;
  for (std::size_t p = 0; p < static_cast<std::size_t>(Phase::kCount); ++p) {
    PhaseStats st;
    std::vector<double> samples;
    for (const auto& tb : threads_) {
      const PhaseBuf& pb = tb->phases[p];
      st.count += pb.count;
      st.total_ns += pb.total_ns;
      st.max_ns = std::max(st.max_ns, pb.max_ns);
      st.samples_dropped += pb.count - pb.samples.size();
      samples.insert(samples.end(), pb.samples.begin(), pb.samples.end());
    }
    if (st.count == 0) continue;
    const Summary s = summarize(std::move(samples));
    st.p50_ns = s.p50;
    st.p99_ns = s.p99;
    out.emplace_back(static_cast<Phase>(p), st);
  }
  return out;
}

double Profiler::attributed_fraction() const {
  std::uint64_t total = 0, named = 0;
  for (const auto& [p, st] : snapshot()) {
    if (p == Phase::kStepTotal)
      total = st.total_ns;
    else
      named += st.total_ns;
  }
  return total ? static_cast<double>(named) / static_cast<double>(total)
               : 0.0;
}

void Profiler::print_table(std::ostream& os) const {
  const auto snap = snapshot();
  std::uint64_t total = 0;
  for (const auto& [p, st] : snap)
    if (p == Phase::kStepTotal) total = st.total_ns;
  os << "profile: phase timings (wall-clock, out-of-band)\n";
  os << "  " << std::left << std::setw(18) << "phase" << std::right
     << std::setw(10) << "count" << std::setw(12) << "total_ms"
     << std::setw(11) << "mean_us" << std::setw(11) << "p50_us"
     << std::setw(11) << "p99_us" << std::setw(11) << "max_us"
     << std::setw(8) << "%step" << "\n";
  for (const auto& [p, st] : snap) {
    const double mean =
        st.count ? static_cast<double>(st.total_ns) /
                       static_cast<double>(st.count)
                 : 0.0;
    os << "  " << std::left << std::setw(18) << phase_name(p) << std::right
       << std::setw(10) << st.count << std::setw(12) << std::fixed
       << std::setprecision(3) << static_cast<double>(st.total_ns) / 1e6
       << std::setw(11) << std::setprecision(2) << mean / 1e3
       << std::setw(11) << st.p50_ns / 1e3 << std::setw(11)
       << st.p99_ns / 1e3 << std::setw(11)
       << static_cast<double>(st.max_ns) / 1e3 << std::setw(7)
       << std::setprecision(1)
       << (total && p != Phase::kStepTotal
               ? 100.0 * static_cast<double>(st.total_ns) /
                     static_cast<double>(total)
               : 100.0)
       << "%\n";
  }
  os << "  attributed to named phases: " << std::setprecision(1)
     << 100.0 * attributed_fraction() << "% of step-total\n";
  os.unsetf(std::ios::fixed);
  os << std::setprecision(6);
}

void Profiler::write_csv(std::ostream& os) const {
  os << "phase,count,total_ns,mean_ns,p50_ns,p99_ns,max_ns\n";
  for (const auto& [p, st] : snapshot()) {
    const double mean =
        st.count ? static_cast<double>(st.total_ns) /
                       static_cast<double>(st.count)
                 : 0.0;
    os << phase_name(p) << ',' << st.count << ',' << st.total_ns << ','
       << mean << ',' << st.p50_ns << ',' << st.p99_ns << ',' << st.max_ns
       << "\n";
  }
}

}  // namespace rechord::util
