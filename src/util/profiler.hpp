#pragma once
// Scoped wall-clock phase profiler (DESIGN.md §11). Each instrumented span
// of the round pipeline opens a ScopedPhase; the destructor records the
// elapsed nanoseconds into a per-thread accumulator (count / total / max
// plus a bounded sample ring for p50/p99; the snapshot counts the samples
// the ring overwrote). Aggregation across threads happens only at snapshot
// time.
//
// Determinism contract: the profiler only READS clocks and writes into its
// own buffers -- it never feeds a value back into the simulation, so
// profiled runs are bit-identical to unprofiled ones. When disabled (the
// default) a ScopedPhase costs one relaxed atomic load and a predictable
// branch, which is not measurable in the steady-state round benches.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

namespace rechord::util {

enum class Phase : std::uint8_t {
  kStepTotal = 0,     // whole Engine::step(), observer included
  kWakeScan,          // out-of-band dirty scan (wake_out_of_band)
  kSkipSet,           // skip/boundary classification + storm hysteresis
  kRulePhase,         // live runs + cache replays + skips (run_peers)
  kDeferredEvict,     // per-op-diff deferred replays + boundary injections
  kRouteInflight,     // latency-queue delivery drain + delay routing
  kIndexRegister,     // incremental reader/op-sender index registration
  kCommit,            // simultaneous delivery of the round's ops
  kPublishNormalize,  // rl/rr publication + network normalize
  kIndexRebuild,      // deferred ground-truth flow-index rebuild
  kFixpoint,          // change consumption, wake application, metrics;
                      // all of a certified quiescent round
  kReqShardAdvance,   // request engine: per-shard deliver + batch advance
  kReqMerge,          // request engine: serial shard-major merge
  kCount,
};

[[nodiscard]] const char* phase_name(Phase p) noexcept;

struct PhaseStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  /// Samples that fell out of a full ring (Profiler::kSampleCap per thread
  /// and phase): p50/p99 describe only the last kSampleCap spans of each
  /// thread, while count/total/max cover them all.
  std::uint64_t samples_dropped = 0;
};

/// Process-wide profiler. Disabled by default.
class Profiler {
 public:
  /// Per-thread, per-phase sample ring size behind p50/p99.
  static constexpr std::size_t kSampleCap = 1 << 14;

  [[nodiscard]] static Profiler& instance() noexcept;

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Record one span. Lock-free after a thread's first call.
  void record(Phase p, std::uint64_t ns);

  /// Drop all recorded data (thread registrations survive).
  void reset();

  /// Merged per-phase stats, enum order, phases with count > 0 only.
  [[nodiscard]] std::vector<std::pair<Phase, PhaseStats>> snapshot() const;

  /// Fraction of kStepTotal wall-clock attributed to the named sub-phases
  /// (every phase except kStepTotal itself). 0 when nothing was recorded.
  [[nodiscard]] double attributed_fraction() const;

  /// Human-readable phase table (count, total, mean, p50, p99, max, %).
  void print_table(std::ostream& os) const;
  /// CSV: phase,count,total_ns,mean_ns,p50_ns,p99_ns,max_ns.
  void write_csv(std::ostream& os) const;

 private:
  struct PhaseBuf {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    std::vector<double> samples;  // ring, kSampleCap entries
    std::size_t next = 0;
  };
  struct ThreadBuf {
    PhaseBuf phases[static_cast<std::size_t>(Phase::kCount)];
  };
  ThreadBuf& local_buf();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards threads_ growth and snapshot reads
  std::vector<std::unique_ptr<ThreadBuf>> threads_;
};

/// RAII span: times from construction to destruction when the profiler is
/// enabled at construction time; a no-op otherwise. The two-phase form
/// records one clock pair under both phases: a span that is all of its
/// parent (a certified round is all fixpoint) costs one pair, not a nested
/// span whose own overhead the parent would leave unattributed.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase p, Phase twin = Phase::kCount) noexcept
      : phase_(p), twin_(twin), live_(Profiler::instance().enabled()) {
    if (live_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedPhase() {
    if (!live_) return;
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    Profiler::instance().record(phase_, ns);
    if (twin_ != Phase::kCount) Profiler::instance().record(twin_, ns);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Phase phase_;
  Phase twin_;
  bool live_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace rechord::util
